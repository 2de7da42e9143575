"""Reference helpers shared by the tests; not part of the library."""

import numpy as np

from biphoton import analyzer_vector


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise distance between a and b after fitting a global phase.

    The fitted phase maximizes |trace(a^H b)|; arrays of equal shape only.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    t = np.sum(a.conj() * b)
    if abs(t) == 0.0:
        # No phase preferred; any unit scalar gives the same norm.
        return float(np.max(np.abs(a - b)))
    c = t / abs(t)
    return float(np.max(np.abs(c * a - b)))


def projected_amplitude(state, analyzer) -> np.ndarray:
    """Pair amplitude A(Omega) on the grid behind the two analyzers."""
    e1, e2 = (analyzer_vector(theta).conj() for theta in (analyzer.theta1, analyzer.theta2))
    return np.kron(e1, e2) @ state.pol @ state.rows(0, state.grid.n_used)


def far_field_image(state, fiber, analyzer):
    """(tau, g2) of |A(Omega)|^2 on tau = 2 k2 z Omega, tau increasing."""
    tau = 2.0 * (fiber.k2 * fiber.z) * state.grid.omegas
    g2 = np.abs(projected_amplitude(state, analyzer)) ** 2
    return (tau, g2) if fiber.k2 > 0.0 else (tau[::-1], g2[::-1])


def exact_transform(state, fiber, analyzer):
    """(tau, g2) of the chirped amplitude's discrete Fourier transform, kernel e^{-i Omega tau}."""
    grid = state.grid
    b = np.zeros(grid.n, dtype=complex)
    b[: grid.n_used] = projected_amplitude(state, analyzer) * np.exp(
        1j * (fiber.k2 * fiber.z) * grid.omegas**2
    )
    spectrum = np.fft.fftshift(np.fft.fft(b))
    tau = (np.arange(1, grid.n) - grid.n // 2) * (2.0 * np.pi / (grid.n * grid.domega))
    return tau, (grid.domega * np.abs(spectrum[1:])) ** 2
