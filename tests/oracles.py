"""Reference helpers shared by the tests; not part of the library."""

import math

import numpy as np
from scipy.integrate import quad

from biphoton import PSI_MINUS, PSI_PLUS, ConfigurationError, analyzer_vector


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
    return np.kron(e1, e2) @ state.pol @ state.rows_at(state.grid.omegas)


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


def polarization_overlap(slice2x2: np.ndarray, target: np.ndarray) -> complex:
    """Complex overlap <target | slice> of PSI_PLUS or PSI_MINUS after normalizing the slice."""
    s = np.asarray(slice2x2, dtype=complex)
    if s.shape != (2, 2):
        raise ValueError(f"expected a 2x2 slice, got shape {s.shape}")
    n = np.linalg.norm(s)
    if n < 1e-300:
        raise ValueError("slice has zero norm")
    return complex(np.sum(target.conj() * s) / n)


def continuum_gram(state, lo, hi) -> np.ndarray:
    """Integral of conj(r) r^T over [lo, hi] within +-omega_max, by adaptive quadrature.

    The rows are written out in closed form, r = scale sinc(theta) e^{+-i theta}
    with theta = Omega tau0, and scipy's quad integrates sinc^2, sinc^2 cos 2 theta
    and sinc^2 sin 2 theta over each piece between multiples of pi / 2 in theta.
    """
    lo, hi = max(lo, -state.grid.omega_max), min(hi, state.grid.omega_max)
    if not lo < hi:
        return np.zeros((2, 2), dtype=complex)
    tau0 = state.crystal.tau0
    a, b = lo * tau0, hi * tau0
    cuts = [k * np.pi / 2.0 for k in range(math.floor(a / (np.pi / 2.0)),
                                          math.ceil(b / (np.pi / 2.0)) + 1)]
    points = [a, *(c for c in cuts if a < c < b), b]
    sums = []
    for weight in (lambda t: 1.0, lambda t: np.cos(2.0 * t), lambda t: np.sin(2.0 * t)):
        parts = [quad(lambda t: np.sinc(t / np.pi) ** 2 * weight(t), x0, x1,
                      epsabs=1e-14, epsrel=1e-12, limit=200)[0]
                 for x0, x1 in zip(points, points[1:])]
        sums.append(math.fsum(parts))
    whole, cos2, sin2 = sums
    cross = complex(cos2, -sin2)  # integral of sinc^2 e^{-2i theta}
    return state.scale**2 / tau0 * np.array([[whole, cross], [cross.conjugate(), whole]])


def continuum_postselect(state, fiber, window, basis=None):
    """(density, psi+ fidelity, psi- fidelity, selected fraction) from ``continuum_gram``.

    rho = sum over the band of a a^dagger with a = kron(B, B) pol r; a band
    holding at most 1e-12 of the norm raises ConfigurationError.
    """
    k2z = fiber.k2 * fiber.z
    lo = (window.center - window.half_width) / (2.0 * k2z)
    hi = (window.center + window.half_width) / (2.0 * k2z)
    lo, hi = min(lo, hi), max(lo, hi)
    pol = state.pol if basis is None else np.kron(basis, basis) @ state.pol
    rho = pol @ continuum_gram(state, lo, hi).conj() @ pol.conj().T
    trace = np.trace(rho).real
    if not trace > 1e-12 * state.norm():
        raise ConfigurationError("window carries too little norm")
    fidelities = [(psi.ravel().conj() @ rho @ psi.ravel()).real / trace
                  for psi in (PSI_PLUS, PSI_MINUS)]
    return rho / trace, *fidelities, trace / state.norm()


def time_domain_window_gram(state, fiber, window, nodes=64, chunk=1 << 12) -> np.ndarray:
    """Integral of conj(R) R^T / (2 pi) over the window's tau, R the chirped rows in time.

    R(tau) = sum over the grid of r(Omega) e^{i k2 z Omega^2} e^{-i Omega tau} dOmega, a
    direct transform that is exact where the grid samples the chirp, with the rows
    written out in closed form; tau runs over ``nodes`` Gauss-Legendre nodes of the
    window.  No far-field map enters.  The grid is taken in chunks of ``chunk``
    samples, each chunk's kernel e^{-i Omega_0 tau} e^{-i j dOmega tau} from one table.
    """
    grid, tau0, k2z = state.grid, state.crystal.tau0, fiber.k2 * fiber.z
    x, w = np.polynomial.legendre.leggauss(nodes)
    tau = window.center + window.half_width * x
    steps = np.exp(-1j * np.outer(np.arange(chunk) * grid.domega, tau))
    big_r = np.zeros((2, nodes), dtype=complex)
    omegas = grid.omegas
    for start in range(0, len(omegas), chunk):
        omega = omegas[start : start + chunk]
        env = state.scale * np.sinc(omega * tau0 / np.pi) * np.exp(1j * k2z * omega**2)
        rows = np.stack((env * np.exp(1j * omega * tau0), env * np.exp(-1j * omega * tau0)))
        big_r += (rows @ steps[: len(omega)]) * np.exp(-1j * omega[0] * tau)
    big_r *= grid.domega
    return (big_r.conj() * (window.half_width * w)) @ big_r.T / (2.0 * np.pi)
