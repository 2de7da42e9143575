"""Coincidence correlation shapes behind two polarization analyzers.

With analyzers at +45/+45 and +45/-45 degrees the dispersed coincidence
distribution takes the closed forms (t = tau / tau_f)

    G_plus(t)  = [cos^2(d) (1 + sin^2(d)) + sin^4(d) cos^2(4a)] sin^2(t) cos^2(t) / t^2
    G_minus(t) = [sin^2(4a) sin^4(d) cos^2(t) + sin^2(t)] sin^2(t) / t^2

for a retarder (retardance d, axis angle a) crossed by both photons before
the analyzers; d = 0 gives the bare source curves.  These are far-field
(strong-dispersion) forms.  ``g2_numeric`` computes the distributions from
the sampled state: an exact discrete Fourier transform of the chirped
amplitude where the grid samples the chirp, else the far-field image on
tau = 2 k2 z Omega.  At strong chirp the routes agree only when every sign
convention in the chain is consistent, which the test suite pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import ConfigurationError
from .fiber import FiberChannel
from .jones import RetarderSpec, analyzer_vector
from .state import PSI_MINUS, PSI_PLUS, BiphotonState, CrystalParams, FrequencyGrid, _both_photons

Normalization = Literal["raw"]

FAR_FIELD_EDGE_STEP = np.pi / 4.0  # chirp_edge_step (rad) from which g2 is the far-field image


@dataclass(frozen=True)
class AnalyzerConfig:
    """Linear analyzer angles (radians from H) in the two output arms."""

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.theta1) and np.isfinite(self.theta2)):
            raise ValueError("analyzer angles must be finite")


PLUS_PLUS = AnalyzerConfig(np.pi / 4.0, np.pi / 4.0)
PLUS_MINUS = AnalyzerConfig(np.pi / 4.0, -np.pi / 4.0)


@dataclass
class CorrelationResult:
    """Sampled coincidence distribution g2(tau) for one analyzer setting."""

    tau_grid: np.ndarray
    g2: np.ndarray
    analyzer: AnalyzerConfig
    normalization: Normalization = "raw"

    def __post_init__(self) -> None:
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        self.g2 = np.asarray(self.g2, dtype=float)
        if self.tau_grid.ndim != 1 or self.tau_grid.shape != self.g2.shape:
            raise ValueError("tau_grid and g2 must be 1-d arrays of equal length")
        d = np.diff(self.tau_grid)
        if len(d) and not np.all(d > 0.0):
            raise ValueError("tau_grid must be strictly increasing")
        span = self.tau_grid[-1] - self.tau_grid[0] if len(self.tau_grid) > 1 else 1.0
        if np.max(np.abs(self.tau_grid + self.tau_grid[::-1])) > 1e-9 * span:
            raise ValueError("tau_grid must be symmetric about zero")
        if np.any(self.g2 < 0.0):
            raise ValueError("g2 must be nonnegative")
        if self.normalization != "raw":
            raise ValueError(f"unknown normalization {self.normalization!r}")


def g2_analytic(
    tau,
    tau_f_scale: float,
    plate: RetarderSpec | None = None,
    which: Literal["plus", "minus"] = "plus",
):
    """Closed-form dispersed coincidence distribution, unit peak at d = 0.

    ``tau`` may be a scalar or array of detection-time differences, and the
    plate angles may be arrays that broadcast against it; the t = 0 point is
    evaluated through the analytic limit (np.sinc), never by substituting a
    small epsilon.
    """
    if not np.isfinite(tau_f_scale) or tau_f_scale <= 0.0:
        raise ConfigurationError(f"tau_f_scale must be finite and > 0, got {tau_f_scale!r}")
    if which not in ("plus", "minus"):
        raise ValueError(f"which must be 'plus' or 'minus', got {which!r}")
    t = np.asarray(tau, dtype=float) / tau_f_scale
    delta = plate.delta if plate is not None else 0.0
    alpha = plate.alpha if plate is not None else 0.0
    sinc2 = np.sinc(t / np.pi) ** 2
    cos_d2 = np.cos(delta) ** 2
    sin_d2 = np.sin(delta) ** 2
    if which == "plus":
        bracket = cos_d2 * (1.0 + sin_d2) + sin_d2**2 * np.cos(4.0 * alpha) ** 2
        out = bracket * sinc2 * np.cos(t) ** 2
    else:
        out = sinc2 * (
            np.sin(4.0 * alpha) ** 2 * sin_d2**2 * np.cos(t) ** 2 + np.sin(t) ** 2
        )
    if np.isscalar(tau) and np.ndim(out) == 0:
        return float(out)
    return out


def chirp_edge_step(grid: FrequencyGrid, fiber: FiberChannel) -> float:
    """Phase step |k2 z| omega_max dOmega of the chirp e^{i k2 z Omega^2} at the grid edge, in rad.

    Below pi/4 the grid samples the chirp and ``g2_numeric`` transforms it
    exactly.  At pi/4 or above the coincidence pattern is the far-field image
    on tau = 2 k2 z Omega, the map ``g2_numeric`` then uses.
    """
    return abs(fiber.k2 * fiber.z) * grid.omega_max * grid.domega


def g2_numeric(
    state: BiphotonState, fiber: FiberChannel, analyzer: AnalyzerConfig
) -> CorrelationResult:
    """Coincidence distribution of the dispersed state behind two analyzers.

    Where the grid samples the chirp e^{i k2 z Omega^2} (edge phase step
    k2 z omega_max dOmega < pi/4; Voelz & Roggemann, Appl. Opt. 48, 6132
    (2009)), k2 z = 0 included, the chirped amplitude is transformed exactly
    with kernel e^{-i Omega tau} (tau = t1 - t2).  Elsewhere the result is the
    far-field image |A(Omega)|^2 on tau = 2 k2 z Omega, the strong-dispersion
    limit that ``g2_analytic`` gives.  Expects the state before dispersion.
    """
    grid, omegas = state.grid, state.grid.omegas
    e1, e2 = (analyzer_vector(theta).conj() for theta in (analyzer.theta1, analyzer.theta2))
    a = np.kron(e1, e2) @ state.pol @ state.rows_at(omegas)  # projected amplitude
    k2z = fiber.k2 * fiber.z
    if chirp_edge_step(grid, fiber) >= FAR_FIELD_EDGE_STEP:
        tau = 2.0 * k2z * omegas
        g2 = np.abs(a) ** 2
        if tau[1] < tau[0]:
            tau = tau[::-1]
            g2 = g2[::-1]
        return CorrelationResult(tau_grid=tau, g2=g2, analyzer=analyzer)
    b = np.zeros(grid.n, dtype=complex)
    b[: grid.n_used] = a * np.exp(1j * k2z * omegas**2)
    dtau = 2.0 * np.pi / (grid.n * grid.domega)
    spectrum = np.fft.fftshift(np.fft.fft(b))
    g2 = (grid.domega * np.abs(spectrum[1:])) ** 2
    tau = (np.arange(1, grid.n) - grid.n // 2) * dtau
    return CorrelationResult(tau_grid=tau, g2=g2, analyzer=analyzer)


def visibility(plus: CorrelationResult, minus: CorrelationResult, tau: float = 0.0) -> float:
    """(G+ - G-) / (G+ + G-) at one detection-time difference.

    Returns nan when the denominator is below 1e-15 of the joint peak; the
    two results must share the tau grid.
    """
    if not np.array_equal(plus.tau_grid, minus.tau_grid):
        raise ValueError("results are on different tau grids")
    i = int(np.argmin(np.abs(plus.tau_grid - tau)))
    half_step = 0.5 * (plus.tau_grid[-1] - plus.tau_grid[0]) / max(len(plus.tau_grid) - 1, 1)
    if not abs(plus.tau_grid[i] - tau) <= half_step * (1.0 + 1e-9):  # also a nan tau
        raise ValueError(f"tau = {tau!r} is outside the sampled grid")
    p = plus.g2[i]
    m = minus.g2[i]
    peak = max(np.max(plus.g2), np.max(minus.g2))
    if peak == 0.0 or p + m < 1e-15 * peak:
        return float("nan")
    return float((p - m) / (p + m))


@dataclass(frozen=True)
class PostSelectionWindow:
    """Symmetric window of detection-time differences around ``center``."""

    center: float
    half_width: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.center):
            raise ValueError("center must be finite")
        if not np.isfinite(self.half_width) or self.half_width <= 0.0:
            raise ValueError("half_width must be finite and > 0")


@dataclass
class PostSelectionResult:
    density: np.ndarray = field(repr=False)  # 4x4 rho / tr rho, index 2 s1 + s2
    psi_plus_fidelity: float
    psi_minus_fidelity: float
    selected_fraction: float  # tr rho over the state's norm: its share inside the band


def require_far_field(fiber: FiberChannel, crystal: CrystalParams) -> None:
    """Raise ConfigurationError unless |tau_f| = 2 |k2 z| / tau0 is at least 1000 tau0.

    Only there does a window select a band through tau = 2 k2 z Omega (Kolner, IEEE JQE
    30, 1951 (1994)): its psi- fidelity exceeds the time domain's by 0.40 (tau0 / tau_f)^2.
    """
    scale, least = abs(2.0 * (fiber.k2 * fiber.z)) / crystal.tau0, 1000.0 * crystal.tau0
    if not scale >= least:
        raise ConfigurationError(f"|tau_f| = {scale:.3g} s is below 1000 tau0 = {least:.3g} s")


def postselect(
    state: BiphotonState,
    fiber: FiberChannel,
    window: PostSelectionWindow,
    basis: np.ndarray | None = None,
) -> PostSelectionResult:
    """Polarization state selected by a coincidence-time window.

    The window maps to a detuning band through the far-field tau = 2 k2 z Omega,
    which ``require_far_field`` checks first.  Distinct detection times are
    distinguishable outcomes, so the band selects the mixture
    rho = pol conj(G) pol^dagger of its Gram matrix G; ``basis`` first rotates
    both photons, pol -> kron(B, B) pol.  A fidelity is <psi|rho|psi> / tr rho.
    """
    require_far_field(fiber, state.crystal)
    k2z = fiber.k2 * fiber.z
    lo, hi = sorted((window.center + side * window.half_width) / (2.0 * k2z) for side in (-1, 1))
    pol = state.pol if basis is None else _both_photons(basis, state.pol)
    # rho = pol conj(G) pol^dagger = x x^dagger, x = pol c, conj(G) = c c^dagger: psd to rounding
    lam, vec = np.linalg.eigh(state.gram(lo, hi).conj())
    x = pol @ (vec * np.sqrt(np.clip(lam, 0.0, None)))
    band_norm, total = float(np.sum(np.abs(x) ** 2)), state.norm()
    if band_norm <= 1e-12 * total:
        raise ConfigurationError(f"window carries {band_norm:.3g} of {total:.3g} total norm "
                                 "(below 1e-12)")
    x = x / math.sqrt(band_norm)  # rho / tr rho = x x^dagger; 1 / band_norm may overflow
    fidelities = [float(np.sum(abs(psi.ravel().conj() @ x) ** 2)) for psi in (PSI_PLUS, PSI_MINUS)]
    return PostSelectionResult(x @ x.conj().T, *fidelities, selected_fraction=band_norm / total)
