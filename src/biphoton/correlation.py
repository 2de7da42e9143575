"""Coincidence correlation shapes behind two polarization analyzers.

With analyzers at +45/+45 and +45/-45 degrees the dispersed coincidence
distribution takes the closed forms (t = tau / tau_f)

    G_plus(t)  = [cos^2(d) (1 + sin^2(d)) + sin^4(d) cos^2(4a)] sin^2(t) cos^2(t) / t^2
    G_minus(t) = [sin^2(4a) sin^4(d) cos^2(t) + sin^2(t)] sin^2(t) / t^2

for a retarder (retardance d, axis angle a) crossed by both photons before
the analyzers; d = 0 gives the bare source curves.  ``g2_numeric`` computes
the same distributions from the sampled state, either through the far-field
map tau = 2 k2 z Omega or by an exact discrete Fourier transform of the
chirped amplitude, and the two routes agree only when every sign convention
in the chain is consistent, which is what the test suite pins down.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .csvio import write_csv
from .errors import ConfigurationError, DegenerateInputError, EmptyWindowError
from .fiber import FiberChannel, check_chirp_sampling
from .jones import RetarderSpec, analyzer_vector
from .state import BellTarget, BiphotonState, _both_photons, polarization_overlap

Normalization = Literal["raw", "peak_unity"]


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
        if self.normalization not in ("raw", "peak_unity"):
            raise ValueError(f"unknown normalization {self.normalization!r}")

    def peak_normalized(self) -> "CorrelationResult":
        peak = float(np.max(self.g2))
        if peak <= 0.0:
            raise DegenerateInputError("cannot peak-normalize an all-zero curve")
        return CorrelationResult(
            tau_grid=self.tau_grid.copy(),
            g2=self.g2 / peak,
            analyzer=self.analyzer,
            normalization="peak_unity",
        )

    def to_csv(self, path, metadata: dict | None = None) -> None:
        meta = {
            "analyzer.theta1_rad": self.analyzer.theta1,
            "analyzer.theta2_rad": self.analyzer.theta2,
            "normalization": self.normalization,
            "n_points": len(self.tau_grid),
        }
        if metadata:
            meta.update(metadata)
        write_csv(path, {"tau_s": self.tau_grid, "g2": self.g2}, meta)


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


def _projected_amplitude(state: BiphotonState, analyzer: AnalyzerConfig) -> np.ndarray:
    e1 = analyzer_vector(analyzer.theta1).conj()
    e2 = analyzer_vector(analyzer.theta2).conj()
    return np.einsum("a,b,abk->k", e1, e2, state.amp)


def g2_numeric(
    state: BiphotonState,
    fiber: FiberChannel,
    analyzer: AnalyzerConfig,
    mode: Literal["far_field", "exact_fourier"] = "far_field",
) -> CorrelationResult:
    """Coincidence distribution of the dispersed state behind two analyzers.

    far_field evaluates |A(Omega)|^2 on the ray-optics map tau = 2 k2 z Omega
    and is exact in the limit of strong dispersion.  exact_fourier transforms
    the chirped amplitude A(Omega) e^{i k2 z Omega^2} to the time domain with
    kernel e^{-i Omega tau} (detection-time difference tau = t1 - t2), which
    reduces to the far-field result when tau_f dwarfs the source correlation
    time.  Expects the state before dispersion; the chirp is applied here.
    """
    a = _projected_amplitude(state, analyzer)
    grid = state.grid
    k2z = fiber.k2 * fiber.z
    if mode == "far_field":
        if k2z == 0.0:
            raise ConfigurationError("far_field mode needs nonzero k2 * z")
        tau = 2.0 * k2z * grid.omegas
        g2 = np.abs(a) ** 2
        if tau[1] < tau[0]:
            tau = tau[::-1]
            g2 = g2[::-1]
        return CorrelationResult(tau_grid=tau, g2=g2, analyzer=analyzer)
    if mode != "exact_fourier":
        raise ValueError(f"unknown mode {mode!r}")
    check_chirp_sampling(fiber, grid)
    b = np.zeros(grid.n, dtype=complex)
    b[: grid.n_used] = a * np.exp(1j * k2z * grid.omegas**2)
    dtau = 2.0 * np.pi / (grid.n * grid.domega)
    spectrum = np.fft.fftshift(np.fft.fft(b))
    g2 = (grid.domega * np.abs(spectrum[1:])) ** 2
    tau = (np.arange(1, grid.n) - grid.n // 2) * dtau
    return CorrelationResult(tau_grid=tau, g2=g2, analyzer=analyzer)


def visibility(plus: CorrelationResult, minus: CorrelationResult, tau: float = 0.0) -> float:
    """(G+ - G-) / (G+ + G-) at one detection-time difference.

    Returns nan when the denominator is below 1e-15 of the joint peak; the
    two results must share the tau grid and normalization, and visibility is
    physically meaningful only for curves on a common ('raw') scale.
    """
    if not np.array_equal(plus.tau_grid, minus.tau_grid):
        raise ValueError("results are on different tau grids")
    if plus.normalization != minus.normalization:
        raise ValueError("results use different normalizations")
    i = int(np.argmin(np.abs(plus.tau_grid - tau)))
    half_step = 0.5 * (plus.tau_grid[-1] - plus.tau_grid[0]) / max(len(plus.tau_grid) - 1, 1)
    if abs(plus.tau_grid[i] - tau) > half_step * (1.0 + 1e-9):
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
    amplitude: np.ndarray = field(repr=False)
    psi_plus_fidelity: float
    psi_minus_fidelity: float
    n_samples: int
    band: tuple[float, float]


def postselect(
    state: BiphotonState,
    fiber: FiberChannel,
    window: PostSelectionWindow,
    basis: np.ndarray | None = None,
) -> PostSelectionResult:
    """Polarization state selected by a coincidence-time window.

    The window is mapped to a detuning band through tau = 2 k2 z Omega, the
    pair amplitude is averaged coherently over the band's samples and renormalized.
    ``basis`` optionally rotates both photons into an analyzer frame before
    the Bell-state overlaps are evaluated.
    """
    k2z = fiber.k2 * fiber.z
    if k2z == 0.0:
        raise ConfigurationError("post-selection needs nonzero k2 * z")
    lo = (window.center - window.half_width) / (2.0 * k2z)
    hi = (window.center + window.half_width) / (2.0 * k2z)
    if lo > hi:
        lo, hi = hi, lo
    # The band is a run of the increasing grid: bisect on grid.omegas[k], exactly.
    grid = state.grid
    omega = lambda k: (k - grid.zero_index) * grid.domega  # noqa: E731
    start = bisect_left(range(grid.n_used), lo, key=omega)
    stop = bisect_right(range(grid.n_used), hi, key=omega)
    n_samples = stop - start if lo <= hi else 0  # a nan edge selects nothing
    if n_samples == 0:
        raise EmptyWindowError("window contains no grid samples")
    band = state.amp[:, :, start:stop]
    band_norm = float(np.vdot(band, band).real * grid.domega)
    total = state.norm()
    if band_norm <= 1e-12 * total:
        raise EmptyWindowError(
            f"window carries {band_norm:.3g} of {total:.3g} total norm (below 1e-12)"
        )
    avg = np.mean(band, axis=2)
    if basis is not None:
        avg = _both_photons(basis, avg)
    norm = np.linalg.norm(avg)
    if norm < 1e-300:
        raise DegenerateInputError("window average cancels coherently")
    avg = avg / norm
    fid_plus = abs(polarization_overlap(avg, BellTarget.psi_plus())) ** 2
    fid_minus = abs(polarization_overlap(avg, BellTarget.psi_minus(state.crystal))) ** 2
    return PostSelectionResult(
        amplitude=avg,
        psi_plus_fidelity=float(fid_plus),
        psi_minus_fidelity=float(fid_minus),
        n_samples=n_samples,
        band=(lo, hi),
    )
