"""Start-stop coincidence measurement as independent Poisson channel counts.

A pair's detection-time difference follows a g2 curve, is smeared by the
Gaussian time response of both detectors and is binned into multichannel-
analyzer channels; a flat accidental background is added per channel.
Negative differences land below the zero-delay channel, exactly as a
time-to-amplitude converter with a fixed start detector records them.
Nothing depends on event order (no converter dead time, one pair per start),
so the histogram is an independent Poisson count per channel: one draw per
bin from the seed's histogram substream, whatever the acquisition time.
Each bin's share is a closed form in erf, evaluated on whole numpy arrays by
W. J. Cody's rational approximations (``_erf``), with no Python call per term.
The erf terms depend on the channel edges, the g2 grid and the jitter alone,
not on the curve: ``simulate_histograms`` evaluates each chunk of them once
for all arms of one geometry (the ++ and +- analyzer settings) and sums it
against each arm's density in turn, so every arm's counts are those of its
own ``simulate_histogram`` call.  A ``Histogram`` holds the counts and their
channel geometry; the command line writes them to CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .correlation import CorrelationResult, PostSelectionWindow
from .errors import ConfigurationError
from .fiber import _STREAM_HISTOGRAM, DriftProcess, drift_operators
from .jones import analyzer_vector, round_trip

# Terms of the channel law evaluated at once, though a chunk holds at least one whole
# edge: caps memory (and keeps the temporaries in cache), never changes a result.
_CHUNK = 1 << 12
# Beyond this many sigmas the normal CDF is 0 or 1 in double precision.
_REACH = 9.0
# Least share of a bin within reach of the signal.  numpy's Poisson sampler
# takes no uniform at mean 0 and at least one at any positive mean, so which
# shares are exactly 0 decides how every later draw lines up: that must follow
# from the geometry, not from rounding in the far tails of erf.
_FLOOR = 1e-300
# Widest delay smear sqrt(2) jitter_sigma, in g2 cells, that the channel law resolves: its
# Psi differences cancel (a first negative share at 2^27.75 cells at the scenario defaults).
_MAX_SMEAR_CELLS = 2.0**16
# Most Psi terms, channel edges times g2 cells per edge, that the channel law evaluates:
# about 4 minutes at the 70-110 ns a term measured on a 2-vCPU Xeon guest.
_MAX_TERMS = 2**31

# W. J. Cody's rational Chebyshev approximations to erf and erfc (Math. Comp.
# 23, 631 (1969); the coefficients of SPECFUN's CALERF), highest degree first.
# erf(x) = x A(x^2)/B(x^2) for |x| <= 0.46875; erfc(y) = exp(-y^2) C(y)/D(y)
# for y <= 4 and exp(-y^2) (1/sqrt(pi) - t P(t)/Q(t)) / y with t = 1/y^2 above.
_A = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
      3.77485237685302021e02, 3.20937758913846947e03)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
      6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
      1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


def _rational(t: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """p(t) / q(t) by Horner's rule; q is monic and one degree below p's length."""
    num = p[0] * t + p[1]
    den = t + q[0]
    for a, b in zip(p[2:], q[1:]):
        num *= t
        num += a
        den *= t
        den += b
    return num / den


def _erf(x: np.ndarray) -> np.ndarray:
    """Elementwise erf of a float array by Cody's three ranges, within 5 ulp.

    Each range is evaluated on its own elements alone: on one histogram-heavy call's
    37,718 terms that took 1.5 ms against 1.9 ms for all ranges on the whole array
    (2-vCPU Xeon guest), with the same bits.  exp(-y^2) is split at y rounded down to
    1/16, an exact square.  1 - erfc is rounded once, not twice as in Cody's
    (1/2 - erfc) + 1/2, so erf agrees with math.erf to the bit beyond |x| = 4 and at
    99.9 % of points in [2, 4]: the channel law's far tails, whose exact zeros decide
    how many uniforms the Poisson draws take, come out as they do with math.erf.
    """
    out, big = np.empty_like(x), np.abs(x) > 0.46875
    xs, y = x[~big], np.minimum(np.abs(x[big]), 6.0)
    out[~big] = xs * _rational(xs * xs, _A, _B)
    r, far = np.empty_like(y), y > 4.0
    t = 1.0 / (y[far] * y[far])
    r[far] = (1.0 / math.sqrt(math.pi) - t * _rational(t, _P, _Q)) / y[far]
    r[~far] = _rational(y[~far], _C, _D)
    y16 = np.trunc(16.0 * y) / 16.0
    erfc = np.exp(-y16 * y16) * np.exp(-(y - y16) * (y + y16)) * r
    out[big] = np.copysign(1.0 - erfc, x[big])
    return out


@dataclass(frozen=True)
class DetectorParams:
    """Gaussian jitter (same sigma per detector), efficiencies, dark rate.

    ``dark_background_rate`` is the flat accidental rate per channel in Hz;
    the expected background per channel is that rate times acquisition time.
    """

    jitter_sigma: float = 0.0
    efficiency_1: float = 1.0
    efficiency_2: float = 1.0
    dark_background_rate: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.jitter_sigma) or self.jitter_sigma < 0.0:
            raise ValueError("jitter_sigma must be finite and >= 0")
        for name in ("efficiency_1", "efficiency_2"):
            v = getattr(self, name)
            if not np.isfinite(v) or not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if not np.isfinite(self.dark_background_rate) or self.dark_background_rate < 0.0:
            raise ValueError("dark_background_rate must be finite and >= 0")


@dataclass
class Histogram:
    """Channel counts of one acquisition: ``len(counts)`` channels of ``channel_width``."""

    channel_width: float
    counts: np.ndarray = field(repr=False)
    underflow: int = 0
    overflow: int = 0
    n_pairs: int = 0
    n_background: int = 0
    signal_support: float = 0.0
    in_reach_channels: int = 0
    floored_channels: int = 0

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or len(self.counts) == 0:
            raise ValueError("counts must be a non-empty 1-d array")

    @property
    def zero_offset_channel(self) -> int:
        return len(self.counts) // 2

    def tau_centers(self) -> np.ndarray:
        return (np.arange(len(self.counts)) - self.zero_offset_channel) * self.channel_width


def _cell_width(tau_grid: np.ndarray) -> float:
    steps = np.diff(tau_grid)
    if len(steps) == 0:
        raise ValueError("g2 grid needs at least two points")
    if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
        raise ValueError("g2 grid must be uniform")
    return float(np.mean(steps))


def _psi(y: np.ndarray, s: float) -> np.ndarray:
    """Integral of the N(0, s^2) CDF up to y: y Phi(y/s) + s phi(y/s), max(y, 0) at s = 0.

    Phi comes from the array erf ``_erf``; terms with |y| >= _REACH s take
    max(y, 0) exactly, so a cell out of reach adds exactly 0 or its weight.
    """
    out = np.maximum(y, 0.0)
    near = np.abs(y) < _REACH * s
    y = y[near]
    z = y / s
    cdf = 0.5 + 0.5 * _erf(z / math.sqrt(2.0))
    out[near] = y * cdf + s * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return out


def _smeared_cdf(x, tau: np.ndarray, weight: np.ndarray, cell: float, s: float):
    """P(delay <= x) for cell-box densities at ``tau`` smeared by N(0, s^2).

    Cell k spreads weight[k] over [b_k, b_k+1] = tau[k] -+ cell/2 and adds
    weight[k] (Psi(x - b_k) - Psi(x - b_k+1)) / cell: exactly weight[k]
    (nothing) once the whole cell lies _REACH s below (above) x, so only a
    band of cells around each x is evaluated, about _CHUNK terms or one x's band at once.
    ``weight`` may stack several densities on one grid, shape (..., len(tau));
    the result then has shape (..., len(x)).  The Psi differences depend on
    the grid alone, so each chunk of them is evaluated once and summed against
    each density in turn, exactly as for that density alone.
    """
    weight = np.asarray(weight, dtype=float)
    rows = weight.reshape(-1, len(tau))
    reach = _REACH * s + cell / 2.0
    band = min(int(np.ceil(2.0 * reach / cell)) + 2, len(tau))
    # Cells before first[i] lie wholly more than _REACH s below x[i]; clip absorbs a far
    # edge's overflowed quotient.
    with np.errstate(over="ignore"):
        first = np.clip(np.floor((x - reach - tau[0]) / cell) + 1.0, 0, len(tau)).astype(np.int64)
    full = np.concatenate([np.zeros((len(rows), 1)), np.cumsum(rows, axis=1)], axis=1)
    cdf = full[:, first]
    # Past the last cell: no weight, and bounds at a delay no x reaches.
    bounds = np.concatenate([tau - cell / 2.0, [tau[-1] + cell / 2.0], np.full(band, np.inf)])
    rows = np.concatenate([rows, np.zeros((len(rows), band))], axis=1)
    live = np.flatnonzero((first < len(tau)) & (x > bounds[0] - _REACH * s))
    if len(live) * (band + 1) > _MAX_TERMS:
        raise ConfigurationError(
            f"the channel law needs {len(live)} channel edges times {band + 1} g2 cells per "
            f"edge, more than the {_MAX_TERMS} terms it evaluates")
    for i in np.array_split(live, max(1, min(len(live), len(live) * band // _CHUNK))):
        k = first[i, None] + np.arange(band + 1)
        psi = _psi(x[i, None] - bounds[k], s)
        step = psi[:, :-1] - psi[:, 1:]
        for row, out in zip(rows, cdf):
            out[i] += np.sum(row[k[:, :-1]] * step, axis=1) / cell
    return (cdf / full[:, -1:]).reshape(weight.shape[:-1] + np.shape(x))


def mean_pair_total(detectors: DetectorParams, pair_rate: float, acquisition_time: float,
                    transmittance: float) -> float:
    """pair_rate * acquisition_time * transmittance * eff1 * eff2 / 2: the factor 2
    is the beam-splitter post-selection."""
    return (pair_rate * acquisition_time * transmittance
            * detectors.efficiency_1 * detectors.efficiency_2 / 2.0)


def simulate_histograms(
    curves: Sequence[CorrelationResult],
    detectors: DetectorParams,
    pair_rate: float,
    acquisition_time: float,
    channel_width: float,
    seeds: Sequence[int],
    n_channels: int | None = None,
    transmittance: float = 1.0,
) -> list[Histogram]:
    """Simulate one start-stop acquisition per g2 curve, seeded by ``seeds``.

    The curves share one tau grid, and so one channel geometry.  Each curve
    is a piecewise-constant density over cells centered on the grid points,
    and the delay adds N(0, 2 jitter_sigma^2).  The result is an independent
    Poisson count per channel (and for underflow and overflow): the bin's
    exact share of the density times ``mean_pair_total``; ``n_pairs`` is
    their sum.
    A bin [lo, hi) within reach of the signal, meeting [-r, r] with r the
    signal support plus _REACH jitter sigmas of the delay, has a share of at
    least _FLOOR, and every other bin a share of exactly 0; the histogram
    reports how many channels are within reach and how many were floored.
    The channel law of all curves comes from one pass over the grid, and each
    histogram is bit for bit the one ``simulate_histogram`` gives its curve.
    Past _MAX_SMEAR_CELLS grid cells of sqrt(2) jitter_sigma, or past _MAX_TERMS terms of
    the channel law, raises ConfigurationError.
    """
    for name, v in (("pair_rate", pair_rate), ("acquisition_time", acquisition_time)):
        if not np.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be finite and >= 0")
    if not np.isfinite(channel_width) or channel_width <= 0.0:
        raise ValueError("channel_width must be finite and > 0")
    if not np.isfinite(transmittance) or not (0.0 <= transmittance <= 1.0):
        raise ValueError("transmittance must be in [0, 1]")
    if len(curves) == 0 or len(curves) != len(seeds):
        raise ValueError("need one seed per curve, and at least one curve")
    tau = curves[0].tau_grid
    if any(not np.array_equal(g2.tau_grid, tau) for g2 in curves[1:]):
        raise ValueError("curves must share one tau grid")
    if any(float(np.sum(g2.g2)) <= 0.0 for g2 in curves):
        raise ValueError("g2 curve is identically zero; no density to sample")
    cell = _cell_width(tau)
    s = math.sqrt(2.0) * detectors.jitter_sigma
    if s > _MAX_SMEAR_CELLS * cell:
        raise ConfigurationError(
            f"jitter_sigma = {detectors.jitter_sigma:.3g} s: sqrt(2) jitter_sigma spans more "
            f"than the {_MAX_SMEAR_CELLS:.0f} g2 cells of {cell:.3g} s the channel law resolves")
    support = float(np.max(np.abs(tau))) + cell / 2.0
    if n_channels is None:
        half = int(np.ceil((support - channel_width / 2.0) / channel_width))
        n_channels = 2 * half + 1
    zero_offset_channel = n_channels // 2

    mean_pairs = mean_pair_total(detectors, pair_rate, acquisition_time, transmittance)
    # Channel j holds delays in [(j - zero - 1/2) w, (j - zero + 1/2) w).
    edges = (np.arange(n_channels + 1) - zero_offset_channel - 0.5) * channel_width
    cdfs = _smeared_cdf(edges, tau, np.stack([g2.g2 for g2 in curves]), cell, s)
    reach = support + _REACH * s
    in_reach = (np.append(-np.inf, edges) <= reach) & (np.append(edges, np.inf) > -reach)
    histograms = []
    for cdf, seed in zip(cdfs, seeds):
        share = np.diff(cdf, prepend=0.0, append=1.0)
        floored = in_reach & (share < _FLOOR)
        share = np.where(in_reach, np.maximum(share, _FLOOR), 0.0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_HISTOGRAM]))
        pairs = rng.poisson(mean_pairs * share).astype(np.int64)
        background = rng.poisson(
            detectors.dark_background_rate * acquisition_time, size=n_channels
        ).astype(np.int64)
        histograms.append(Histogram(
            channel_width=channel_width,
            counts=pairs[1:-1] + background,
            underflow=int(pairs[0]),
            overflow=int(pairs[-1]),
            n_pairs=int(np.sum(pairs)),
            n_background=int(np.sum(background)),
            signal_support=support,
            in_reach_channels=int(np.count_nonzero(in_reach[1:-1])),
            floored_channels=int(np.count_nonzero(floored[1:-1])),
        ))
    return histograms


def simulate_histogram(
    g2: CorrelationResult,
    detectors: DetectorParams,
    pair_rate: float,
    acquisition_time: float,
    channel_width: float,
    seed: int,
    n_channels: int | None = None,
    transmittance: float = 1.0,
) -> Histogram:
    """Simulate one start-stop acquisition against a g2 curve (see ``simulate_histograms``)."""
    return simulate_histograms([g2], detectors, pair_rate, acquisition_time, channel_width,
                               [seed], n_channels, transmittance)[0]


@dataclass(frozen=True)
class VisibilityEstimate:
    """Background-subtracted visibility with propagated Poisson uncertainty."""

    value: float
    sigma: float
    background_channels: int  # per arm; 0 means no background was subtracted


def estimate_visibility(
    plus: Histogram, minus: Histogram, window: PostSelectionWindow
) -> VisibilityEstimate:
    """Visibility of two measured histograms over a coincidence window.

    The flat background level is estimated per histogram from channels more
    than three signal supports away from zero delay and subtracted; with no
    channel that far out nothing is subtracted (``background_channels`` 0).
    A ratio of counts only, so jointly rescaling both acquisition times
    changes nothing.  Returns nan (with nan sigma) when the subtracted signal
    sums to zero or less.
    """
    if plus.channel_width != minus.channel_width or len(plus.counts) != len(minus.counts):
        raise ValueError("histograms have mismatched channel geometry")
    centers = plus.tau_centers()  # the lattice both arms share
    in_window = np.abs(centers - window.center) <= window.half_width
    bg_mask = np.abs(centers) > 3.0 * max(plus.signal_support, minus.signal_support)
    n_win, n_bg = int(np.count_nonzero(in_window)), int(np.count_nonzero(bg_mask))
    if n_win == 0:
        raise ConfigurationError("window covers no histogram channels")
    counts = np.stack([plus.counts, minus.counts])
    bg_per_channel = np.sum(counts[:, bg_mask], axis=1) / max(n_bg, 1)  # exact integer sums
    raw = np.sum(counts[:, in_window], axis=1)
    s_p, s_m = (raw - n_win * bg_per_channel).tolist()
    var_p, var_m = (raw + n_win**2 * (bg_per_channel / max(n_bg, 1))).tolist()
    total = s_p + s_m
    if total <= 0.0:
        value = sigma = float("nan")
    else:
        value = (s_p - s_m) / total
        sigma = 2.0 / total**2 * np.sqrt(s_m**2 * var_p + s_p**2 * var_m)
    return VisibilityEstimate(value=float(value), sigma=float(sigma), background_channels=n_bg)


def drift_timeseries(
    scenario: str, drift: DriftProcess, sample_times
) -> np.ndarray:
    """Zero-delay visibility versus time under polarization drift.

    scenario 'single' applies the drifting fiber unitary directly;
    'go_and_return' applies the Faraday-mirror round trip built from the
    same unitary.  Returns a float array of shape (T, 2): column 0 holds the
    sample times, column 1 the visibility at each (see ``channel_visibility``).
    """
    if scenario not in ("single", "go_and_return"):
        raise ValueError(f"unknown scenario {scenario!r}")
    times = np.asarray(sample_times, dtype=float)
    u = drift_operators(drift, times)
    if scenario == "go_and_return":
        u = round_trip(u)
    return np.column_stack([times, channel_visibility(u)])


def channel_visibility(ops: np.ndarray) -> np.ndarray:
    """Zero-delay psi+ visibility through each channel operator of a (T, 2, 2) stack.

    Both photons pass the operator; the visibility (G++ - G+-) / (G++ + G+-)
    compares the +45/+45 and +45/-45 analyzer settings.  Returns shape (T,).
    """
    (a, b), (c, d) = np.moveaxis(ops, (-2, -1), (0, 1))

    def bra_times_op(theta: float):
        # the (H, V) entries of <e_theta| op, one pair of arrays over the stack
        e_h, e_v = analyzer_vector(theta).conj()
        return e_h * a + e_v * c, e_h * b + e_v * d

    # <e_+, e_y| (op x op) |psi+> for the analyzer pairs y = +, -, with
    # psi+ = (HV + VH) / sqrt 2; the sqrt 2 drops out of the ratio.
    p_h, p_v = bra_times_op(np.pi / 4.0)
    g_plus, g_minus = (
        np.abs(p_h * y_v + p_v * y_h) ** 2
        for y_h, y_v in ((p_h, p_v), bra_times_op(-np.pi / 4.0))
    )
    return (g_plus - g_minus) / (g_plus + g_minus)
