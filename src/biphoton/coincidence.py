"""Monte Carlo of a start-stop coincidence measurement.

Events are pairs whose detection-time difference is drawn from a g2 curve,
smeared by the Gaussian time response of both detectors and binned into
multichannel-analyzer channels; a flat accidental background is added per
channel.  Negative differences land below the zero-delay channel, exactly as
a time-to-amplitude converter with a fixed start detector records them.

Reproducibility: the master seed is split into independent substreams with
numpy SeedSequence spawn keys [seed, 0] (pair total), [seed, 1, batch]
(event batches of fixed size), and [seed, 2] (background), so the result is
byte-identical for a given seed no matter how the batches are executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlation import CorrelationResult, PostSelectionWindow
from .csvio import write_csv
from .errors import DegenerateInputError, EmptyWindowError
from .fiber import DriftProcess, drift_operators
from .jones import analyzer_vector
from .state import BellTarget

_BATCH_SIZE = 1 << 18


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
    """Channel counts of one acquisition, with full provenance for the CSV."""

    channel_width: float
    n_channels: int
    counts: np.ndarray = field(repr=False)
    acquisition_time: float
    seed: int
    zero_offset_channel: int
    underflow: int = 0
    overflow: int = 0
    n_pairs: int = 0
    n_background: int = 0
    signal_support: float = 0.0
    detectors: DetectorParams = DetectorParams()
    pair_rate: float = 0.0
    transmittance: float = 1.0

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.n_channels,):
            raise ValueError("counts length must equal n_channels")
        if not (0 <= self.zero_offset_channel < self.n_channels):
            raise ValueError("zero_offset_channel out of range")

    def tau_centers(self) -> np.ndarray:
        idx = np.arange(self.n_channels)
        return (idx - self.zero_offset_channel) * self.channel_width

    def to_csv(self, path, metadata: dict | None = None) -> None:
        meta = {
            "seed": self.seed,
            "channel_width_s": self.channel_width,
            "n_channels": self.n_channels,
            "zero_offset_channel": self.zero_offset_channel,
            "acquisition_time_s": self.acquisition_time,
            "pair_rate_hz": self.pair_rate,
            "transmittance": self.transmittance,
            "jitter_sigma_s": self.detectors.jitter_sigma,
            "efficiency_1": self.detectors.efficiency_1,
            "efficiency_2": self.detectors.efficiency_2,
            "dark_background_rate_hz": self.detectors.dark_background_rate,
            "n_pairs": self.n_pairs,
            "n_background": self.n_background,
            "underflow": self.underflow,
            "overflow": self.overflow,
            "signal_support_s": self.signal_support,
        }
        if metadata:
            meta.update(metadata)
        write_csv(
            path,
            {
                "channel_index": np.arange(self.n_channels),
                "tau_center_s": self.tau_centers(),
                "counts": self.counts,
            },
            meta,
        )


def _cell_width(tau_grid: np.ndarray) -> float:
    steps = np.diff(tau_grid)
    if len(steps) == 0:
        raise ValueError("g2 grid needs at least two points")
    if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
        raise ValueError("g2 grid must be uniform")
    return float(np.mean(steps))


def simulate_histogram(
    g2: CorrelationResult,
    detectors: DetectorParams,
    pair_rate: float,
    acquisition_time: float,
    channel_width: float,
    seed: int,
    n_channels: int | None = None,
    zero_offset_channel: int | None = None,
    transmittance: float = 1.0,
) -> Histogram:
    """Simulate one start-stop acquisition against a g2 curve.

    The curve is treated as a piecewise-constant density over cells centered
    on its grid points.  The pair total is Poisson with mean
    pair_rate * acquisition_time * transmittance * eff1 * eff2 / 2 (the
    factor 2 is the beam-splitter post-selection); every drawn pair lands in
    a channel, an underflow bin or an overflow bin, so counts are conserved.
    """
    for name, v in (("pair_rate", pair_rate), ("acquisition_time", acquisition_time)):
        if not np.isfinite(v) or v < 0.0:
            raise ValueError(f"{name} must be finite and >= 0")
    if not np.isfinite(channel_width) or channel_width <= 0.0:
        raise ValueError("channel_width must be finite and > 0")
    if not np.isfinite(transmittance) or not (0.0 <= transmittance <= 1.0):
        raise ValueError("transmittance must be in [0, 1]")
    total_weight = float(np.sum(g2.g2))
    if total_weight <= 0.0:
        raise DegenerateInputError("g2 curve is identically zero; no density to sample")
    density = g2.g2 / total_weight
    cell = _cell_width(g2.tau_grid)
    support = float(np.max(np.abs(g2.tau_grid))) + cell / 2.0
    if n_channels is None:
        half = int(np.ceil((support - channel_width / 2.0) / channel_width))
        n_channels = 2 * half + 1
    if zero_offset_channel is None:
        zero_offset_channel = n_channels // 2

    mean_pairs = (
        pair_rate
        * acquisition_time
        * transmittance
        * detectors.efficiency_1
        * detectors.efficiency_2
        / 2.0
    )
    rng_total = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    n_pairs = int(rng_total.poisson(mean_pairs))

    counts = np.zeros(n_channels, dtype=np.int64)
    underflow = 0
    overflow = 0
    for batch, start in enumerate(range(0, n_pairs, _BATCH_SIZE)):
        size = min(_BATCH_SIZE, n_pairs - start)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, batch]))
        idx = rng.choice(len(density), size=size, p=density)
        tau = g2.tau_grid[idx] + rng.uniform(-cell / 2.0, cell / 2.0, size=size)
        tau = tau + rng.normal(0.0, detectors.jitter_sigma, size=size)
        tau = tau - rng.normal(0.0, detectors.jitter_sigma, size=size)
        ch = np.floor(tau / channel_width + 0.5).astype(np.int64) + zero_offset_channel
        underflow += int(np.count_nonzero(ch < 0))
        overflow += int(np.count_nonzero(ch >= n_channels))
        keep = (ch >= 0) & (ch < n_channels)
        counts += np.bincount(ch[keep], minlength=n_channels)

    rng_bg = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    background = rng_bg.poisson(
        detectors.dark_background_rate * acquisition_time, size=n_channels
    ).astype(np.int64)
    counts += background

    return Histogram(
        channel_width=channel_width,
        n_channels=n_channels,
        counts=counts,
        acquisition_time=acquisition_time,
        seed=seed,
        zero_offset_channel=zero_offset_channel,
        underflow=underflow,
        overflow=overflow,
        n_pairs=n_pairs,
        n_background=int(np.sum(background)),
        signal_support=support,
        detectors=detectors,
        pair_rate=pair_rate,
        transmittance=transmittance,
    )


@dataclass(frozen=True)
class VisibilityEstimate:
    """Background-subtracted visibility with propagated Poisson uncertainty."""

    value: float
    sigma: float
    s_plus: float
    s_minus: float
    background_plus: float
    background_minus: float
    background_channels: int  # per arm; 0 means no background was subtracted


def _window_sums(hist: Histogram, window: PostSelectionWindow, support: float):
    centers = hist.tau_centers()
    in_window = np.abs(centers - window.center) <= window.half_width
    n_win = int(np.count_nonzero(in_window))
    if n_win == 0:
        raise EmptyWindowError("window covers no histogram channels")
    bg_mask = np.abs(centers) > 3.0 * support
    n_bg = int(np.count_nonzero(bg_mask))
    bg_per_channel = float(np.mean(hist.counts[bg_mask])) if n_bg else 0.0
    raw = float(np.sum(hist.counts[in_window]))
    s = raw - n_win * bg_per_channel
    var = raw + (n_win**2) * (bg_per_channel / n_bg if n_bg else 0.0)
    return s, var, bg_per_channel, n_bg


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
    same = (
        plus.channel_width == minus.channel_width
        and plus.n_channels == minus.n_channels
        and plus.zero_offset_channel == minus.zero_offset_channel
    )
    if not same:
        raise ValueError("histograms have mismatched channel geometry")
    support = max(plus.signal_support, minus.signal_support)
    s_p, var_p, bg_p, n_bg = _window_sums(plus, window, support)
    s_m, var_m, bg_m, _ = _window_sums(minus, window, support)
    total = s_p + s_m
    if total <= 0.0:
        return VisibilityEstimate(
            value=float("nan"),
            sigma=float("nan"),
            s_plus=s_p,
            s_minus=s_m,
            background_plus=bg_p,
            background_minus=bg_m,
            background_channels=n_bg,
        )
    value = (s_p - s_m) / total
    sigma = 2.0 / total**2 * np.sqrt(s_m**2 * var_p + s_p**2 * var_m)
    return VisibilityEstimate(
        value=float(value),
        sigma=float(sigma),
        s_plus=s_p,
        s_minus=s_m,
        background_plus=bg_p,
        background_minus=bg_m,
        background_channels=n_bg,
    )


def drift_timeseries(
    scenario: str, drift: DriftProcess, sample_times
) -> np.ndarray:
    """Zero-delay visibility versus time under polarization drift.

    scenario 'single' applies the drifting fiber unitary directly;
    'go_and_return' applies the Faraday-mirror round trip built from the
    same unitary.  Returns an array of rows (t, visibility).
    """
    times = np.asarray(sample_times, dtype=float)
    ops = drift_operators(drift, times, scenario)
    # Amplitudes <e_+, e_y| (op x op) |psi+> for the analyzer pairs y = +, -.
    e_p = analyzer_vector(np.pi / 4.0).conj()
    e_y = np.stack([e_p, analyzer_vector(-np.pi / 4.0).conj()])
    amp = np.einsum(
        "a,tac,cd,yb,tbd->ty", e_p, ops, BellTarget.psi_plus().amplitude, e_y, ops, optimize=True
    )
    g_plus, g_minus = (np.abs(amp) ** 2).T
    return np.column_stack([times, (g_plus - g_minus) / (g_plus + g_minus)])
