"""The four benchmark workloads and the checks on their outputs.

Each workload is a packaged-default config plus command-line overrides that
push one scenario to the size where its cost grows.  The checks hold for any
correct implementation (physics identities and Poisson bands), not for the
bytes of one version, so a change that alters the random streams still
passes them.  A check raises ``CheckFailed``; otherwise it returns the work
counts of the call, read from the files the scenario wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def iteration_seeds(seed: int):
    """Per-call seeds spawned from the workload seed.

    Not consecutive integers: the CLI seeds a histogram's minus arm with
    seed + 1, so consecutive seeds would replay one call's minus arm as the
    next call's plus arm.
    """
    parent = np.random.SeedSequence(seed)
    while True:
        yield int(parent.spawn(1)[0].generate_state(1)[0])


class CheckFailed(Exception):
    """A scenario's output contradicts what any correct run must give."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_csv(path: Path, dtype=float) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Header metadata and columns of a CSV written by the scenarios.

    Not biphoton.csvio.read_csv: the checks stay independent of the code
    they check, and its per-cell parse takes seconds on the surface file.
    """
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        names = line.strip().split(",")
        table = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2)
    _require(table.shape[1] == len(names), f"{path.name}: {len(names)} names, "
             f"{table.shape[1]} columns")
    return meta, {name: table[:, j] for j, name in enumerate(names)}


def _counts(**known) -> dict[str, float | None]:
    counts = dict.fromkeys(
        ("walk_steps", "samples", "pairs", "rows", "csv_bytes", "grid_points"))
    counts.update(known)
    return counts


def _cfg(meta: dict[str, str], key: str) -> float:
    return float(meta[f"config.{key}"])


def check_drift(out: Path) -> dict:
    path = out / "drift_series.csv"
    meta, cols = read_csv(path)
    duration = _cfg(meta, "drift_series.duration_s")
    interval = _cfg(meta, "drift_series.sample_interval_s")
    time_step = _cfg(meta, "drift.time_step_s")
    times = cols["t_s"]
    expected = len(np.arange(0.0, duration + interval / 2.0, interval))
    _require(len(times) == expected, f"{len(times)} samples, expected {expected}")
    residual = float(np.max(np.abs(cols["visibility_go_and_return"] - 1.0)))
    _require(residual <= 1e-12, f"go-and-return visibility off 1 by {residual:.3g}")
    span = float(np.ptp(cols["visibility_single_pass"]))
    _require(span > 1.0, f"single-pass visibility spans only {span:.3f}")
    steps = int(np.max(np.floor(times / time_step)))
    return _counts(walk_steps=2 * steps, samples=len(times), rows=len(times),
                   csv_bytes=path.stat().st_size)


# Allowance for the gap between the analytic far-field curve the window
# check integrates and the numeric curve the scenario samples: 0.04 % on
# the plus arm and 1.4 % on the minus arm at the histogram-heavy size.
CURVE_ALLOWANCE = 0.03
_erf = np.frompyfunc(math.erf, 1, 1)


def _tau_f(meta: dict[str, str]) -> float:
    """Time scale 2 k2 z / tau0 of the dispersed correlation pattern."""
    tau0 = _cfg(meta, "crystal.gvm_s_per_m") * _cfg(meta, "crystal.crystal_length_m") / 2.0
    passes = 2.0 if meta["config.fiber.passes"] == "go_and_return" else 1.0
    return (2.0 * _cfg(meta, "fiber.k2_s2_per_m") * _cfg(meta, "fiber.geometric_length_m")
            * passes / tau0)


def _window_fraction(meta: dict[str, str], arm: str, lo: float, hi: float) -> float:
    """Share of an arm's pairs that land in [lo, hi) of detection-time difference.

    The density is the analytic far-field g2 at zero plate retardance
    (plus: sinc^2 t cos^2 t, minus: sinc^2 t sin^2 t, t = tau / tau_f) over
    the signal support, smeared by both detectors' Gaussian jitter.
    """
    support = float(meta["signal_support_s"])
    tau = np.linspace(-support, support, 20001)
    t = tau / _tau_f(meta)
    rho = np.sinc(t / np.pi) ** 2 * (np.cos(t) if arm == "plus" else np.sin(t)) ** 2
    # A pair's delay gets one detector's jitter added and the other's taken
    # off, so it spreads with sigma sqrt(2) * jitter; erf wants sqrt(2) sigma.
    scale = 2.0 * _cfg(meta, "detector.jitter_sigma_s")
    if scale > 0.0:
        inside = 0.5 * (_erf((hi - tau) / scale) - _erf((lo - tau) / scale)).astype(float)
    else:
        inside = ((tau >= lo) & (tau < hi)).astype(float)
    return float(np.trapezoid(rho * inside, tau) / np.trapezoid(rho, tau))


def check_histogram(out: Path) -> dict:
    """Per arm: the total counts, and the counts in the visibility window,
    lie in a Poisson band of their means, and the signal is centred on the
    zero channel.  The window test fails a histogram that leaves out the
    jitter (plus arm +5.3 %); the centroid test fails one shifted by a
    channel (+0.98 channel)."""
    pairs, rows, size = 0.0, 0, 0
    for arm in ("plus", "minus"):
        path = out / f"histogram_{arm}.csv"
        meta, cols = read_csv(path)
        _require(float(meta["config.plate.delta_rad"]) == 0.0,
                 "the window check assumes zero plate retardance")
        t = _cfg(meta, "histogram.acquisition_time_s")
        signal = (_cfg(meta, "histogram.pair_rate_hz") * t
                  * float(meta["derived.transmittance_single_photon"]) ** 2
                  * _cfg(meta, "detector.efficiency_1") * _cfg(meta, "detector.efficiency_2")
                  / 2.0)
        counts = cols["counts"]
        dark = _cfg(meta, "detector.dark_rate_per_channel_hz") * t
        mean = signal + dark * len(counts)
        z = (float(np.sum(counts)) - mean) / math.sqrt(mean)
        _require(abs(z) <= 6.0, f"{arm} arm total is {z:+.2f} sigma off its Poisson mean")

        width = float(meta["channel_width_s"])
        centres = cols["tau_center_s"]
        window = np.abs(centres) <= _cfg(meta, "histogram.visibility_half_width_s")
        lo, hi = centres[window].min() - width / 2.0, centres[window].max() + width / 2.0
        expected = signal * _window_fraction(meta, arm, lo, hi) + dark * np.count_nonzero(window)
        off = float(np.sum(counts[window])) - expected
        _require(abs(off) <= 6.0 * math.sqrt(expected) + CURVE_ALLOWANCE * expected,
                 f"{arm} arm window counts are {off / expected:+.2%} off their mean "
                 f"{expected:.0f}")

        # Centroid of the background-subtracted counts within 3 tau_f of zero
        # delay, where the flat background adds little noise.
        near = np.abs(centres) <= 3.0 * _tau_f(meta)
        excess = counts[near] - dark
        centroid = float(np.sum(excess * centres[near]) / np.sum(excess)) / width
        _require(abs(centroid) <= 0.1, f"{arm} arm centred {centroid:+.3f} channels off zero")
        pairs += signal
        rows += len(counts)
        size += path.stat().st_size
    return _counts(pairs=pairs, rows=rows, csv_bytes=size,
                   grid_points=int(_cfg(meta, "grid.n")))


def check_surface(out: Path) -> dict:
    path = out / "plate_surface.csv"
    meta, cols = read_csv(path)
    n_alpha = int(_cfg(meta, "surface.n_alpha"))
    expected = int(_cfg(meta, "surface.n_delta")) * n_alpha * int(_cfg(meta, "surface.n_tau"))
    rows = len(cols["tau_s"])
    _require(rows == expected, f"{rows} rows, expected {expected}")
    tau = cols["tau_s"]
    # Half-wave plate at zero delay: visibility (G+ - G-)/(G+ + G-) = cos 8a.
    sel = (np.abs(cols["delta_rad"] - np.pi / 2.0) <= 1e-12) & (
        np.abs(tau) <= 1e-9 * np.max(np.abs(tau)))
    _require(int(np.count_nonzero(sel)) == n_alpha,
             f"{int(np.count_nonzero(sel))} half-wave zero-delay rows, expected {n_alpha}")
    plus, minus = cols["g2_plus"][sel], cols["g2_minus"][sel]
    vis = (plus - minus) / (plus + minus)
    residual = float(np.max(np.abs(vis - np.cos(8.0 * cols["alpha_rad"][sel]))))
    _require(residual <= 1e-9, f"half-wave visibility off cos 8a by {residual:.3g}")
    return _counts(rows=rows, csv_bytes=path.stat().st_size)


def check_bell(out: Path) -> dict:
    path = out / "bell_postselect.csv"
    meta, cols = read_csv(path, dtype=str)
    rows = dict(zip(cols["target"], range(len(cols["target"]))))
    _require(set(rows) == {"psi_plus", "psi_minus"}, f"targets {sorted(rows)}")
    for target in rows:
        fidelity = float(cols[f"{target}_fidelity"][rows[target]])
        _require(fidelity >= 0.99, f"{target} fidelity {fidelity:.4f} in its window")
    return _counts(rows=len(rows), csv_bytes=path.stat().st_size,
                   grid_points=int(_cfg(meta, "grid.n")))


def interpreter_work() -> int:
    """Fixed work in the interpreter: float repr and join, like the CSV writer."""
    return len(",".join(repr(i * 0.1) for i in range(20_000)))


def small_array_work() -> complex:
    """Fixed small-array work in a Python loop: build a 2x2 complex step and
    multiply it on, like the drift walk and the round trips."""
    u = np.eye(2, dtype=complex)
    for j in range(2_000):
        c, s = math.cos(j * 1e-3), math.sin(j * 1e-3)
        u = np.array([[c - 1j * s, -1j * s], [-1j * s, c + 1j * s]]) @ u
    return complex(u[0, 0])


def array_work() -> float:
    """Fixed work on a large array: build, transform and reduce 2^20 complex
    points, like the state layer and the histogram sampler."""
    x = np.exp(2j * np.pi * np.arange(1 << 20) / 7.0)
    return float(np.abs(np.fft.fft(x)).sum())


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    check: Callable[[Path], dict]
    # The work count that throughput is measured in.
    work_item: str
    # Fixed work of the same kind as the workload's main layer; the timed
    # metrics are call times in units of its time (see run.py).
    reference: Callable[[], object]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("drift-long",
                 ("drift-series", "--drift.time_step_s=0.36", "--drift_series.duration_s=12000",
                  "--drift_series.sample_interval_s=2"),
                 check_drift, "walk_steps", small_array_work),
        Workload("histogram-heavy",
                 ("histogram", "--histogram.acquisition_time_s=100000"),
                 check_histogram, "pairs", array_work),
        Workload("surface-csv",
                 ("plate-surface", "--surface.n_delta=41", "--surface.n_alpha=40",
                  "--surface.n_tau=51"),
                 check_surface, "rows", interpreter_work),
        Workload("bell-fine-grid",
                 ("bell-postselect", "--grid.n=2097152"),
                 check_bell, "grid_points", array_work),
    )
}
