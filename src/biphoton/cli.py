"""Command line front end.

    biphoton SCENARIO [CONFIG] [--section.key=value ...]

Scenarios: g2-curves, plate-surface, bell-postselect, drift-series,
histogram.  CONFIG is a UTF-8 text file (a byte-order mark is allowed) of
``[section]`` headers and ``key = value`` lines; a '#' at the start of a
line or after whitespace starts a comment.  The packaged default is used
when CONFIG is omitted.  Values can be overridden on the command line with
``--section.key=value``, each key once.  The file and the command line are
a run's only inputs.  A scenario returns its CSV tables, whose headers hold
its own lines only, and its report lines; it prints and writes nothing.
``main`` puts the run's one record first in every header: the fully
resolved configuration (``config.*``) and the quantities derived from it
(``derived.*``), so a result file is reproducible from its own header.  It
then creates ``sim.output_dir``, writes every file in one ``write_csvs``
call and only then prints the report lines and the paths.  Exit codes: 0
success, 2 configuration problem (any ConfigurationError, also one the
library raises inside a scenario), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .coincidence import (
    DetectorParams,
    channel_visibility,
    estimate_visibility,
    mean_pair_total,
    simulate_histograms,
)
from .correlation import (
    PLUS_MINUS,
    PLUS_PLUS,
    PostSelectionWindow,
    chirp_edge_step,
    g2_analytic,
    g2_numeric,
    postselect,
    require_far_field,
)
from .csvio import write_csvs
from .errors import ConfigurationError
from .fiber import DriftProcess, FiberChannel, drift_operators, tau_f, transmittance
from .jones import RetarderSpec, retarder, round_trip, unitarity_residual
from .state import MAX_SPECTRAL_SAMPLES, CrystalParams, FrequencyGrid, apply_local, pdc_state


@dataclass(frozen=True)
class _Entry:
    value: str
    where: str  # "file:line" or "command line"


# (file name, columns, header) of one CSV a scenario returns; main writes it under
# sim.output_dir, the run record first in its header.
Table = tuple[str, dict[str, object], dict[str, object]]
# A scenario's tables and the report lines main prints once they are written.
Result = tuple[list[Table], list[str]]

_OVERRIDE_RE = re.compile(r"--([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)=(.*)")

# section -> key -> (type, constraint).  The type is float, int, str or a tuple
# of the allowed strings; a number must then satisfy the constraint, which is
# also the text of its message ("" for any value).
_SCHEMA: dict[str, dict[str, tuple[object, str]]] = {
    "crystal": {
        "pump_wavelength_m": (float, "> 0"),
        "gvm_s_per_m": (float, "> 0"),
        "crystal_length_m": (float, "> 0"),
    },
    "fiber": {
        "k2_s2_per_m": (float, ""),
        "geometric_length_m": (float, "> 0"),
        "passes": (("single", "go_and_return"), ""),
        "loss_db_per_km": (float, ">= 0"),
    },
    "drift": {
        "correlation_time_s": (float, "> 0"),
        "step_angle_scale_rad": (float, ">= 0"),
        "time_step_s": (float, "> 0"),
    },
    "plate": {
        "delta_rad": (float, ""),
        "alpha_rad": (float, ""),
    },
    "grid": {
        "n": (int, "> 0"),
        "half_range_lobes": (int, "> 0"),
    },
    "detector": {
        "jitter_sigma_s": (float, ">= 0"),
        "efficiency_1": (float, "in [0, 1]"),
        "efficiency_2": (float, "in [0, 1]"),
        "dark_rate_per_channel_hz": (float, ">= 0"),
    },
    "histogram": {
        "pair_rate_hz": (float, ">= 0"),
        "acquisition_time_s": (float, "> 0"),
        "channel_width_s": (float, "> 0"),
        "n_channels": (int, "> 0"),
        "visibility_half_width_s": (float, "> 0"),
    },
    "postselect": {
        "half_width_s": (float, "> 0"),
    },
    "drift_series": {
        "duration_s": (float, "> 0"),
        "sample_interval_s": (float, "> 0"),
    },
    "surface": {
        "n_delta": (int, "> 0"),
        "n_alpha": (int, "> 0"),
        "n_tau": (int, "> 0"),
        "tau_half_range_lobes": (int, "> 0"),
    },
    "sim": {
        "seed": (int, ">= 0"),
        "output_dir": (str, ""),
    },
}


def _parse_text(text: str, source: str) -> dict[tuple[str, str], _Entry]:
    """``(section, key) -> entry`` of a config file; an unknown section fails at its header."""
    entries: dict[tuple[str, str], _Entry] = {}
    sections: set[str] = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigurationError(f"{where}: unknown section [{section}]")
            if section in sections:
                raise ConfigurationError(f"{where}: duplicate section [{section}]")
            sections.add(section)
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigurationError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigurationError(f"{where}: key {key!r} appears before any [section]")
        if (section, key) in entries:
            raise ConfigurationError(f"{where}: duplicate key {section}.{key}")
        entries[section, key] = _Entry(value.strip(), where)
    return entries


def _convert(section: str, key: str, entry: _Entry):
    kind, constraint = _SCHEMA[section][key]
    prefix, text = f"{entry.where}: {section}.{key}", entry.value
    if isinstance(kind, tuple):
        if text not in kind:
            raise ConfigurationError(f"{prefix}: must be one of {list(kind)}, got {text!r}")
        return text
    try:
        value = kind(text)
    except ValueError:
        what = "not an integer" if kind is int else "not a number"
        raise ConfigurationError(f"{prefix}: {what}: {text!r}") from None
    if kind is float and not np.isfinite(value):
        raise ConfigurationError(f"{prefix}: must be finite")
    if not (constraint == ""
            or constraint == "> 0" and value > 0
            or constraint == ">= 0" and value >= 0
            or constraint == "in [0, 1]" and 0.0 <= value <= 1.0):
        raise ConfigurationError(f"{prefix}: must be {constraint}")
    return value


@dataclass
class ScenarioConfig:
    crystal: CrystalParams
    fiber: FiberChannel
    drift: DriftProcess
    grid: FrequencyGrid
    plate: RetarderSpec
    detectors: DetectorParams
    values: dict[str, object]  # "section.key" -> typed value, fully resolved

    def __getitem__(self, dotted: str):
        return self.values[dotted]

    def metadata(self, scenario: str) -> dict[str, object]:
        meta: dict[str, object] = {"scenario": scenario}
        for dotted in sorted(self.values):
            meta[f"config.{dotted}"] = self.values[dotted]
        meta["derived.tau0_s"] = self.crystal.tau0
        meta["derived.tau_f_s"] = tau_f(self.fiber, self.crystal)
        meta["derived.omega_max_rad_per_s"] = self.grid.omega_max
        meta["derived.transmittance_single_photon"] = transmittance(self.fiber)
        return meta


def _load_config(
    config_path: str | None, overrides: dict[tuple[str, str], _Entry]
) -> ScenarioConfig:
    if config_path is None:
        text = resources.files("biphoton").joinpath("data/default.cfg").read_text("utf-8")
        source = "<packaged default>"
    else:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigurationError(f"config file not found or not a regular file: {config_path}")
        try:
            text = path.read_text("utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read {config_path}: {exc}") from exc
        source = str(path)
    entries = _parse_text(text, source)
    entries.update(overrides)  # the command line beats the file
    for (section, key), entry in entries.items():
        if key not in _SCHEMA.get(section, ()):
            raise ConfigurationError(f"{entry.where}: unknown key {section}.{key}")
    values: dict[str, object] = {}
    for section, keys in _SCHEMA.items():
        for key in keys:
            entry = entries.get((section, key))
            if entry is None:
                raise ConfigurationError(f"{source}: missing required key {section}.{key}")
            values[f"{section}.{key}"] = _convert(section, key, entry)

    try:
        crystal = CrystalParams(
            pump_wavelength=values["crystal.pump_wavelength_m"],
            gvm=values["crystal.gvm_s_per_m"],
            length=values["crystal.crystal_length_m"],
        )
        with _config_keys("drift.correlation_time_s, drift.step_angle_scale_rad, "
                          "drift.time_step_s"):
            drift = DriftProcess(
                correlation_time=values["drift.correlation_time_s"],
                step_angle_scale=values["drift.step_angle_scale_rad"],
                seed=values["sim.seed"],
                time_step=values["drift.time_step_s"],
            )
        fiber = FiberChannel(
            k2=values["fiber.k2_s2_per_m"],
            geometric_length=values["fiber.geometric_length_m"],
            passes=values["fiber.passes"],
            loss_db_per_km=values["fiber.loss_db_per_km"],
        )
        with _config_keys("grid.n"):  # only the check of n raises a ConfigurationError
            grid = FrequencyGrid(
                n=values["grid.n"],
                omega_max=values["grid.half_range_lobes"] * np.pi / crystal.tau0,
            )
        plate = RetarderSpec(values["plate.delta_rad"], values["plate.alpha_rad"])
        detectors = DetectorParams(
            jitter_sigma=values["detector.jitter_sigma_s"],
            efficiency_1=values["detector.efficiency_1"],
            efficiency_2=values["detector.efficiency_2"],
            dark_background_rate=values["detector.dark_rate_per_channel_hz"],
        )
    except (ValueError, ArithmeticError) as exc:  # ConfigurationError is a ValueError
        raise ConfigurationError(str(exc)) from exc
    return ScenarioConfig(crystal, fiber, drift, grid, plate, detectors, values)


def _say(text: str) -> None:
    """Print one line; a reader that closed stdout early stops nothing."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Send later lines and the flush at exit to devnull, quietly.
        with contextlib.suppress(OSError):  # also io.UnsupportedOperation: no descriptor
            stdout_fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)


def _require_dispersion(cfg: ScenarioConfig) -> float:
    scale = tau_f(cfg.fiber, cfg.crystal)
    if scale <= 0.0:
        raise ConfigurationError(
            "fiber.k2_s2_per_m must be nonzero (and positive) for this scenario")
    edge = 2.0 * cfg.fiber.k2 * cfg.fiber.z * cfg.grid.omega_max
    if not np.isfinite(2.0 * edge):  # the edge is at least pi * tau_f, the tau span twice that
        raise ConfigurationError(
            f"fiber.k2_s2_per_m * fiber.geometric_length_m overflows the tau axis: "
            f"tau_f = {scale:.3g} s, tau span 4 k2 z omega_max = {2.0 * edge:.3g} s"
        )
    return scale


# Work bounds of one run, checked before anything is allocated.  Measured tracemalloc peaks of
# whole runs: a grid point takes about 161 bytes in g2-curves at 2^20 points and 140 in
# histogram at 2^16, so state.MAX_SPECTRAL_SAMPLES = 2^22 points cost 0.55 to 0.65 GiB;
# bell-postselect, with no work per grid point, is not capped.  The CSV writer adds one text per
# distinct number of a 131,072-row chunk, about 80 bytes each: up to 60 MiB for g2-curves' six
# columns, which sets its peak below about 2^19 points.  The histogram's channel-law
# temporaries, about 0.8 MiB at any size, are set by coincidence._CHUNK.  The state's Gram
# integral takes 64 nodes per lobe of grid.half_range_lobes at any grid.n: 0.05 ms at the
# default 8 lobes, 0.39 s and 454 MiB at the 65,536-lobe cap (40,000 lobes: 0.23 s, 277 MiB),
# where bell-postselect's two (pdc_state's, and the plated state's that each window's norm and
# the header share) take 0.8 s of its 1.0 s.  A plate-surface row takes about 48 bytes on a
# cube lattice and up to 80 with a single plate (at 2^20 rows), whose g2 temporaries are as
# long as the columns, so 2^22 rows cost at most 0.33 GiB.  A histogram channel takes about
# 74 bytes, both arms' channel laws and shares being held at once, so 2^22 channels cost
# 0.29 GiB and set the peak from about 2^20 channels; below that the CSV writer's chunk texts
# do (13.4 MiB at 2^16), and at the default 4,096 the channel-law temporaries (0.9 MiB).  A
# walk step takes about 97 bytes (its draws and the blocked prefix scan; operators are built
# only at the samples), so 2^22 steps cost about 0.4 GiB; a drift-series row about 250 bytes
# (operators, round trips and the visibility's entry arrays), so 2^20 rows cost 0.25 GiB.
_MAX_SURFACE_ROWS = 1 << 22
_MAX_HISTOGRAM_CHANNELS = 1 << 22
_MAX_DRIFT_STEPS = 1 << 22
_MAX_DRIFT_ROWS = 1 << 20
# Expected pair and background totals of one histogram arm, each: numpy's
# Poisson sampler rejects a mean near 2^63, and channel counts and window sums
# add pairs to background in int64, so two totals of 2^61 stay far below 2^63.
_MAX_POISSON_TOTAL = 1 << 61


def _check_work(what: str, amount: float, unit: str, cap: int) -> None:
    """Exit 2 before a run whose ``amount`` of work is more than ``cap`` (or nan)."""
    if not amount <= cap:
        raise ConfigurationError(f"{what} = {amount:.3g} {unit}, more than {cap}")


@contextlib.contextmanager
def _config_keys(keys: str):
    """Prefix a ConfigurationError raised inside with the config keys (and values) behind it."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{keys}: {exc}") from exc


def _plate_state(cfg: ScenarioConfig):
    # past 65,536 lobes the state's Gram integral needs more than MAX_SPECTRAL_SAMPLES nodes
    with _config_keys(f"grid.half_range_lobes = {cfg['grid.half_range_lobes']}"):
        state = pdc_state(cfg.crystal, cfg.grid)
    return apply_local(state, retarder(cfg.plate.delta, cfg.plate.alpha))


def _plated_pair(cfg: ScenarioConfig):
    """The plated state and its ++ and +- g2_numeric results, the only work per grid point."""
    _check_work("grid.n", cfg.grid.n, "grid points", MAX_SPECTRAL_SAMPLES)
    state = _plate_state(cfg)
    with _config_keys("fiber.k2_s2_per_m, fiber.geometric_length_m, grid.n"):
        return state, *(g2_numeric(state, cfg.fiber, arms) for arms in (PLUS_PLUS, PLUS_MINUS))


def scenario_g2_curves(cfg: ScenarioConfig) -> Result:
    scale = _require_dispersion(cfg)
    state, plus, minus = _plated_pair(cfg)
    with _config_keys("crystal.gvm_s_per_m, crystal.crystal_length_m, fiber.k2_s2_per_m, "
                      "fiber.geometric_length_m"):
        ana_plus = g2_analytic(plus.tau_grid, scale, cfg.plate, "plus")
        ana_minus = g2_analytic(minus.tau_grid, scale, cfg.plate, "minus")
    num_peak = max(plus.g2.max(), minus.g2.max())
    ana_peak = max(ana_plus.max(), ana_minus.max())
    rows = state.rows_at(cfg.grid.omegas)  # the grid's sum of |amp|^2 dOmega misses 1 by:
    grid_gram = rows.conj() @ rows.T * cfg.grid.domega
    grid_norm = np.einsum("pi,ij,pj->", state.pol.conj(), grid_gram, state.pol).real
    header = {"normalization": "joint peak of the plus/minus pair",
              "diag.grid_norm_error": abs(float(grid_norm) - 1.0),
              "diag.chirp_edge_step_rad": chirp_edge_step(cfg.grid, cfg.fiber)}
    return [(f"g2_{name}.csv",
             {"tau_s": result.tau_grid, "g2_analytic": ana / ana_peak,
              "g2_numeric": result.g2 / num_peak},
             {**header, "arm": name})
            for name, result, ana in (("plus", plus, ana_plus), ("minus", minus, ana_minus))], []


def scenario_plate_surface(cfg: ScenarioConfig) -> Result:
    scale = _require_dispersion(cfg)
    n_d = cfg["surface.n_delta"]
    n_a = cfg["surface.n_alpha"]
    n_t = cfg["surface.n_tau"]
    lobes = cfg["surface.tau_half_range_lobes"]
    # linspace spans 2 lobes pi and the taus reach lobes pi tau_f; an int meets a float exactly
    if not lobes <= sys.float_info.max / (np.pi * max(2.0, scale)):
        raise ConfigurationError(f"surface.tau_half_range_lobes puts the tau range past the "
                                 f"float range (tau_f = {scale:.3g} s)")
    _check_work("surface.n_delta * surface.n_alpha * surface.n_tau", n_d * n_a * n_t, "rows",
                _MAX_SURFACE_ROWS)
    deltas = np.linspace(0.0, np.pi, n_d)[:, None, None]
    alphas = np.linspace(0.0, np.pi / 2.0, n_a, endpoint=False)[None, :, None]
    # The negative half mirrors the positive one and the middle sample of an odd
    # axis is +0.0, so tau_s is antisymmetric bit for bit: g2 is even in tau,
    # and both halves then write the same floats.
    t = np.linspace(-lobes * np.pi, lobes * np.pi, n_t)
    half = n_t // 2
    t[:half] = -t[::-1][:half]
    t[half : n_t - half] = 0.0
    taus = (t * scale)[None, None, :]
    # Rows run delta outer, alpha, then tau inner; the angle columns keep the
    # lattice values, the plate canonicalizes them (delta = pi acts as 0).
    # g2 broadcasts over the lattice; each cell's arithmetic is that of its plate alone.
    plate = RetarderSpec(deltas, alphas)
    shape = (n_d, n_a, n_t)
    return [(
        "plate_surface.csv",
        {
            "delta_rad": np.broadcast_to(deltas, shape).ravel(),
            "alpha_rad": np.broadcast_to(alphas, shape).ravel(),
            "tau_s": np.broadcast_to(taus, shape).ravel(),
            "g2_plus": g2_analytic(taus, scale, plate, "plus").ravel(),
            "g2_minus": g2_analytic(taus, scale, plate, "minus").ravel(),
        },
        {},
    )], []


def scenario_bell_postselect(cfg: ScenarioConfig) -> Result:
    scale = _require_dispersion(cfg)
    with _config_keys("fiber.k2_s2_per_m, fiber.geometric_length_m"):
        require_far_field(cfg.fiber, cfg.crystal)
    state = _plate_state(cfg)
    half_width = cfg["postselect.half_width_s"]
    windows = {name: PostSelectionWindow(center, half_width)
               for name, center in (("psi_plus", 0.0), ("psi_minus", np.pi * scale / 2.0))}
    results = {}
    for name, window in windows.items():
        with _config_keys(f"postselect.half_width_s = {half_width!r} s, {name} window"):
            results[name] = postselect(state, cfg.fiber, window)
    report = [f"{name}: window center {windows[name].center:.6g} s, "
              f"psi+ fidelity {res.psi_plus_fidelity:.6f}, "
              f"psi- fidelity {res.psi_minus_fidelity:.6f}" for name, res in results.items()]
    return [(
        "bell_postselect.csv",
        {
            "target": list(results),
            "window_center_s": [window.center for window in windows.values()],
            "window_half_width_s": [half_width] * len(windows),
            **{key: [getattr(res, key) for res in results.values()]
               for key in ("psi_plus_fidelity", "psi_minus_fidelity", "selected_fraction")},
        },
        {"diag.norm_residual": abs(state.norm() - 1.0)},
    )], report


def scenario_drift_series(cfg: ScenarioConfig) -> Result:
    duration = cfg["drift_series.duration_s"]
    interval = cfg["drift_series.sample_interval_s"]
    _check_work("drift_series.duration_s / drift_series.sample_interval_s", duration / interval,
                "rows", _MAX_DRIFT_ROWS)
    times = np.arange(0.0, duration + interval / 2.0, interval)
    # The walk runs to the last sample, which can lie up to half an interval past the duration.
    _check_work("last sample's step from drift_series.duration_s, drift_series.sample_interval_s"
                " and drift.time_step_s", np.floor(float(times[-1]) / cfg["drift.time_step_s"]),
                "walk steps", _MAX_DRIFT_STEPS)
    # One walk serves both layouts: the round trips are built from the one-way operators.
    u = drift_operators(cfg.drift, times)
    single = channel_visibility(u)
    both = channel_visibility(round_trip(u))
    report = [f"single pass: visibility range {np.ptp(single):.3f}; "
              f"go-and-return: std {np.std(both):.3e}"]
    return [(
        "drift_series.csv",
        {
            "t_s": times,
            "visibility_single_pass": single,
            "visibility_go_and_return": both,
        },
        {"diag.max_unitarity_residual": unitarity_residual(u)},
    )], report


def scenario_histogram(cfg: ScenarioConfig) -> Result:
    _require_dispersion(cfg)
    n_channels = cfg["histogram.n_channels"]
    _check_work("histogram.n_channels", n_channels, "channels", _MAX_HISTOGRAM_CHANNELS)
    channel_width = cfg["histogram.channel_width_s"]
    if not np.isfinite(n_channels * channel_width):  # the span of the channel edges
        raise ConfigurationError(f"histogram.channel_width_s = {channel_width:.3g} s times "
                                 f"histogram.n_channels = {n_channels} overflows the delay axis")
    det = cfg.detectors
    pair_rate = cfg["histogram.pair_rate_hz"]
    acquisition = cfg["histogram.acquisition_time_s"]
    pair_transmittance = transmittance(cfg.fiber) ** 2
    _check_work("expected pair total from histogram.pair_rate_hz",
                mean_pair_total(det, pair_rate, acquisition, pair_transmittance), "pairs",
                _MAX_POISSON_TOTAL)
    _check_work("expected background total from detector.dark_rate_per_channel_hz",
                det.dark_background_rate * acquisition * n_channels, "counts", _MAX_POISSON_TOTAL)
    _, plus, minus = _plated_pair(cfg)
    # Arm seeds from SeedSequence([seed, arm]): no arm replays another seed's arm.
    seeds = [int(np.random.SeedSequence([cfg["sim.seed"], arm]).generate_state(1, np.uint64)[0])
             for arm in (0, 1)]
    with _config_keys("detector.jitter_sigma_s, grid.n, histogram.channel_width_s, "
                      "histogram.n_channels"):
        hists = simulate_histograms([plus, minus], det, pair_rate, acquisition, channel_width,
                                    seeds, n_channels, pair_transmittance)
    window = PostSelectionWindow(0.0, cfg["histogram.visibility_half_width_s"])
    est = estimate_visibility(*hists, window)
    how = ("background subtracted" if est.background_channels
           else "background not subtracted: no channel beyond 3 signal supports")
    report = [f"visibility {est.value:.4f} +- {est.sigma:.4f} ({how})"]
    # Both arms hold the same axis arrays, so csvio formats them once per chunk.
    axes = {"channel_index": np.arange(n_channels), "tau_center_s": hists[0].tau_centers()}
    tables = []
    for name, seed, hist in zip(("plus", "minus"), seeds, hists):
        header = {
            "derived.pair_transmittance": pair_transmittance,
            "diag.background_channels": est.background_channels,
            "diag.chirp_edge_step_rad": chirp_edge_step(cfg.grid, cfg.fiber),
            "seed": seed, "channel_width_s": channel_width,
            "zero_offset_channel": hist.zero_offset_channel, "n_pairs": hist.n_pairs,
            "n_background": hist.n_background, "underflow": hist.underflow,
            "overflow": hist.overflow, "signal_support_s": hist.signal_support,
            "diag.in_reach_channels": hist.in_reach_channels,
            "diag.floored_channels": hist.floored_channels, "arm": name,
        }
        tables.append((f"histogram_{name}.csv", {**axes, "counts": hist.counts}, header))
    return tables, report


SCENARIOS = {
    "g2-curves": scenario_g2_curves,
    "plate-surface": scenario_plate_surface,
    "bell-postselect": scenario_bell_postselect,
    "drift-series": scenario_drift_series,
    "histogram": scenario_histogram,
}


def _parse_overrides(extra: list[str]) -> dict[tuple[str, str], _Entry]:
    overrides: dict[tuple[str, str], _Entry] = {}
    for arg in extra:
        m = _OVERRIDE_RE.fullmatch(arg)
        if not m:
            raise ConfigurationError(
                f"unrecognized argument {arg!r} (overrides look like --section.key=value)")
        sec, key, value = m.groups()
        if (sec, key) in overrides:
            raise ConfigurationError(f"command line: duplicate key {sec}.{key}")
        overrides[(sec, key)] = _Entry(value, "command line")
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Entangled photon pairs in dispersive fiber: correlation "
        "curves, Bell-state post-selection, drift, and coincidence histograms.",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS), help="what to compute")
    parser.add_argument(
        "config",
        nargs="?",
        default=None,
        help="config file (packaged defaults when omitted)",
    )
    args, extra = parser.parse_known_args(argv)
    try:
        cfg = _load_config(args.config, _parse_overrides(extra))
        tables, report = SCENARIOS[args.scenario](cfg)
        record = cfg.metadata(args.scenario)
        out = Path(cfg["sim.output_dir"])
        out.mkdir(parents=True, exist_ok=True)
        files = [(out / name, columns, {**record, **header}) for name, columns, header in tables]
        write_csvs(files)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the program
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for line in [*report, *(str(path) for path, _, _ in files)]:
        _say(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
