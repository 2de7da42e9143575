"""Command line front end.

    biphoton SCENARIO [CONFIG] [--section.key=value ...]

Scenarios: g2-curves, plate-surface, bell-postselect, drift-series,
histogram.  CONFIG is a UTF-8 text file of ``[section]`` headers and
``key = value`` lines with '#' comments; the packaged default is used when
it is omitted.  Values can be overridden on the command line with
``--section.key=value``, and the environment variable BIPHOTON_SEED
overrides the configured seed (an explicit --sim.seed beats both).

Every CSV written embeds the fully resolved configuration in '#' header
lines, so a result file is reproducible from its own header.  Exit codes:
0 success, 2 configuration problem (any ConfigurationError, also one the
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
    write_histograms,
)
from .correlation import (
    PLUS_MINUS,
    PLUS_PLUS,
    PostSelectionWindow,
    chirp_edge_step,
    g2_analytic,
    g2_numeric,
    postselect,
)
from .csvio import write_csv
from .errors import ConfigurationError
from .fiber import DriftProcess, FiberChannel, drift_operators, tau_f, transmittance
from .jones import RetarderSpec, retarder, round_trip, unitarity_residual
from .state import CrystalParams, FrequencyGrid, apply_local, pdc_state


@dataclass(frozen=True)
class _Entry:
    value: str
    where: str  # "file:line", "command line", or "environment BIPHOTON_SEED"


_OVERRIDE_RE = re.compile(r"^--([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)=(.*)$")

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
        line = raw.split("#", 1)[0].strip()
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
            raise ConfigurationError(f"config file not found: {config_path}")
        try:
            text = path.read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read {config_path}: {exc}") from exc
        source = str(path)
    # The file, then BIPHOTON_SEED, then the command line: a later entry wins.
    entries = _parse_text(text, source)
    env_seed = os.environ.get("BIPHOTON_SEED")
    if env_seed is not None:
        entries["sim", "seed"] = _Entry(env_seed, "environment BIPHOTON_SEED")
    entries.update(overrides)
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
            drift=drift,
        )
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
    return ScenarioConfig(crystal, fiber, grid, plate, detectors, values)


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


def _out_dir(cfg: ScenarioConfig) -> Path:
    d = Path(cfg["sim.output_dir"])
    d.mkdir(parents=True, exist_ok=True)
    return d


# Work bounds of one run, checked before anything is allocated.  Measured
# tracemalloc peaks: a grid point takes about 121 bytes in g2-curves and 140 in
# histogram at 2^16 points (0.6 in bell-postselect), so 2^22 points cost about
# 0.5 to 0.6 GiB; the histogram's channel-law temporaries, about 3 MiB at any size,
# are set by coincidence._CHUNK.  A plate-surface row takes about 48 bytes on a
# cube lattice and up to 80 with a single plate, whose g2 temporaries are as
# long as the columns, so 2^22 rows cost at most about 0.33 GiB.  A histogram
# channel takes about 74 bytes, both arms' channel laws and shares being held
# at once, so 2^22 channels cost 0.29 GiB; that is the peak's growth from 2^18
# to 2^19 channels, as at 2^16 channels the 5.1 MiB peak is still mostly the
# channel-law temporaries.  A walk step takes about 120 bytes (its draws, the
# blocked prefix scan and the operator stack), so 2^22 steps cost about 0.5 GiB;
# a drift-series row about 250 bytes (operators, round trips and the
# visibility's entry arrays), so 2^20 rows cost about 0.25 GiB.
_MAX_GRID_N = 1 << 22
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


def _plate_state(cfg: ScenarioConfig):
    _check_work("grid.n", cfg.grid.n, "grid points", _MAX_GRID_N)
    state = pdc_state(cfg.crystal, cfg.grid)
    return apply_local(state, retarder(cfg.plate.delta, cfg.plate.alpha))


def _numeric_curves(state, fiber: FiberChannel):
    return g2_numeric(state, fiber, PLUS_PLUS), g2_numeric(state, fiber, PLUS_MINUS)


def scenario_g2_curves(cfg: ScenarioConfig) -> list[Path]:
    scale = _require_dispersion(cfg)
    state = _plate_state(cfg)
    plus, minus = _numeric_curves(state, cfg.fiber)
    ana_plus = g2_analytic(plus.tau_grid, scale, cfg.plate, "plus")
    ana_minus = g2_analytic(minus.tau_grid, scale, cfg.plate, "minus")
    num_peak = max(plus.g2.max(), minus.g2.max())
    ana_peak = max(ana_plus.max(), ana_minus.max())
    meta = cfg.metadata("g2-curves")
    meta["normalization"] = "joint peak of the plus/minus pair"
    meta["diag.norm_residual"] = abs(state.norm() - 1.0)
    out = _out_dir(cfg)
    paths = []
    for name, result, ana in (("plus", plus, ana_plus), ("minus", minus, ana_minus)):
        path = out / f"g2_{name}.csv"
        write_csv(
            path,
            {
                "tau_s": result.tau_grid,
                "g2_analytic": ana / ana_peak,
                "g2_numeric": result.g2 / num_peak,
            },
            {**meta, "arm": name},
        )
        paths.append(path)
    return paths


def scenario_plate_surface(cfg: ScenarioConfig) -> list[Path]:
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
    path = _out_dir(cfg) / "plate_surface.csv"
    write_csv(
        path,
        {
            "delta_rad": np.broadcast_to(deltas, shape).ravel(),
            "alpha_rad": np.broadcast_to(alphas, shape).ravel(),
            "tau_s": np.broadcast_to(taus, shape).ravel(),
            "g2_plus": g2_analytic(taus, scale, plate, "plus").ravel(),
            "g2_minus": g2_analytic(taus, scale, plate, "minus").ravel(),
        },
        cfg.metadata("plate-surface"),
    )
    return [path]


def scenario_bell_postselect(cfg: ScenarioConfig) -> list[Path]:
    scale = _require_dispersion(cfg)
    state = _plate_state(cfg)
    half_width = cfg["postselect.half_width_s"]
    windows = {
        "psi_plus": PostSelectionWindow(0.0, half_width),
        "psi_minus": PostSelectionWindow(np.pi * scale / 2.0, half_width),
    }
    results = {}
    for name, window in windows.items():
        results[name] = res = postselect(state, cfg.fiber, window)
        _say(
            f"{name}: window center {window.center:.6g} s, "
            f"psi+ fidelity {res.psi_plus_fidelity:.6f}, "
            f"psi- fidelity {res.psi_minus_fidelity:.6f}"
        )
    meta = cfg.metadata("bell-postselect")
    meta["diag.norm_residual"] = abs(state.norm() - 1.0)
    # below pi/4 the window-to-band map tau = 2 k2 z Omega does not hold
    meta["diag.chirp_edge_step_rad"] = chirp_edge_step(cfg.grid, cfg.fiber)
    path = _out_dir(cfg) / "bell_postselect.csv"
    write_csv(
        path,
        {
            "target": list(results),
            "window_center_s": [window.center for window in windows.values()],
            "window_half_width_s": [half_width] * len(windows),
            "psi_plus_fidelity": [res.psi_plus_fidelity for res in results.values()],
            "psi_minus_fidelity": [res.psi_minus_fidelity for res in results.values()],
            "n_band_samples": [res.n_samples for res in results.values()],
            "selected_fraction": [res.selected_fraction for res in results.values()],
        },
        meta,
    )
    return [path]


def scenario_drift_series(cfg: ScenarioConfig) -> list[Path]:
    duration = cfg["drift_series.duration_s"]
    interval = cfg["drift_series.sample_interval_s"]
    _check_work("drift_series.duration_s / drift.time_step_s",
                duration / cfg["drift.time_step_s"], "walk steps", _MAX_DRIFT_STEPS)
    _check_work("drift_series.duration_s / drift_series.sample_interval_s", duration / interval,
                "rows", _MAX_DRIFT_ROWS)
    times = np.arange(0.0, duration + interval / 2.0, interval)
    # One walk serves both layouts: the round trips are built from the one-way operators.
    u = drift_operators(cfg.fiber.drift, times)
    single = channel_visibility(u)
    both = channel_visibility(round_trip(u))
    _say(
        f"single pass: visibility range {np.ptp(single):.3f}; "
        f"go-and-return: std {np.std(both):.3e}"
    )
    meta = cfg.metadata("drift-series")
    meta["diag.max_unitarity_residual"] = unitarity_residual(u)
    path = _out_dir(cfg) / "drift_series.csv"
    write_csv(
        path,
        {
            "t_s": times,
            "visibility_single_pass": single,
            "visibility_go_and_return": both,
        },
        meta,
    )
    return [path]


def scenario_histogram(cfg: ScenarioConfig) -> list[Path]:
    _require_dispersion(cfg)
    n_channels = cfg["histogram.n_channels"]
    _check_work("histogram.n_channels", n_channels, "channels", _MAX_HISTOGRAM_CHANNELS)
    det = cfg.detectors
    pair_rate = cfg["histogram.pair_rate_hz"]
    acquisition = cfg["histogram.acquisition_time_s"]
    pair_transmittance = transmittance(cfg.fiber) ** 2
    _check_work("expected pair total from histogram.pair_rate_hz",
                mean_pair_total(det, pair_rate, acquisition, pair_transmittance), "pairs",
                _MAX_POISSON_TOTAL)
    _check_work("expected background total from detector.dark_rate_per_channel_hz",
                det.dark_background_rate * acquisition * n_channels, "counts", _MAX_POISSON_TOTAL)
    plus, minus = _numeric_curves(_plate_state(cfg), cfg.fiber)
    common = dict(
        detectors=det,
        pair_rate=pair_rate,
        acquisition_time=acquisition,
        channel_width=cfg["histogram.channel_width_s"],
        n_channels=n_channels,
        transmittance=pair_transmittance,
    )
    # Arm seeds from SeedSequence([seed, arm]): no arm replays another seed's arm.
    seeds = [int(np.random.SeedSequence([cfg["sim.seed"], arm]).generate_state(1, np.uint64)[0])
             for arm in (0, 1)]
    hist_plus, hist_minus = simulate_histograms([plus, minus], seeds=seeds, **common)
    window = PostSelectionWindow(0.0, cfg["histogram.visibility_half_width_s"])
    est = estimate_visibility(hist_plus, hist_minus, window)
    if est.background_channels:
        how = "background subtracted"
    else:
        how = "background not subtracted: no channel beyond 3 signal supports"
    _say(f"visibility {est.value:.4f} +- {est.sigma:.4f} ({how})")
    meta = cfg.metadata("histogram")
    meta["derived.pair_transmittance"] = pair_transmittance
    meta["diag.background_channels"] = est.background_channels
    out = _out_dir(cfg)
    files = [(out / f"histogram_{name}.csv", hist, {**meta, "arm": name})
             for name, hist in (("plus", hist_plus), ("minus", hist_minus))]
    write_histograms(files)
    return [path for path, _, _ in files]


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
        m = _OVERRIDE_RE.match(arg)
        if not m:
            raise ConfigurationError(
                f"unrecognized argument {arg!r} (overrides look like --section.key=value)")
        sec, key, value = m.groups()
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
        paths = SCENARIOS[args.scenario](cfg)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the program
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        _say(str(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
