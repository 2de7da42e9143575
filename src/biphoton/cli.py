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
0 success, 2 configuration problem, 3 runtime failure.
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
    drift_timeseries,
    estimate_visibility,
    simulate_histogram,
)
from .correlation import (
    PLUS_MINUS,
    PLUS_PLUS,
    PostSelectionWindow,
    g2_analytic,
    g2_numeric,
    postselect,
)
from .csvio import write_csv
from .errors import ConfigurationError
from .fiber import DriftProcess, FiberChannel, tau_f, transmittance
from .jones import RetarderSpec, retarder
from .state import CrystalParams, FrequencyGrid, apply_local, pdc_state


class CliConfigError(Exception):
    """Raised for any problem that should exit with status 2."""


@dataclass(frozen=True)
class _Entry:
    value: str
    where: str  # "file:line", "command line", or "environment"


_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_OVERRIDE_RE = re.compile(r"^--([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)=(.*)$")

# section -> key -> (kind, constraint, description of the constraint)
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "crystal": {
        "pump_wavelength_m": ("float", "positive"),
        "gvm_s_per_m": ("float", "positive"),
        "crystal_length_m": ("float", "positive"),
    },
    "fiber": {
        "k2_s2_per_m": ("float", "any"),
        "geometric_length_m": ("float", "positive"),
        "passes": ("choice:single,go_and_return", "any"),
        "loss_db_per_km": ("float", "nonnegative"),
    },
    "drift": {
        "correlation_time_s": ("float", "positive"),
        "step_angle_scale_rad": ("float", "nonnegative"),
        "time_step_s": ("float", "positive"),
    },
    "plate": {
        "delta_rad": ("float", "any"),
        "alpha_rad": ("float", "any"),
    },
    "grid": {
        "n": ("int", "positive"),
        "half_range_lobes": ("int", "positive"),
    },
    "detector": {
        "jitter_sigma_s": ("float", "nonnegative"),
        "efficiency_1": ("float", "unit_interval"),
        "efficiency_2": ("float", "unit_interval"),
        "dark_rate_per_channel_hz": ("float", "nonnegative"),
    },
    "histogram": {
        "pair_rate_hz": ("float", "nonnegative"),
        "acquisition_time_s": ("float", "positive"),
        "channel_width_s": ("float", "positive"),
        "n_channels": ("int", "positive"),
        "visibility_half_width_s": ("float", "positive"),
    },
    "postselect": {
        "half_width_s": ("float", "positive"),
    },
    "drift_series": {
        "duration_s": ("float", "positive"),
        "sample_interval_s": ("float", "positive"),
    },
    "surface": {
        "n_delta": ("int", "positive"),
        "n_alpha": ("int", "positive"),
        "n_tau": ("int", "positive"),
        "tau_half_range_lobes": ("int", "positive"),
    },
    "sim": {
        "seed": ("int", "nonnegative"),
        "output_dir": ("str", "any"),
    },
}


def _parse_text(text: str, source: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: dict[str, _Entry] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not _KEY_RE.match(name):
                raise CliConfigError(f"{source}:{lineno}: bad section name {name!r}")
            if name in sections:
                raise CliConfigError(f"{source}:{lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            current_name = name
            continue
        if "=" not in line:
            raise CliConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise CliConfigError(f"{source}:{lineno}: bad key name {key!r}")
        if current is None:
            raise CliConfigError(f"{source}:{lineno}: key {key!r} appears before any [section]")
        if key in current:
            raise CliConfigError(
                f"{source}:{lineno}: duplicate key {current_name}.{key}"
            )
        current[key] = _Entry(value, f"{source}:{lineno}")
    return sections


def _convert(section: str, key: str, entry: _Entry):
    kind, constraint = _SCHEMA[section][key]
    text = entry.value
    if kind == "str":
        value = text
    elif kind == "int":
        try:
            value = int(text)
        except ValueError:
            raise CliConfigError(f"{entry.where}: {section}.{key}: not an integer: {text!r}")
    elif kind == "float":
        try:
            value = float(text)
        except ValueError:
            raise CliConfigError(f"{entry.where}: {section}.{key}: not a number: {text!r}")
        if not np.isfinite(value):
            raise CliConfigError(f"{entry.where}: {section}.{key}: must be finite")
    elif kind.startswith("choice:"):
        choices = kind.split(":", 1)[1].split(",")
        if text not in choices:
            raise CliConfigError(
                f"{entry.where}: {section}.{key}: must be one of {choices}, got {text!r}"
            )
        value = text
    else:  # pragma: no cover - schema typo guard
        raise AssertionError(kind)
    if constraint == "positive" and not (isinstance(value, str) or value > 0):
        raise CliConfigError(f"{entry.where}: {section}.{key}: must be > 0")
    if constraint == "nonnegative" and not (isinstance(value, str) or value >= 0):
        raise CliConfigError(f"{entry.where}: {section}.{key}: must be >= 0")
    if constraint == "unit_interval" and not 0.0 <= value <= 1.0:
        raise CliConfigError(f"{entry.where}: {section}.{key}: must be in [0, 1]")
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

    @property
    def seed(self) -> int:
        return int(self.values["sim.seed"])

    @property
    def output_dir(self) -> Path:
        return Path(str(self.values["sim.output_dir"]))

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
            raise CliConfigError(f"config file not found: {config_path}")
        try:
            text = path.read_text("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CliConfigError(f"cannot read {config_path}: {exc}")
        source = str(path)
    sections = _parse_text(text, source)

    for name, keys in sections.items():
        if name not in _SCHEMA:
            raise CliConfigError(f"{source}: unknown section [{name}]")
        for key, entry in keys.items():
            if key not in _SCHEMA[name]:
                raise CliConfigError(f"{entry.where}: unknown key {name}.{key}")

    env_seed = os.environ.get("BIPHOTON_SEED")
    if env_seed is not None and ("sim", "seed") not in overrides:
        overrides = dict(overrides)
        overrides[("sim", "seed")] = _Entry(env_seed, "environment BIPHOTON_SEED")
    for (sec, key), entry in overrides.items():
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise CliConfigError(f"{entry.where}: unknown key {sec}.{key}")
        sections.setdefault(sec, {})[key] = entry

    values: dict[str, object] = {}
    for sec, keys in _SCHEMA.items():
        for key in keys:
            if sec not in sections or key not in sections[sec]:
                raise CliConfigError(f"{source}: missing required key {sec}.{key}")
            values[f"{sec}.{key}"] = _convert(sec, key, sections[sec][key])

    try:
        crystal = CrystalParams(
            pump_wavelength=values["crystal.pump_wavelength_m"],
            gvm=values["crystal.gvm_s_per_m"],
            length=values["crystal.crystal_length_m"],
        )
        drift = DriftProcess(
            correlation_time=values["drift.correlation_time_s"],
            step_angle_scale=values["drift.step_angle_scale_rad"],
            seed=int(values["sim.seed"]),
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
    except (ConfigurationError, ValueError, ArithmeticError) as exc:
        raise CliConfigError(str(exc))
    return ScenarioConfig(
        crystal=crystal,
        fiber=fiber,
        grid=grid,
        plate=plate,
        detectors=detectors,
        values=values,
    )


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
        raise CliConfigError("fiber.k2_s2_per_m must be nonzero (and positive) for this scenario")
    return scale


def _out_dir(cfg: ScenarioConfig) -> Path:
    d = cfg.output_dir
    d.mkdir(parents=True, exist_ok=True)
    return d


def _plate_state(cfg: ScenarioConfig):
    state = pdc_state(cfg.crystal, cfg.grid)
    return apply_local(state, retarder(cfg.plate.delta, cfg.plate.alpha))


def _numeric_curves(cfg: ScenarioConfig):
    state = _plate_state(cfg)
    plus = g2_numeric(state, cfg.fiber, PLUS_PLUS, mode="far_field")
    minus = g2_numeric(state, cfg.fiber, PLUS_MINUS, mode="far_field")
    return plus, minus


def scenario_g2_curves(cfg: ScenarioConfig) -> list[Path]:
    scale = _require_dispersion(cfg)
    plus, minus = _numeric_curves(cfg)
    ana_plus = g2_analytic(plus.tau_grid, scale, cfg.plate, "plus")
    ana_minus = g2_analytic(minus.tau_grid, scale, cfg.plate, "minus")
    num_peak = max(plus.g2.max(), minus.g2.max())
    ana_peak = max(ana_plus.max(), ana_minus.max())
    meta = cfg.metadata("g2-curves")
    meta["normalization"] = "joint peak of the plus/minus pair"
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
    n_d = int(cfg["surface.n_delta"])
    n_a = int(cfg["surface.n_alpha"])
    n_t = int(cfg["surface.n_tau"])
    lobes = int(cfg["surface.tau_half_range_lobes"])
    deltas = np.linspace(0.0, np.pi, n_d)
    alphas = np.linspace(0.0, np.pi / 2.0, n_a, endpoint=False)
    taus = np.linspace(-lobes * np.pi, lobes * np.pi, n_t) * scale
    # Rows run delta outer, alpha, then tau inner; the angle columns keep the
    # lattice values, the plate canonicalizes them (delta = pi acts as 0).
    d, a, t = np.meshgrid(deltas, alphas, taus, indexing="ij")
    plate = RetarderSpec(d, a)
    path = _out_dir(cfg) / "plate_surface.csv"
    write_csv(
        path,
        {
            "delta_rad": d.ravel(),
            "alpha_rad": a.ravel(),
            "tau_s": t.ravel(),
            "g2_plus": g2_analytic(t, scale, plate, "plus").ravel(),
            "g2_minus": g2_analytic(t, scale, plate, "minus").ravel(),
        },
        cfg.metadata("plate-surface"),
    )
    return [path]


def scenario_bell_postselect(cfg: ScenarioConfig) -> list[Path]:
    scale = _require_dispersion(cfg)
    state = _plate_state(cfg)
    half_width = float(cfg["postselect.half_width_s"])
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
        },
        cfg.metadata("bell-postselect"),
    )
    return [path]


def scenario_drift_series(cfg: ScenarioConfig) -> list[Path]:
    duration = float(cfg["drift_series.duration_s"])
    interval = float(cfg["drift_series.sample_interval_s"])
    times = np.arange(0.0, duration + interval / 2.0, interval)
    single = drift_timeseries("single", cfg.fiber.drift, times)
    both = drift_timeseries("go_and_return", cfg.fiber.drift, times)
    _say(
        f"single pass: visibility range {np.ptp(single[:, 1]):.3f}; "
        f"go-and-return: std {np.std(both[:, 1]):.3e}"
    )
    path = _out_dir(cfg) / "drift_series.csv"
    write_csv(
        path,
        {
            "t_s": times,
            "visibility_single_pass": single[:, 1],
            "visibility_go_and_return": both[:, 1],
        },
        cfg.metadata("drift-series"),
    )
    return [path]


def scenario_histogram(cfg: ScenarioConfig) -> list[Path]:
    _require_dispersion(cfg)
    plus, minus = _numeric_curves(cfg)
    pair_transmittance = transmittance(cfg.fiber) ** 2
    common = dict(
        detectors=cfg.detectors,
        pair_rate=float(cfg["histogram.pair_rate_hz"]),
        acquisition_time=float(cfg["histogram.acquisition_time_s"]),
        channel_width=float(cfg["histogram.channel_width_s"]),
        n_channels=int(cfg["histogram.n_channels"]),
        transmittance=pair_transmittance,
    )
    # Arm seeds from SeedSequence([seed, arm]): no arm replays another seed's arm.
    seeds = [np.random.SeedSequence([cfg.seed, arm]).generate_state(1, np.uint64) for arm in (0, 1)]
    hist_plus = simulate_histogram(plus, seed=int(seeds[0][0]), **common)
    hist_minus = simulate_histogram(minus, seed=int(seeds[1][0]), **common)
    window = PostSelectionWindow(0.0, float(cfg["histogram.visibility_half_width_s"]))
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
    paths = []
    for name, hist in (("plus", hist_plus), ("minus", hist_minus)):
        path = out / f"histogram_{name}.csv"
        hist.to_csv(path, {**meta, "arm": name})
        paths.append(path)
    return paths


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
            raise CliConfigError(
                f"unrecognized argument {arg!r} (overrides look like --section.key=value)"
            )
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
        overrides = _parse_overrides(extra)
        cfg = _load_config(args.config, overrides)
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = SCENARIOS[args.scenario](cfg)
    except Exception as exc:  # noqa: BLE001 - boundary of the program
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        _say(str(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
