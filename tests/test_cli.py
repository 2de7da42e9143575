"""Command-line entry point: scenarios, config handling, reproducibility."""

import io
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    PLUS_MINUS,
    PLUS_PLUS,
    ConfigurationError,
    CrystalParams,
    DetectorParams,
    DriftProcess,
    FiberChannel,
    FrequencyGrid,
    PostSelectionWindow,
    RetarderSpec,
    apply_local,
    cli,
    drift_operators,
    drift_timeseries,
    estimate_visibility,
    g2_analytic,
    g2_numeric,
    pdc_state,
    retarder,
    simulate_histogram,
    transmittance,
    unitarity_residual,
)
from biphoton import coincidence
from biphoton import fiber as fiber_module
from biphoton.correlation import chirp_edge_step
from biphoton.csvio import read_csv, write_csv, write_csvs
from biphoton.jones import ATOL_COMPOSED
from biphoton.state import MAX_SPECTRAL_SAMPLES
from oracles import continuum_gram, continuum_postselect

TAU_F = 6.912e-10


def run(tmp_path, *args):
    return cli.main([*args, f"--sim.output_dir={tmp_path / 'out'}"])


def test_g2_curves_outputs(tmp_path):
    assert run(tmp_path, "g2-curves") == 0
    for arm in ("plus", "minus"):
        columns, meta = read_csv(tmp_path / "out" / f"g2_{arm}.csv")
        assert set(columns) == {"tau_s", "g2_analytic", "g2_numeric"}
        gap = np.max(np.abs(np.asarray(columns["g2_analytic"])
                            - np.asarray(columns["g2_numeric"])))
        assert gap < 1e-6
        assert meta["arm"] == arm
        assert float(meta["derived.tau_f_s"]) == pytest.approx(TAU_F, rel=1e-12)
        # the grid's sum of |amp|^2 dOmega against the continuum norm 1, at n = 512
        assert "diag.norm_residual" not in meta
        assert float(meta["diag.grid_norm_error"]) == pytest.approx(6.4e-11, rel=0.01)
        # analytic column is reproducible from the stored delay axis
        tau = np.asarray(columns["tau_s"])
        ref = g2_analytic(tau, TAU_F, which=arm)
        ref_peak = max(
            np.max(g2_analytic(tau, TAU_F, which="plus")),
            np.max(g2_analytic(tau, TAU_F, which="minus")),
        )
        np.testing.assert_allclose(
            columns["g2_analytic"], ref / ref_peak, atol=1e-12
        )


def test_g2_curves_at_weak_dispersion_match_direct_sum(tmp_path):
    # k2 z = 0.19 tau0^2: the grid samples the chirp, so the numeric column is
    # the exact transform, here against an O(n^2) rectangle-rule sum (the
    # far-field image misses it by up to the whole peak)
    assert run(tmp_path, "g2-curves", "--fiber.k2_s2_per_m=1e-30") == 0
    crystal = CrystalParams(pump_wavelength=351e-9, gvm=2.0e-10, length=0.5e-3)
    grid = FrequencyGrid(n=512, omega_max=8 * np.pi / crystal.tau0)
    amp = pdc_state(crystal, grid).amp * np.exp(1j * 1e-30 * 480.0 * grid.omegas**2)
    plus, minus = (np.array([np.cos(t1), np.sin(t1)]) for t1 in (np.pi / 4, -np.pi / 4))
    columns, direct = {}, {}
    for arm, e2 in (("plus", plus), ("minus", minus)):
        columns[arm], _ = read_csv(tmp_path / "out" / f"g2_{arm}.csv")
        a = np.einsum("a,b,abk->k", plus, e2, amp)
        kernel = np.exp(-1j * np.outer(columns[arm]["tau_s"], grid.omegas))
        direct[arm] = np.abs(grid.domega * (kernel @ a)) ** 2
    peak = max(np.max(d) for d in direct.values())
    for arm in ("plus", "minus"):
        gap = np.max(np.abs(np.asarray(columns[arm]["g2_numeric"]) - direct[arm] / peak))
        assert gap < 1e-9


def test_plate_surface_row_count(tmp_path):
    code = run(
        tmp_path, "plate-surface",
        "--surface.n_delta=4", "--surface.n_alpha=3", "--surface.n_tau=11",
    )
    assert code == 0
    columns, _ = read_csv(tmp_path / "out" / "plate_surface.csv")
    assert len(columns["g2_plus"]) == 4 * 3 * 11
    g = np.asarray(columns["g2_plus"])
    assert np.all(g >= 0.0) and np.all(g <= 2.0 + 1e-12)


def test_plate_surface_matches_per_plate_loop(tmp_path):
    n_d, n_a, n_t = 5, 4, 7
    code = run(
        tmp_path, "plate-surface",
        f"--surface.n_delta={n_d}", f"--surface.n_alpha={n_a}", f"--surface.n_tau={n_t}",
    )
    assert code == 0
    columns, meta = read_csv(tmp_path / "out" / "plate_surface.csv")
    scale = float(meta["derived.tau_f_s"])
    lobes = int(meta["config.surface.tau_half_range_lobes"])
    # The original scenario: one plate at a time, delta outer, alpha, tau inner,
    # on linspace's positive half mirrored about a +0.0 middle sample (n_t is odd).
    deltas = np.linspace(0.0, np.pi, n_d)
    alphas = np.linspace(0.0, np.pi / 2.0, n_a, endpoint=False)
    positive = np.linspace(-lobes * np.pi, lobes * np.pi, n_t)[n_t // 2 + 1:]
    taus = np.concatenate([-positive[::-1], [0.0], positive]) * scale
    expected = {"delta_rad": [], "alpha_rad": [], "tau_s": [], "g2_plus": [], "g2_minus": []}
    for d in deltas:
        for a in alphas:
            plate = RetarderSpec(d, a)
            expected["delta_rad"].append(np.full(n_t, d))
            expected["alpha_rad"].append(np.full(n_t, a))
            expected["tau_s"].append(taus)
            expected["g2_plus"].append(g2_analytic(taus, scale, plate, "plus"))
            expected["g2_minus"].append(g2_analytic(taus, scale, plate, "minus"))
    # the lattice is broadcast, not looped, but each cell's arithmetic is the same
    for name in expected:
        np.testing.assert_array_equal(columns[name], np.concatenate(expected[name]))
    # delta = pi is written as pi but evaluated as the canonical delta = 0.
    block = n_a * n_t
    assert np.all(columns["delta_rad"][-block:] == np.pi)
    for name in ("g2_plus", "g2_minus"):
        np.testing.assert_array_equal(columns[name][-block:], columns[name][:block])


def test_bell_postselect_reports_fidelities(tmp_path, capsys):
    assert run(tmp_path, "bell-postselect") == 0
    out = capsys.readouterr().out
    assert "psi+ fidelity 0.999867" in out and "psi- fidelity 0.999867" in out
    columns, meta = read_csv(tmp_path / "out" / "bell_postselect.csv")
    assert list(columns) == ["target", "window_center_s", "window_half_width_s",
                             "psi_plus_fidelity", "psi_minus_fidelity", "selected_fraction"]
    rows = dict(zip(columns["target"], range(len(columns["target"]))))
    plus_fid = np.asarray(columns["psi_plus_fidelity"])
    minus_fid = np.asarray(columns["psi_minus_fidelity"])
    # each window's mixture, against the continuum quadrature oracle
    cfg = cli._load_config(None, {})
    state = apply_local(pdc_state(cfg.crystal, cfg.grid),
                        retarder(cfg.plate.delta, cfg.plate.alpha))
    for target, fid, k in (("psi_plus", plus_fid, 1), ("psi_minus", minus_fid, 2)):
        window = PostSelectionWindow(columns["window_center_s"][rows[target]],
                                     columns["window_half_width_s"][rows[target]])
        expected = continuum_postselect(state, cfg.fiber, window)
        assert fid[rows[target]] == pytest.approx(expected[k], abs=1e-12)
        assert columns["selected_fraction"][rows[target]] == pytest.approx(expected[3], abs=1e-12)
    # each narrow window keeps a small share of the pairs
    np.testing.assert_allclose(columns["selected_fraction"], [0.012895, 0.005227], atol=5e-7)
    assert 0.0 <= float(meta["diag.norm_residual"]) < 1e-12


def test_bell_postselect_does_not_depend_on_grid_n(tmp_path, monkeypatch, capsys):
    # the windows and the norm are integrated on the continuum and nothing is
    # evaluated per grid point, so grid.n reaches only the run record: past the
    # 2^22 points g2-curves and histogram allow, and at 2^50 and 2^65, the file,
    # stdout and exit code are those of the default n = 512
    outputs = {}
    for n in (256, 512, 2**21, 2**23, 2**50, 2**65):
        (tmp_path / str(n)).mkdir()
        monkeypatch.chdir(tmp_path / str(n))  # the same relative output dir for every n
        assert cli.main(["bell-postselect", f"--grid.n={n}", "--sim.output_dir=out"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = (tmp_path / str(n) / "out" / "bell_postselect.csv").read_text().splitlines()
        assert f"# config.grid.n = {n}" in lines
        assert not any("chirp_edge_step" in line for line in lines)
        outputs[n] = [line for line in lines if line != f"# config.grid.n = {n}"], out
    assert all(value == outputs[512] for value in outputs.values())


@pytest.mark.parametrize("overrides, step", [((), 1.71e4), (("--grid.n=2097152",), 4.16),
                                             (("--fiber.k2_s2_per_m=1e-30",), 0.476)])
def test_bell_postselect_reports_chirp_edge_step(tmp_path, capsys, overrides, step):
    # |k2 z| omega_max dOmega is the sampling step of g2's grid at the band
    # edge. bell-postselect samples no grid: its file reports no step, and the
    # step, above pi/4 or below it, does not decide whether it runs. |tau_f| does:
    # 13,824 tau0 at the paper's fiber gives the default fidelities at either
    # grid, and 0.384 tau0 on the weak fiber is refused on the fiber keys alone.
    cfg = cli._load_config(None, cli._parse_overrides(list(overrides)))
    assert chirp_edge_step(cfg.grid, cfg.fiber) == pytest.approx(step, rel=2e-3)
    code = run(tmp_path, "bell-postselect", *overrides)
    out, err = capsys.readouterr()
    if overrides == ("--fiber.k2_s2_per_m=1e-30",):
        assert code == 2 and out == ""
        assert err.startswith("config error: fiber.k2_s2_per_m, fiber.geometric_length_m: ")
        assert "is below 1000 tau0" in err and "grid.n" not in err and "rad" not in err
        assert not (tmp_path / "out").exists()
        return
    assert code == 0 and err == ""
    assert "psi+ fidelity 0.999867" in out and "psi- fidelity 0.999867" in out
    _, meta = read_csv(tmp_path / "out" / "bell_postselect.csv")
    assert "diag.chirp_edge_step_rad" not in meta


def test_drift_series_columns(tmp_path):
    code = run(tmp_path, "drift-series", "--drift_series.duration_s=1800")
    assert code == 0
    columns, _ = read_csv(tmp_path / "out" / "drift_series.csv")
    assert set(columns) == {"t_s", "visibility_single_pass",
                            "visibility_go_and_return"}
    ret = np.asarray(columns["visibility_go_and_return"])
    np.testing.assert_allclose(ret, 1.0, atol=1e-9)
    single = np.asarray(columns["visibility_single_pass"])
    assert np.min(single) < 0.999


@pytest.mark.parametrize("overrides", [
    (),
    ("--sim.seed=4",),
    ("--drift.time_step_s=0.5", "--drift_series.duration_s=600",
     "--drift_series.sample_interval_s=7"),
])
def test_drift_series_walks_once_for_both_layouts(tmp_path, monkeypatch, overrides):
    calls = []
    step_pairs = fiber_module._step_pairs

    def counted(*args):
        calls.append(args)
        return step_pairs(*args)

    monkeypatch.setattr(fiber_module, "_step_pairs", counted)
    assert run(tmp_path, "drift-series", *overrides) == 0
    assert len(calls) == 1
    monkeypatch.undo()

    columns, meta = read_csv(tmp_path / "out" / "drift_series.csv")
    drift = DriftProcess(
        correlation_time=float(meta["config.drift.correlation_time_s"]),
        step_angle_scale=float(meta["config.drift.step_angle_scale_rad"]),
        seed=int(meta["config.sim.seed"]),
        time_step=float(meta["config.drift.time_step_s"]),
    )
    times = columns["t_s"]
    for column, passes in (("visibility_single_pass", "single"),
                           ("visibility_go_and_return", "go_and_return")):
        np.testing.assert_array_equal(columns[column], drift_timeseries(passes, drift, times)[:, 1])
    residual = float(meta["diag.max_unitarity_residual"])
    assert residual == unitarity_residual(drift_operators(drift, times))
    assert residual <= ATOL_COMPOSED


@pytest.mark.parametrize("overrides", [
    ("--drift.time_step_s=1e-300", "--drift_series.duration_s=10",
     "--drift_series.sample_interval_s=5"),
    ("--drift_series.duration_s=1e308", "--drift_series.sample_interval_s=1e307"),
    ("--drift.time_step_s=1e-6", "--drift_series.duration_s=1000"),
])
def test_drift_series_too_many_steps_is_config_error(tmp_path, monkeypatch, capsys, overrides):
    def no_walk(*args):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr(fiber_module, "_step_pairs", no_walk)
    start = time.perf_counter()
    assert run(tmp_path, "drift-series", *overrides) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "drift.time_step_s" in err and "drift_series.duration_s" in err
    assert not (tmp_path / "out").exists()


def test_drift_series_too_many_rows_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fiber_module, "_step_pairs", None)
    overrides = ("--drift.time_step_s=1e6", "--drift_series.duration_s=1e7",
                 "--drift_series.sample_interval_s=1")
    assert run(tmp_path, "drift-series", *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "drift_series.sample_interval_s" in err and "drift_series.duration_s" in err
    assert not (tmp_path / "out").exists()


def test_drift_step_cap_bounds_the_last_sample(tmp_path, monkeypatch, capsys):
    # 1,000 s of 1 s steps is at the cap, but the samples are 0 and 1,500 s,
    # and the walk runs to the last of them
    def no_walk(*args):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr(cli, "_MAX_DRIFT_STEPS", 1000)
    monkeypatch.setattr(fiber_module, "_step_pairs", no_walk)
    overrides = ("--drift.time_step_s=1", "--drift_series.duration_s=1000",
                 "--drift_series.sample_interval_s=1500")
    assert run(tmp_path, "drift-series", *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "1.5e+03 walk steps" in err
    for key in ("drift.time_step_s", "drift_series.duration_s", "drift_series.sample_interval_s"):
        assert key in err
    assert not (tmp_path / "out").exists()


def fail(*args, **kwargs):
    raise AssertionError("the guard must stop the run before this call")


@pytest.mark.parametrize("scenario", ["g2-curves", "histogram"])
@pytest.mark.parametrize("n", [2**50, 2**65])
def test_huge_grid_is_config_error(tmp_path, monkeypatch, capsys, scenario, n):
    # 2^50 points ran until killed: the Gram pass had 2^35 blocks to go
    monkeypatch.setattr(cli, "pdc_state", fail)
    start = time.perf_counter()
    assert run(tmp_path, scenario, f"--grid.n={n}") == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid.n" in err
    assert not (tmp_path / "out").exists()


# ConfigurationError is a ValueError: the second case pins main's order of except clauses
@pytest.mark.parametrize("error, code, prefix", [
    (ConfigurationError, 2, "config error:"),
    (ValueError, 3, "runtime error:"),
])
def test_library_configuration_error_in_a_scenario_exits_2(tmp_path, monkeypatch, capsys,
                                                           error, code, prefix):
    def unusable(*args, **kwargs):
        raise error("raised by the library")

    monkeypatch.setattr(cli, "pdc_state", unusable)
    assert run(tmp_path, "g2-curves") == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "raised by the library" in err


# 4.24e-12 s/m over 0.96 mm: (pi / tau0) * tau0 rounds one ulp below pi
_ONE_LOBE_CRYSTAL = ("--grid.half_range_lobes=1", "--crystal.gvm_s_per_m=4.239606622777585e-12",
                     "--crystal.crystal_length_m=0.0009621636944233743")


@pytest.mark.parametrize("scenario, extra", [
    ("g2-curves", ()),
    # a window wider than the grid's tau step (0.21 ns at this crystal's 16.9 ns tau_f)
    ("bell-postselect", ("--postselect.half_width_s=3.4e-10",)),
    ("histogram", ()),
])
def test_one_lobe_grid_runs(tmp_path, capsys, scenario, extra):
    assert run(tmp_path, scenario, *_ONE_LOBE_CRYSTAL, *extra) == 0
    assert capsys.readouterr().err == ""


def test_bell_window_between_grid_samples_gives_a_result(tmp_path, capsys):
    # the one-lobe psi- window falls midway between two samples 0.21 ns apart,
    # and the default 13.8 ps half-width reaches neither: the band is integrated
    # on the continuum, so halving the width halves the yield, to second order
    fractions = []
    for half_width in (1.3824e-11, 6.912e-12):
        assert run(tmp_path / str(half_width), "bell-postselect", *_ONE_LOBE_CRYSTAL,
                   f"--postselect.half_width_s={half_width}") == 0
        columns, _ = read_csv(tmp_path / str(half_width) / "out" / "bell_postselect.csv")
        assert all(fid > 0.999999 for fid in columns["psi_minus_fidelity"][1:])
        fractions.append(np.asarray(columns["selected_fraction"]))
    assert capsys.readouterr().err == ""
    np.testing.assert_allclose(fractions[0] / fractions[1], 2.0, rtol=1e-5)


def test_largest_allowed_grid_reaches_the_state(tmp_path, monkeypatch, capsys):
    def reached(*args, **kwargs):
        raise RuntimeError("pdc_state reached")

    monkeypatch.setattr(cli, "pdc_state", reached)
    assert run(tmp_path, "g2-curves", f"--grid.n={MAX_SPECTRAL_SAMPLES}") == 3
    assert "pdc_state reached" in capsys.readouterr().err


@pytest.mark.parametrize("n_t", [7, 10, 1])
def test_plate_surface_tau_axis_is_exactly_mirrored(tmp_path, n_t):
    # At one lobe, linspace's 7- and 10-sample axes are not antisymmetric to
    # the bit, and its one sample sits at -pi tau_f; the mirrored axis is, and
    # g2, even in tau, then repeats its floats bit for bit across the middle.
    n_d, n_a = 3, 2
    assert run(tmp_path, "plate-surface", f"--surface.n_delta={n_d}",
               f"--surface.n_alpha={n_a}", f"--surface.n_tau={n_t}",
               "--surface.tau_half_range_lobes=1") == 0
    columns, _ = read_csv(tmp_path / "out" / "plate_surface.csv")
    tau = np.asarray(columns["tau_s"]).reshape(n_d * n_a, n_t)
    np.testing.assert_array_equal(tau, -tau[:, ::-1])
    assert np.all(tau[:, :n_t // 2] < 0.0)
    if n_t % 2:
        middle = tau[:, n_t // 2]
        assert np.all(middle == 0.0) and not np.any(np.signbit(middle))
    for name in ("g2_plus", "g2_minus"):
        g = np.asarray(columns[name]).reshape(n_d * n_a, n_t)
        np.testing.assert_array_equal(g, g[:, ::-1])


def test_huge_plate_surface_is_config_error(tmp_path, monkeypatch, capsys):
    # 8e9 rows: the five columns alone would take 300 GiB
    monkeypatch.setattr(cli.np, "broadcast_to", fail)
    monkeypatch.setattr(cli, "g2_analytic", fail)
    overrides = ("--surface.n_delta=2000", "--surface.n_alpha=2000", "--surface.n_tau=2000")
    assert run(tmp_path, "plate-surface", *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert all(f"surface.{key}" in err for key in ("n_delta", "n_alpha", "n_tau"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lobes", [10**308, 10**400], ids=["1e308", "1e400"])
def test_plate_surface_tau_range_past_float_is_config_error(tmp_path, monkeypatch, capsys, lobes):
    # 10^308 lobes: linspace's span 2 pi lobes overflows; 10^400 is past any float
    monkeypatch.setattr(cli.np, "linspace", fail)
    monkeypatch.setattr(cli, "g2_analytic", fail)
    assert run(tmp_path, "plate-surface", f"--surface.tau_half_range_lobes={lobes}") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "surface.tau_half_range_lobes" in err
    assert not (tmp_path / "out").exists()


def test_too_many_histogram_channels_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "pdc_state", fail)
    monkeypatch.setattr(cli, "simulate_histograms", fail)
    channels = cli._MAX_HISTOGRAM_CHANNELS + 1
    assert run(tmp_path, "histogram", f"--histogram.n_channels={channels}") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "histogram.n_channels" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["g2-curves", "histogram", "plate-surface",
                                      "bell-postselect"])
@pytest.mark.parametrize("k2", ["1e150", "2.5e144", "1e143"])
def test_overflowing_dispersion_is_config_error(tmp_path, monkeypatch, capsys, scenario, k2):
    # 1e150: tau_f itself is inf; 2.5e144: tau_f = 1e308 s, but the grid edge
    # 8 pi tau_f is not; 1e143: the edge is 1e308 s, but the tau span, twice
    # that, is not
    monkeypatch.setattr(cli, "pdc_state", fail)
    monkeypatch.setattr(cli, "g2_analytic", fail)
    assert run(tmp_path, scenario, f"--fiber.k2_s2_per_m={k2}",
               "--fiber.geometric_length_m=5e149") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "fiber.k2_s2_per_m" in err and "fiber.geometric_length_m" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, overrides", [
    ("histogram.pair_rate_hz", ["--histogram.pair_rate_hz=1e300"]),
    ("detector.dark_rate_per_channel_hz", ["--detector.dark_rate_per_channel_hz=1e300"]),
    # inf pairs times a transmittance of exactly 0: the expected total is nan
    ("histogram.pair_rate_hz", ["--histogram.pair_rate_hz=1e300",
                                "--histogram.acquisition_time_s=1e300",
                                "--fiber.geometric_length_m=1e6"]),
])
def test_poisson_total_past_int64_is_config_error(tmp_path, monkeypatch, capsys, key, overrides):
    # numpy's Poisson sampler fails with "lam value too large" near 2^63
    monkeypatch.setattr(cli, "pdc_state", fail)
    assert run(tmp_path, "histogram", *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()


def test_scenario_config_problem_exits_2(tmp_path, capsys):
    assert run(tmp_path, "g2-curves", "--fiber.k2_s2_per_m=0") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "fiber.k2_s2_per_m" in err


def test_histogram_reports_visibility(tmp_path, capsys):
    code = run(tmp_path, "histogram", "--histogram.acquisition_time_s=60")
    assert code == 0
    out = capsys.readouterr().out
    assert "(background subtracted)" in out
    for arm in ("plus", "minus"):
        columns, meta = read_csv(tmp_path / "out" / f"histogram_{arm}.csv")
        assert int(meta["n_pairs"]) > 0
        assert sum(columns["counts"]) > 0
        assert int(meta["diag.background_channels"]) > 0


# The histogram arm's own keys, in order, between the scenario's lines and "arm".
HISTOGRAM_KEYS = [
    "seed", "channel_width_s", "zero_offset_channel", "n_pairs", "n_background", "underflow",
    "overflow", "signal_support_s", "diag.in_reach_channels", "diag.floored_channels",
]


def test_histogram_header_keys_in_order(tmp_path):
    assert run(tmp_path, "histogram", "--histogram.acquisition_time_s=30") == 0
    scenario_keys = [*cli._load_config(None, {}).metadata("histogram"),
                     "derived.pair_transmittance", "diag.background_channels",
                     "diag.chirp_edge_step_rad"]
    for arm in ("plus", "minus"):
        _, meta = read_csv(tmp_path / "out" / f"histogram_{arm}.csv")
        assert list(meta) == [*scenario_keys, *HISTOGRAM_KEYS, "arm"]
        assert meta["arm"] == arm


def test_histogram_arms_share_their_axis_arrays(tmp_path, monkeypatch):
    # One write_csvs call, whose files hold the same axis arrays: csvio then
    # formats each axis once per chunk for both.
    calls = []
    monkeypatch.setattr(cli, "write_csvs", lambda files: calls.append(list(files)))
    assert run(tmp_path, "histogram") == 0
    (plus, minus), = calls
    for column in ("channel_index", "tau_center_s"):
        assert plus[1][column] is minus[1][column]


@pytest.mark.parametrize("overrides, n, jitter", [
    ((), 512, 1e-10),
    (("--detector.jitter_sigma_s=0", "--grid.n=1024"), 1024, 0.0),
], ids=["overrides0", "overrides1"])
def test_histogram_files_match_one_arm_at_a_time(tmp_path, overrides, n, jitter):
    # Oracle: the default config through the library, one simulate_histogram
    # and one write_csv per arm.
    assert run(tmp_path, "histogram", "--sim.seed=5", *overrides) == 0
    crystal = CrystalParams(pump_wavelength=351e-9, gvm=2.0e-10, length=0.5e-3)
    fiber = FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="go_and_return",
                         loss_db_per_km=12.0)
    grid = FrequencyGrid(n=n, omega_max=8 * np.pi / crystal.tau0)
    state = apply_local(pdc_state(crystal, grid), retarder(0.0, 0.0))
    pair_transmittance = transmittance(fiber) ** 2
    detectors = DetectorParams(jitter_sigma=jitter, efficiency_1=0.6, efficiency_2=0.6,
                               dark_background_rate=0.002)
    arms = {}
    for arm, (name, analyzer) in enumerate((("plus", PLUS_PLUS), ("minus", PLUS_MINUS))):
        seed = int(np.random.SeedSequence([5, arm]).generate_state(1, np.uint64)[0])
        arms[name] = seed, simulate_histogram(g2_numeric(state, fiber, analyzer), detectors,
                                              5000.0, 600.0, 3.456e-11, seed, 4096,
                                              pair_transmittance)
    background_channels = estimate_visibility(
        arms["plus"][1], arms["minus"][1], PostSelectionWindow(0.0, 1.728e-10)
    ).background_channels
    for name, (seed, hist) in arms.items():
        got = tmp_path / "out" / f"histogram_{name}.csv"
        # The resolved config lines, checked by other tests, as the scenario wrote them.
        config = {key: value for key, value in read_csv(got)[1].items()
                  if key.startswith(("config.", "derived."))}
        config["derived.pair_transmittance"] = pair_transmittance
        header = {
            "scenario": "histogram", **config, "diag.background_channels": background_channels,
            # |k2 z| omega_max dOmega
            "diag.chirp_edge_step_rad": abs(fiber.k2 * fiber.z) * grid.omega_max * grid.domega,
            "seed": seed, "channel_width_s": 3.456e-11, "zero_offset_channel": 2048,
            "n_pairs": hist.n_pairs, "n_background": hist.n_background,
            "underflow": hist.underflow, "overflow": hist.overflow,
            "signal_support_s": hist.signal_support,
            "diag.in_reach_channels": hist.in_reach_channels,
            "diag.floored_channels": hist.floored_channels, "arm": name,
        }
        columns = {"channel_index": np.arange(4096),
                   "tau_center_s": (np.arange(4096) - 2048) * 3.456e-11, "counts": hist.counts}
        write_csv(tmp_path / f"{name}.csv", columns, header)
        assert got.read_bytes() == (tmp_path / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("jitter", ["1e-5", "1e300"])
def test_jitter_past_the_channel_law_is_config_error(tmp_path, capsys, jitter):
    # sqrt(2) 1e-5 s is 2^17.7 cells of the default g2 grid
    assert run(tmp_path, "histogram", f"--detector.jitter_sigma_s={jitter}") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "jitter_sigma" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, detail", [
    (("--detector.jitter_sigma_s=1e-5",), "jitter_sigma = 1e-05 s: sqrt(2) jitter_sigma spans"),
    (("--grid.n=65536", "--histogram.channel_width_s=1e-13", "--detector.jitter_sigma_s=2e-8",
      "--histogram.n_channels=4194304"), "the channel law needs 4194305 channel edges"),
], ids=["smear", "terms"])
def test_histogram_channel_law_errors_name_their_keys(tmp_path, capsys, overrides, detail):
    # the smear and term caps read the jitter, the g2 grid and the channel count
    assert run(tmp_path, "histogram", *overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: detector.jitter_sigma_s, grid.n, "
                          "histogram.channel_width_s, histogram.n_channels: " + detail)
    assert not (tmp_path / "out").exists()


def test_channel_law_cap_names_the_channel_width_it_reads(tmp_path, monkeypatch, capsys):
    # The terms grow with the channel edges in reach of the signal, so a
    # narrower channel alone carries the channel law past its cap.
    assert run(tmp_path / "fine", "histogram", "--grid.n=65536", "--detector.jitter_sigma_s=2e-8",
               "--histogram.n_channels=4194304", "--histogram.channel_width_s=1e-13") == 2
    assert "histogram.channel_width_s" in capsys.readouterr().err
    terms = []
    psi = coincidence._psi
    monkeypatch.setattr(coincidence, "_psi", lambda y, s: terms.append(y.size) or psi(y, s))
    assert run(tmp_path / "default", "histogram") == 0
    monkeypatch.setattr(coincidence, "_MAX_TERMS", sum(terms))
    capsys.readouterr()
    assert run(tmp_path / "narrow", "histogram", "--histogram.channel_width_s=1e-11") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "histogram.channel_width_s" in err
    assert "channel edges" in err
    assert not (tmp_path / "narrow" / "out").exists()


def test_channel_law_past_its_term_budget_is_config_error(tmp_path, monkeypatch, capsys):
    # 4,194,305 channel edges times 65,536 g2 cells per edge: 2.75e11 terms, hours of work.
    def no_pass(y, s):
        raise AssertionError("the channel law began its pass")

    monkeypatch.setattr(coincidence, "_psi", no_pass)
    assert run(tmp_path, "histogram", "--grid.n=65536", "--histogram.channel_width_s=1e-13",
               "--detector.jitter_sigma_s=2e-8", "--histogram.n_channels=4194304") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "4194305 channel edges" in err and "65536 g2 cells per edge" in err
    assert not (tmp_path / "out").exists()


def test_channel_law_term_budget_admits_exactly_its_count(tmp_path, monkeypatch, capsys):
    terms = []
    psi = coincidence._psi

    def counted(y, s):
        terms.append(y.size)
        return psi(y, s)

    monkeypatch.setattr(coincidence, "_psi", counted)
    assert run(tmp_path / "counted", "histogram") == 0
    total = sum(terms)  # Psi terms of the default histogram's one channel-law pass
    monkeypatch.setattr(coincidence, "_MAX_TERMS", total)
    assert run(tmp_path / "at", "histogram") == 0
    monkeypatch.setattr(coincidence, "_MAX_TERMS", total - 1)
    capsys.readouterr()
    assert run(tmp_path / "below", "histogram") == 2
    assert "channel edges" in capsys.readouterr().err
    assert not (tmp_path / "below" / "out").exists()


def test_channel_width_past_the_signal_puts_every_pair_at_zero_delay(tmp_path):
    # The edge indices of the channel law overflow to inf (and are clipped), quietly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "histogram", "--histogram.channel_width_s=1e300",
                   "--detector.dark_rate_per_channel_hz=0") == 0
    for arm in ("plus", "minus"):
        columns, meta = read_csv(tmp_path / "out" / f"histogram_{arm}.csv")
        expected = np.zeros(4096)
        expected[2048] = int(meta["n_pairs"])
        assert int(meta["n_pairs"]) > 0 and int(meta["underflow"]) == int(meta["overflow"]) == 0
        np.testing.assert_array_equal(columns["counts"], expected)


def test_overflowing_channel_span_is_config_error(tmp_path, capsys):
    # 4,096 channels of 1e306 s span past the float range
    assert run(tmp_path, "histogram", "--histogram.channel_width_s=1e306") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "histogram.channel_width_s" in err
    assert not (tmp_path / "out").exists()


def test_histogram_without_background_channels_says_so(tmp_path, capsys):
    # 512 channels end inside 3 signal supports: no channel can hold the floor
    code = run(tmp_path, "histogram", "--histogram.n_channels=512",
               "--detector.dark_rate_per_channel_hz=2")
    assert code == 0
    out = capsys.readouterr().out
    assert "background not subtracted" in out
    assert "(background subtracted)" not in out
    _, meta = read_csv(tmp_path / "out" / "histogram_plus.csv")
    assert int(meta["diag.background_channels"]) == 0


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_still_writes_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = run(tmp_path, "drift-series", "--drift_series.duration_s=600")
    assert code == 0
    assert (tmp_path / "out" / "drift_series.csv").is_file()
    assert capsys.readouterr().err == ""


# Small sizes, as in acceptance's repeatable-outputs run.
_SMALL = ["--histogram.acquisition_time_s=30", "--drift_series.duration_s=1800",
          "--surface.n_delta=5", "--surface.n_alpha=4", "--surface.n_tau=21"]


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_scenario_returns_its_tables_and_main_writes_them(tmp_path, capsys, scenario):
    # A scenario prints and writes nothing, and its headers lack the run record;
    # main writes each table under the record, then prints the report and the paths.
    out = tmp_path / "out"
    cfg = cli._load_config(None, cli._parse_overrides([*_SMALL, f"--sim.output_dir={out}"]))
    capsys.readouterr()
    tables, report = cli.SCENARIOS[scenario](cfg)
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []
    for _, _, header in tables:
        assert not [key for key in header if key == "scenario" or key.startswith("config.")]
    direct = tmp_path / "direct"
    direct.mkdir()
    record = cfg.metadata(scenario)
    write_csvs([(direct / name, columns, {**record, **header})
                for name, columns, header in tables])
    assert cli.main([scenario, *_SMALL, f"--sim.output_dir={out}"]) == 0
    names = [name for name, _, _ in tables]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [*report, *(str(out / n) for n in names)]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (direct / name).read_bytes()


@pytest.mark.parametrize("scenario", ["bell-postselect", "drift-series", "histogram"])
def test_failed_write_prints_no_report(tmp_path, capsys, scenario):
    (tmp_path / "taken").write_text("")
    code = cli.main([scenario, *_SMALL, f"--sim.output_dir={tmp_path / 'taken'}"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("runtime error:")


def test_failed_write_leaves_every_file_as_it_was(tmp_path, capsys):
    # histogram_minus.csv names a directory: the run fails before any file is
    # opened, and histogram_plus.csv keeps its earlier bytes (or stays absent)
    out = tmp_path / "out"
    (out / "histogram_minus.csv").mkdir(parents=True)
    assert run(tmp_path, "histogram") == 3
    assert capsys.readouterr().err.startswith("runtime error:")
    assert sorted(p.name for p in out.iterdir()) == ["histogram_minus.csv"]
    (out / "histogram_plus.csv").write_bytes(b"earlier")
    assert run(tmp_path, "histogram") == 3
    assert (out / "histogram_plus.csv").read_bytes() == b"earlier"
    assert sorted(p.name for p in out.iterdir()) == ["histogram_minus.csv", "histogram_plus.csv"]


@pytest.mark.parametrize("override, step", [((), 1.71e4), (("--fiber.k2_s2_per_m=1e-30",), 0.476)])
def test_g2_based_files_record_their_route(tmp_path, override, step):
    # g2_numeric transforms exactly below a chirp edge step of pi/4 and takes
    # the far-field image from there on; every file built on it says which
    for scenario, names in (("g2-curves", ("g2_plus", "g2_minus")),
                            ("histogram", ("histogram_plus", "histogram_minus"))):
        assert run(tmp_path / scenario, scenario, *override) == 0
        for name in names:
            _, meta = read_csv(tmp_path / scenario / "out" / f"{name}.csv")
            edge_step = float(meta["diag.chirp_edge_step_rad"])
            assert edge_step == pytest.approx(step, rel=2e-3)
            assert (edge_step >= np.pi / 4.0) == (not override)


def test_same_seed_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["histogram", "--histogram.acquisition_time_s=30",
            "--sim.output_dir=out"]
    assert cli.main(args) == 0
    first = {
        p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
    }
    for p in (tmp_path / "out").iterdir():
        p.unlink()
    assert cli.main(args) == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob


def test_seed_changes_counts(tmp_path):
    assert run(tmp_path, "histogram", "--histogram.acquisition_time_s=30",
               "--sim.seed=1") == 0
    a, _ = read_csv(tmp_path / "out" / "histogram_plus.csv")
    assert run(tmp_path, "histogram", "--histogram.acquisition_time_s=30",
               "--sim.seed=2") == 0
    b, _ = read_csv(tmp_path / "out" / "histogram_plus.csv")
    assert not np.array_equal(a["counts"], b["counts"])


def test_arms_of_neighbouring_seeds_do_not_share_streams(tmp_path):
    # the background-only tail channels of seed 8's plus arm and seed 7's
    # minus arm are independent draws, not one stream seen twice
    tails = {}
    for seed, arm in ((8, "plus"), (7, "minus")):
        assert run(tmp_path / str(seed), "histogram", f"--sim.seed={seed}") == 0
        columns, meta = read_csv(tmp_path / str(seed) / "out" / f"histogram_{arm}.csv")
        tail = np.abs(columns["tau_center_s"]) > 3.0 * float(meta["signal_support_s"])
        assert np.count_nonzero(tail) > 1000
        tails[arm] = np.asarray(columns["counts"])[tail]
    assert not np.array_equal(tails["plus"], tails["minus"])


def test_histogram_work_does_not_grow_with_acquisition_time(tmp_path):
    start = time.perf_counter()
    assert run(tmp_path, "histogram", "--histogram.acquisition_time_s=1e12") == 0
    assert time.perf_counter() - start < 10.0
    _, meta = read_csv(tmp_path / "out" / "histogram_plus.csv")
    mean = (float(meta["config.histogram.pair_rate_hz"])
            * float(meta["config.histogram.acquisition_time_s"])
            * float(meta["derived.pair_transmittance"])
            * float(meta["config.detector.efficiency_1"])
            * float(meta["config.detector.efficiency_2"]) / 2.0)
    assert abs(int(meta["n_pairs"]) - mean) < 6.0 * np.sqrt(mean)


def test_environment_seed_is_ignored(tmp_path, monkeypatch):
    # The config file and the command line are a run's only inputs.
    def outputs(*args):
        assert run(tmp_path, "histogram", "--histogram.acquisition_time_s=30", *args) == 0
        return {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}

    plain = outputs()
    for value in ("777", "abc"):
        monkeypatch.setenv("BIPHOTON_SEED", value)
        assert outputs() == plain
    outputs("--sim.seed=888")
    _, meta = read_csv(tmp_path / "out" / "histogram_plus.csv")
    assert int(meta["config.sim.seed"]) == 888


@pytest.mark.parametrize("scenario", ["histogram", "drift-series"])
def test_negative_seed_is_config_error(tmp_path, capsys, scenario):
    assert run(tmp_path, scenario, "--sim.seed=-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sim.seed" in err


def test_tau0_underflow_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "g2-curves", "--crystal.gvm_s_per_m=5e-324") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "tau0" in err and "gvm" in err


@pytest.mark.parametrize("override, code", [
    pytest.param("--postselect.half_width_s=1e300", 0, id="--postselect.half_width_s=1e300"),
    # the window edges would overflow here too, but |tau_f| is far below 1000 tau0
    pytest.param("--fiber.k2_s2_per_m=5e-324", 2, id="--fiber.k2_s2_per_m=5e-324"),
])
def test_bell_window_past_the_grid_keeps_every_sample(tmp_path, capsys, override, code):
    # both edges map beyond the grid (overflowing to +-inf): the band is the
    # whole of +-omega_max, not an error, and holds the continuum's norm,
    # which is the state's norm
    assert run(tmp_path, "bell-postselect", override) == code
    if code:
        assert capsys.readouterr().err.startswith(
            "config error: fiber.k2_s2_per_m, fiber.geometric_length_m: |tau_f| = ")
        return
    columns, _ = read_csv(tmp_path / "out" / "bell_postselect.csv")
    cfg = cli._load_config(None, {})
    state = pdc_state(cfg.crystal, cfg.grid)
    whole = np.trace(continuum_gram(state, -np.inf, np.inf)).real / state.norm()
    assert whole == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(columns["selected_fraction"], 1.0, rtol=0.0, atol=1e-12)


def test_bell_window_of_too_many_half_lobes_is_config_error(tmp_path, capsys):
    # 65,537 lobes each side: the state's Gram integral would take 262,148
    # half-lobe panels of 16 nodes, more than the 2^22 that the largest grid
    # has; pdc_state refuses before it allocates, whatever the window
    for extra in ((), ("--postselect.half_width_s=1e300",)):
        assert run(tmp_path, "bell-postselect", "--grid.half_range_lobes=65537", *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.half_range_lobes = 65537:")
        assert "more than 4194304 quadrature nodes" in err
        assert not (tmp_path / "out").exists()


def test_bell_whole_band_of_40000_lobes_gives_a_result(tmp_path):
    # 160,000 half-lobe panels of 16 nodes fit the 2^22 nodes
    assert run(tmp_path, "bell-postselect", "--grid.half_range_lobes=40000",
               "--postselect.half_width_s=1e300") == 0
    columns, _ = read_csv(tmp_path / "out" / "bell_postselect.csv")
    np.testing.assert_allclose(columns["selected_fraction"], 1.0, rtol=0.0, atol=1e-12)


def test_bell_on_a_weak_fiber_names_the_fiber_keys(tmp_path, capsys):
    # tau_f = 2 k2 z / tau0 = 3.84 tau0: the far-field map from window to band
    # overstates the psi- window's fidelity there by about 0.03, so the run
    # exits 2, naming the keys that set tau_f and both times in seconds
    assert run(tmp_path, "bell-postselect", "--fiber.k2_s2_per_m=1e-29",
               "--postselect.half_width_s=3.84e-15") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: fiber.k2_s2_per_m, fiber.geometric_length_m: "
                   "|tau_f| = 1.92e-13 s is below 1000 tau0 = 5e-11 s\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["g2-curves", "histogram"])
def test_g2_on_a_weak_fiber_needs_a_grid_that_samples_the_chirp(tmp_path, capsys, scenario):
    # tau_f = 3.84 tau0 and an edge step of 4.76 rad on 512 points: the
    # far-field image would miss the exact curve by 1.2 % of the joint peak, so
    # the run exits 2 naming the keys that can fix it and the least grid.n that
    # samples the chirp (4,096 points, edge step 0.592 rad); 65,536 points
    # (edge step 0.037 rad) give the exact transform
    assert run(tmp_path, scenario, "--fiber.k2_s2_per_m=1e-29") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: fiber.k2_s2_per_m, fiber.geometric_length_m, grid.n: "
                   "|tau_f| = 1.92e-13 s is below 1000 tau0 = 5e-11 s; 512 points miss the "
                   "chirp (edge step 4.76 rad >= pi/4), grid.n = 4096 samples it (0.592 rad)\n")
    assert not (tmp_path / "out").exists()
    assert run(tmp_path, scenario, "--fiber.k2_s2_per_m=1e-29", "--grid.n=65536") == 0


@pytest.mark.parametrize("scenario", ["g2-curves", "histogram"])
def test_g2_past_the_largest_grid_names_the_most_lobes_it_samples(tmp_path, capsys, scenario):
    # |tau_f| = 0.96 ps, just below 1000 tau0: the least grid that samples the chirp at 32
    # lobes has 2^24 points, past MAX_SPECTRAL_SAMPLES, so the refusal names the most lobes
    # that 2^22 points sample instead (edge step 0.732 rad at 18 lobes, 0.815 at 19)
    overrides = ("--fiber.k2_s2_per_m=2.5e-27", "--grid.half_range_lobes=32")
    assert run(tmp_path, scenario, *overrides) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: fiber.k2_s2_per_m, fiber.geometric_length_m, grid.n: "
                   "|tau_f| = 4.8e-11 s is below 1000 tau0 = 5e-11 s; 512 points miss the "
                   "chirp (edge step 1.9e+04 rad >= pi/4), no grid.n up to 4194304 samples it; "
                   "at that grid.n, grid.half_range_lobes = 18 does (0.732 rad)\n")
    assert not (tmp_path / "out").exists()
    steps = []
    for lobes in (18, 19):
        cfg = cli._load_config(None, cli._parse_overrides(
            [overrides[0], f"--grid.half_range_lobes={lobes}", f"--grid.n={MAX_SPECTRAL_SAMPLES}"]))
        steps.append(chirp_edge_step(cfg.grid, cfg.fiber))
    assert steps[0] < np.pi / 4 <= steps[1]
    assert f"{steps[0]:.3g}" == "0.732"


@pytest.mark.parametrize("scenario", ["g2-curves", "bell-postselect"])
def test_grid_n_refusal_names_its_key(tmp_path, capsys, scenario):
    assert run(tmp_path, scenario, "--grid.n=300") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: grid.n: n must be a power of two >= 256, got 300\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, width", [
    (("--drift.correlation_time_s=1e-320",), "inf"),
    (("--drift.step_angle_scale_rad=1e308", "--drift.time_step_s=3600"), "inf"),
    (("--drift.step_angle_scale_rad=0", "--drift.correlation_time_s=1e-320"), "nan"),
])
def test_drift_step_width_past_the_float_range_is_config_error(tmp_path, monkeypatch, capsys,
                                                                 overrides, width):
    # every key passes its own check, but the walk's step width
    # step_angle_scale * sqrt(time_step / correlation_time) is not a number
    monkeypatch.setattr(cli, "drift_operators", fail)
    assert run(tmp_path, "drift-series", *overrides) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: drift.correlation_time_s, drift.step_angle_scale_rad, "
                   "drift.time_step_s: step width step_angle_scale * sqrt(time_step / "
                   f"correlation_time) = {width} is not finite\n")
    assert not (tmp_path / "out").exists()


def test_g2_analytic_past_the_float_range_is_config_error(tmp_path, capsys):
    # tau0 = 1e240 s and tau_f = 3.5e-263 s: tau / tau_f overflows on the exact
    # route's tau axis, whose analytic column was all nan
    assert run(tmp_path, "g2-curves", "--crystal.crystal_length_m=1e250") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: crystal.gvm_s_per_m, crystal.crystal_length_m, "
                   "fiber.k2_s2_per_m, fiber.geometric_length_m: tau / tau_f_scale is not "
                   "finite on this tau axis (tau_f_scale = 3.456e-263 s)\n")
    assert not (tmp_path / "out").exists()


def test_too_narrow_bell_window_names_its_key(tmp_path, capsys):
    assert run(tmp_path, "bell-postselect", "--postselect.half_width_s=1e-30") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: postselect.half_width_s = 1e-30 s, psi_plus window:")
    assert "window carries" in err
    assert not (tmp_path / "out").exists()


def test_bell_postselect_allocates_no_grid_length_array(tmp_path):
    # one complex row of this grid is 32 MiB; the state is a 4x2 block, a
    # 2x2 Gram matrix and rows evaluated in blocks or over the band alone
    tracemalloc.start()
    try:
        assert run(tmp_path, "bell-postselect", "--grid.n=2097152") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "g2-curves", str(tmp_path / "nope.cfg")) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "named pipe"])
def test_config_path_that_is_no_regular_file_is_config_error(tmp_path, capsys, kind):
    # only a regular file is opened: reading a named pipe would block
    path = tmp_path / "cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "named pipe":
        os.mkfifo(path)
    assert run(tmp_path, "g2-curves", str(path)) == 2
    assert capsys.readouterr().err == (
        f"config error: config file not found or not a regular file: {path}\n")
    assert not (tmp_path / "out").exists()


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"[sim]\nseed = 4  # caf\xe9 in latin-1\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {cfg}:") and "utf-8" in err
    assert not (tmp_path / "out").exists()


def test_unknown_override_key_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "g2-curves", "--fiber.speed=3") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "speed" in err


def default_config_text():
    from importlib.resources import files

    return files("biphoton").joinpath("data/default.cfg").read_text()


def test_invalid_value_reports_file_and_line(tmp_path, capsys):
    # corrupt one value inside an otherwise complete config
    lines = default_config_text().splitlines()
    lineno = next(
        i for i, line in enumerate(lines, start=1)
        if line.startswith("k2_s2_per_m")
    )
    lines[lineno - 1] = "k2_s2_per_m = not_a_number"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{lineno}" in err


def test_partial_config_is_rejected(tmp_path, capsys):
    # config files are complete descriptions; deltas go on the command line
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("[sim]\nseed = 4\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    assert "missing required key" in capsys.readouterr().err


def test_duplicate_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("[fiber]\nk2_s2_per_m = 1e-26\nk2_s2_per_m = 2e-26\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    assert "duplicate" in capsys.readouterr().err


def test_duplicate_section_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("[sim]\nseed = 4\n\n[sim]\noutput_dir = x\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:4: duplicate section [sim]\n"


def test_line_without_equals_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text("[sim]\nseed 4  # no equals sign\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:2: expected 'key = value', got 'seed 4  # no equals sign'\n")


def test_hash_inside_a_file_value_is_part_of_it(tmp_path, monkeypatch):
    # '#' starts a comment only at the start of a line or after whitespace,
    # so the file and the command line give a value with '#' alike
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "hash.cfg"
    text = default_config_text()
    assert "output_dir = out\n" in text
    cfg.write_text(text.replace("output_dir = out\n", "output_dir = runs#3  # comment\n"))
    records = []
    for args in ([str(cfg)], ["--sim.output_dir=runs#3"]):
        assert cli.main(["bell-postselect", *args]) == 0
        _, meta = read_csv(tmp_path / "runs#3" / "bell_postselect.csv")
        records.append(meta)
    assert records[0]["config.sim.output_dir"] == "runs#3"
    assert records[1] == records[0]
    assert not (tmp_path / "runs").exists()


def test_hash_glued_to_a_number_is_config_error(tmp_path, capsys):
    lines = default_config_text().splitlines()
    lineno = lines.index("n = 512") + 1
    lines[lineno - 1] = "n = 512#x"
    cfg = tmp_path / "glued.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}:{lineno}: grid.n: not an integer: '512#x'\n")


def test_key_given_twice_on_the_command_line_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "g2-curves", "--sim.seed=1", "--sim.seed=2") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: command line: duplicate key sim.seed")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("arg", ["--sim.seed=5\n", "--sim.seed=5\r\n"])
def test_override_with_a_trailing_line_break_is_config_error(tmp_path, capsys, arg):
    assert run(tmp_path, "g2-curves", arg) == 2
    assert capsys.readouterr().err.startswith("config error: unrecognized argument")
    assert not (tmp_path / "out").exists()


def test_config_file_with_byte_order_mark_loads(tmp_path, monkeypatch):
    # A BOM-prefixed copy of the packaged default writes what the default writes.
    from importlib.resources import files

    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + files("biphoton").joinpath("data/default.cfg").read_bytes())
    outputs = []
    for home, config in (("plain", []), ("bom", [str(bom)])):
        (tmp_path / home).mkdir()
        monkeypatch.chdir(tmp_path / home)
        assert cli.main(["g2-curves", *config, "--sim.output_dir=out"]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / home / "out").iterdir()})
    assert set(outputs[0]) == {"g2_plus.csv", "g2_minus.csv"}
    assert outputs[1] == outputs[0]


def test_key_before_section_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("k2_s2_per_m = 1e-26\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    assert "section" in capsys.readouterr().err


def test_unknown_section_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "weird.cfg"
    cfg.write_text("[warp]\nfactor = 9\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    assert "warp" in capsys.readouterr().err


def test_unknown_section_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "weird.cfg"
    cfg.write_text("[sim]\nseed = 4\n\n[warp]\nfactor = 9\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{cfg}:4: unknown section [warp]" in err


@pytest.mark.parametrize("line", ["1abc = 3", "a b = 1"])
def test_bad_key_name_is_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad_key.cfg"
    cfg.write_text(f"[fiber]\n{line}\n")
    assert run(tmp_path, "g2-curves", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{cfg}:2" in err


def test_negative_length_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "g2-curves", "--fiber.geometric_length_m=-5") == 2
    assert "config error" in capsys.readouterr().err


def test_user_config_file_overrides_defaults(tmp_path):
    text = default_config_text()
    text = text.replace("seed = 20220225", "seed = 4")
    text = text.replace("acquisition_time_s = 600.0", "acquisition_time_s = 30.0")
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(text)
    assert run(tmp_path, "histogram", str(cfg)) == 0
    _, meta = read_csv(tmp_path / "out" / "histogram_plus.csv")
    assert int(meta["config.sim.seed"]) == 4
    assert float(meta["config.histogram.acquisition_time_s"]) == 30.0


def test_integer_too_large_for_a_float_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "histogram", "--grid.half_range_lobes=1" + "0" * 400) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


_SCHEMA_KEYS = [(sec, key) for sec, keys in cli._SCHEMA.items() for key in keys]
_ANY_VALUE = st.one_of(
    st.text(),
    st.integers(min_value=-(10**500), max_value=10**500).map(str),
    st.floats().map(repr),
    st.sampled_from(["1" + "0" * 400, "1e400", "5e-324", "-0", "nan", "single"]),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(_SCHEMA_KEYS), value=_ANY_VALUE)
def test_any_override_loads_or_is_config_error(key, value):
    try:
        cfg = cli._load_config(None, {key: cli._Entry(value, "command line")})
    except ConfigurationError:
        return
    assert isinstance(cfg, cli.ScenarioConfig)
