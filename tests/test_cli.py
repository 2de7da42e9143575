"""Command-line entry point: scenarios, config handling, reproducibility."""

import io
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    ConfigurationError,
    CrystalParams,
    DriftProcess,
    FrequencyGrid,
    PostSelectionWindow,
    RetarderSpec,
    cli,
    drift_operators,
    drift_timeseries,
    estimate_visibility,
    g2_analytic,
    pdc_state,
    simulate_histogram,
    transmittance,
    unitarity_residual,
)
from biphoton import fiber as fiber_module
from biphoton.csvio import read_csv
from biphoton.jones import ATOL_COMPOSED

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
        assert 0.0 <= float(meta["diag.norm_residual"]) < 1e-12
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
    assert "0.999" in out
    columns, meta = read_csv(tmp_path / "out" / "bell_postselect.csv")
    rows = dict(zip(columns["target"], range(len(columns["target"]))))
    plus_fid = np.asarray(columns["psi_plus_fidelity"])
    minus_fid = np.asarray(columns["psi_minus_fidelity"])
    assert plus_fid[rows["psi_plus"]] == pytest.approx(1.0, abs=1e-9)
    assert minus_fid[rows["psi_minus"]] > 0.999
    # each narrow window keeps a small share of the pairs
    assert all(0.0 < f < 0.1 for f in columns["selected_fraction"])
    assert 0.0 <= float(meta["diag.norm_residual"]) < 1e-12


@pytest.mark.parametrize("overrides, step", [((), 1.71e4), (("--grid.n=2097152",), 4.16),
                                             (("--fiber.k2_s2_per_m=1e-30",), 0.476)])
def test_bell_postselect_reports_chirp_edge_step(tmp_path, overrides, step):
    # |k2 z| omega_max dOmega; below pi/4 (the weak fiber) the far-field map
    # from window to band does not hold, and the header is where that shows
    assert run(tmp_path, "bell-postselect", *overrides) == 0
    _, meta = read_csv(tmp_path / "out" / "bell_postselect.csv")
    assert float(meta["diag.chirp_edge_step_rad"]) == pytest.approx(step, rel=2e-3)


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


def fail(*args, **kwargs):
    raise AssertionError("the guard must stop the run before this call")


@pytest.mark.parametrize("scenario", ["bell-postselect", "g2-curves", "histogram"])
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


def test_library_configuration_error_in_a_scenario_exits_2(tmp_path, monkeypatch, capsys):
    def unusable(*args, **kwargs):
        raise ConfigurationError("raised by the library")

    monkeypatch.setattr(cli, "pdc_state", unusable)
    assert run(tmp_path, "g2-curves") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "raised by the library" in err


# 4.24e-12 s/m over 0.96 mm: (pi / tau0) * tau0 rounds one ulp below pi
_ONE_LOBE_CRYSTAL = ("--grid.half_range_lobes=1", "--crystal.gvm_s_per_m=4.239606622777585e-12",
                     "--crystal.crystal_length_m=0.0009621636944233743")


@pytest.mark.parametrize("scenario, extra", [
    ("g2-curves", ()),
    # at one lobe the psi- window is centered midway between two grid samples, and the
    # default 13.8 ps half-width reaches neither at this crystal's tau_f (16.9 ns)
    ("bell-postselect", ("--postselect.half_width_s=3.4e-10",)),
    ("histogram", ()),
])
def test_one_lobe_grid_runs(tmp_path, capsys, scenario, extra):
    assert run(tmp_path, scenario, *_ONE_LOBE_CRYSTAL, *extra) == 0
    assert capsys.readouterr().err == ""


def test_largest_allowed_grid_reaches_the_state(tmp_path, monkeypatch, capsys):
    def reached(*args, **kwargs):
        raise RuntimeError("pdc_state reached")

    monkeypatch.setattr(cli, "pdc_state", reached)
    assert run(tmp_path, "bell-postselect", f"--grid.n={cli._MAX_GRID_N}") == 3
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


@pytest.mark.parametrize("overrides", [(), ("--detector.jitter_sigma_s=0", "--grid.n=1024")])
def test_histogram_files_match_one_arm_at_a_time(tmp_path, overrides):
    # Oracle: the scenario as one simulate_histogram and one to_csv per arm.
    argv = ("--sim.seed=5", *overrides)
    assert run(tmp_path, "histogram", *argv) == 0
    cfg = cli._load_config(None, cli._parse_overrides(
        [*argv, f"--sim.output_dir={tmp_path / 'out'}"]))
    common = dict(
        detectors=cfg.detectors,
        pair_rate=cfg["histogram.pair_rate_hz"],
        acquisition_time=cfg["histogram.acquisition_time_s"],
        channel_width=cfg["histogram.channel_width_s"],
        n_channels=cfg["histogram.n_channels"],
        transmittance=transmittance(cfg.fiber) ** 2,
    )
    hists = {}
    curves = cli._numeric_curves(cli._plate_state(cfg), cfg.fiber)
    for arm, (name, curve) in enumerate(zip(("plus", "minus"), curves)):
        seed = int(np.random.SeedSequence([cfg["sim.seed"], arm]).generate_state(1, np.uint64)[0])
        hists[name] = simulate_histogram(curve, seed=seed, **common)
    window = PostSelectionWindow(0.0, cfg["histogram.visibility_half_width_s"])
    meta = cfg.metadata("histogram")
    meta["derived.pair_transmittance"] = common["transmittance"]
    meta["diag.background_channels"] = estimate_visibility(
        hists["plus"], hists["minus"], window).background_channels
    for name, hist in hists.items():
        hist.to_csv(tmp_path / f"{name}.csv", {**meta, "arm": name})
        expected = (tmp_path / f"{name}.csv").read_bytes()
        assert (tmp_path / "out" / f"histogram_{name}.csv").read_bytes() == expected


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
    mean = (float(meta["pair_rate_hz"]) * float(meta["acquisition_time_s"])
            * float(meta["transmittance"]) * float(meta["efficiency_1"])
            * float(meta["efficiency_2"]) / 2.0)
    assert abs(int(meta["n_pairs"]) - mean) < 6.0 * np.sqrt(mean)


def test_environment_seed_applies(tmp_path, monkeypatch):
    monkeypatch.setenv("BIPHOTON_SEED", "777")
    assert run(tmp_path, "histogram", "--histogram.acquisition_time_s=30") == 0
    _, meta = read_csv(tmp_path / "out" / "histogram_plus.csv")
    assert int(meta["config.sim.seed"]) == 777


def test_explicit_seed_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BIPHOTON_SEED", "777")
    assert run(tmp_path, "histogram", "--histogram.acquisition_time_s=30",
               "--sim.seed=888") == 0
    _, meta = read_csv(tmp_path / "out" / "histogram_plus.csv")
    assert int(meta["config.sim.seed"]) == 888


def test_bad_environment_seed_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIPHOTON_SEED", "abc")
    assert run(tmp_path, "g2-curves") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "BIPHOTON_SEED" in err


@pytest.mark.parametrize("scenario", ["histogram", "drift-series"])
def test_negative_seed_is_config_error(tmp_path, capsys, scenario):
    assert run(tmp_path, scenario, "--sim.seed=-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sim.seed" in err


def test_negative_environment_seed_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIPHOTON_SEED", "-1")
    assert run(tmp_path, "histogram") == 2
    err = capsys.readouterr().err
    assert "BIPHOTON_SEED" in err and "sim.seed" in err


def test_tau0_underflow_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "g2-curves", "--crystal.gvm_s_per_m=5e-324") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "tau0" in err and "gvm" in err


@pytest.mark.parametrize("override", ["--postselect.half_width_s=1e300",
                                      "--fiber.k2_s2_per_m=5e-324"])
def test_bell_window_past_the_grid_keeps_every_sample(tmp_path, override):
    # both edges map beyond the grid (overflowing to +-inf): the band is the
    # whole grid, not an error
    assert run(tmp_path, "bell-postselect", override) == 0
    columns, meta = read_csv(tmp_path / "out" / "bell_postselect.csv")
    assert list(columns["n_band_samples"]) == [int(meta["config.grid.n"]) - 1] * 2
    np.testing.assert_allclose(columns["selected_fraction"], 1.0, atol=1e-12)


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
