"""Command-line entry point: scenarios, config handling, reproducibility."""

import io
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import RetarderSpec, cli, g2_analytic
from biphoton.csvio import read_csv

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
    # The original scenario: one plate at a time, delta outer, alpha, tau inner.
    deltas = np.linspace(0.0, np.pi, n_d)
    alphas = np.linspace(0.0, np.pi / 2.0, n_a, endpoint=False)
    taus = np.linspace(-lobes * np.pi, lobes * np.pi, n_t) * scale
    expected = {"delta_rad": [], "alpha_rad": [], "tau_s": [], "g2_plus": [], "g2_minus": []}
    for d in deltas:
        for a in alphas:
            plate = RetarderSpec(d, a)
            expected["delta_rad"].append(np.full(n_t, d))
            expected["alpha_rad"].append(np.full(n_t, a))
            expected["tau_s"].append(taus)
            expected["g2_plus"].append(g2_analytic(taus, scale, plate, "plus"))
            expected["g2_minus"].append(g2_analytic(taus, scale, plate, "minus"))
    for name in ("delta_rad", "alpha_rad", "tau_s"):
        np.testing.assert_array_equal(columns[name], np.concatenate(expected[name]))
    for name in ("g2_plus", "g2_minus"):
        np.testing.assert_allclose(columns[name], np.concatenate(expected[name]),
                                   rtol=0.0, atol=1e-12)
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
    except cli.CliConfigError:
        return
    assert isinstance(cfg, cli.ScenarioConfig)
