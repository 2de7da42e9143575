"""Dispersive channel: walk-off scale, loss, slow drift."""

import numpy as np
import pytest

from biphoton import (
    ConfigurationError,
    DriftProcess,
    FiberChannel,
    drift_operators,
    drift_walk,
    faraday_mirror,
    round_trip,
    tau_f,
    transmittance,
)
from biphoton import fiber as fiber_module
from oracles import phase_aligned_distance


def test_effective_length_doubles_on_return():
    single = FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="single")
    both = FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="go_and_return")
    assert single.z == pytest.approx(240.0)
    assert both.z == pytest.approx(480.0)


def test_fiber_rejects_bad_arguments():
    with pytest.raises(ValueError):
        FiberChannel(k2=3.6e-26, geometric_length=-1.0)
    with pytest.raises(ValueError):
        FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="sideways")
    with pytest.raises(ValueError):
        FiberChannel(k2=3.6e-26, geometric_length=240.0, loss_db_per_km=-2.0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: DriftProcess(correlation_time=0.0), ConfigurationError,
     "correlation_time must be finite and > 0"),
    (lambda: DriftProcess(step_angle_scale=np.nan), ConfigurationError,
     "step_angle_scale must be finite and >= 0"),
    (lambda: DriftProcess(time_step=-1.0), ConfigurationError, "time_step must be finite and > 0"),
    (lambda: drift_operators(DriftProcess(), []), ValueError,
     "sample times must be a non-empty 1-d sequence"),
    (lambda: drift_operators(DriftProcess(), [0.0, -60.0]), ValueError,
     "sample times must be finite and >= 0"),
    (lambda: FiberChannel(k2=np.inf, geometric_length=240.0), ConfigurationError,
     "k2 must be finite"),
])
def test_fiber_inputs_are_checked(build, error, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("kwargs, width", [
    ({"correlation_time": 1e-320, "time_step": 3.6}, "inf"),
    ({"step_angle_scale": 1e308, "time_step": 3600.0}, "inf"),
    ({"step_angle_scale": 0.0, "correlation_time": 1e-320, "time_step": 3.6}, "nan"),
])
def test_drift_refuses_a_step_width_past_the_float_range(kwargs, width):
    with pytest.raises(ConfigurationError) as info:
        DriftProcess(**kwargs)
    assert str(info.value) == ("step width step_angle_scale * sqrt(time_step / correlation_time)"
                               f" = {width} is not finite")


def test_step_width_is_the_walks_sigma_to_the_bit():
    # the walk's former sigma, scale * np.sqrt(time_step / correlation_time)
    rng = np.random.default_rng(3)
    values = 10.0 ** rng.uniform(-100, 100, (200, 3))
    processes = [DriftProcess(), DriftProcess(correlation_time=1e-320)] + [
        DriftProcess(correlation_time=c, step_angle_scale=a, time_step=t)
        for c, a, t in [*values[:100], *values[100:].tolist()]]
    for p in processes:
        assert p.step_width == p.step_angle_scale * np.sqrt(p.time_step / p.correlation_time)


def test_tau_f_reference_value(fiber, crystal):
    # 2 * 3.6e-26 * 480 / 5e-14
    assert tau_f(fiber, crystal) == pytest.approx(6.912e-10, rel=1e-12)


def test_tau_f_scalings(crystal):
    base = FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="single")
    doubled_k2 = FiberChannel(k2=7.2e-26, geometric_length=240.0, passes="single")
    assert tau_f(doubled_k2, crystal) == pytest.approx(2 * tau_f(base, crystal))
    longer = FiberChannel(k2=3.6e-26, geometric_length=480.0, passes="single")
    assert tau_f(longer, crystal) == pytest.approx(2 * tau_f(base, crystal))


def test_transmittance_values(fiber):
    lossless = FiberChannel(k2=3.6e-26, geometric_length=240.0)
    assert transmittance(lossless) == 1.0
    lossy = FiberChannel(
        k2=3.6e-26,
        geometric_length=240.0,
        passes="go_and_return",
        loss_db_per_km=12.0,
    )
    # 12 dB/km over 0.48 km
    assert transmittance(lossy) == pytest.approx(10 ** (-0.576), rel=1e-12)
    one_km = FiberChannel(
        k2=3.6e-26, geometric_length=1000.0, passes="single", loss_db_per_km=12.0
    )
    assert transmittance(one_km) == pytest.approx(10 ** (-1.2), rel=1e-12)


def test_drift_starts_at_identity():
    p = DriftProcess(seed=5)
    walk = drift_walk(p, np.arange(11))
    np.testing.assert_array_equal(walk[0], np.eye(2, dtype=complex))
    assert walk.shape == (11, 2, 2)


def test_drift_default_time_step():
    p = DriftProcess(correlation_time=360.0)
    assert p.time_step == pytest.approx(3.6)


def test_drift_is_deterministic():
    p = DriftProcess(seed=77)
    a = drift_walk(p, np.arange(51))
    b = drift_walk(p, np.arange(51))
    np.testing.assert_array_equal(a, b)
    c = drift_walk(DriftProcess(seed=78), np.arange(51))
    assert np.max(np.abs(a - c)) > 1e-3


def test_drift_prefix_stable_across_horizons():
    # extending the horizon must not rewrite the earlier trajectory, bit for
    # bit, also at the edges of the 32-step prefix-product blocks, at 1 to 5
    # blocks, and at 1,023 to 1,025 blocks, where the carry scan goes from 10
    # to 11 passes (the long walk's 1,250 blocks take 11)
    p = DriftProcess(seed=3)
    long = drift_walk(p, np.arange(40_001))
    for k in (0, 20, 31, 32, 33, 64, 65, 96, 97, 128, 129, 160, 257,
              1023 * 32, 1024 * 32, 1024 * 32 + 1, 1025 * 32):
        np.testing.assert_array_equal(drift_walk(p, np.arange(k + 1)), long[: k + 1])


def test_drift_walk_carries_by_a_doubling_scan(monkeypatch):
    # 2^16 steps are 2,048 blocks: 31 in-block passes, 11 carry passes and one
    # product with the carries, where a carry loop over the blocks makes 2,079
    calls = []
    su2_mul = fiber_module._su2_mul

    def counted(*args):
        calls.append(1)
        return su2_mul(*args)

    monkeypatch.setattr(fiber_module, "_su2_mul", counted)
    drift_walk(DriftProcess(seed=8), np.arange(2**16 + 1))
    assert len(calls) <= 31 + 11 + 1


@pytest.mark.parametrize("steps", [
    [7, 0, 33, 33, 1, 0, 65, 64, 32, 4000, 2, 3999],
    [4000, 0],
    [0, 0],
    [4000],
])
def test_drift_walk_at_given_steps_matches_whole_walk(steps):
    # unsorted, repeated and zero steps get the whole walk's rows, bit for bit
    p = DriftProcess(seed=12)
    whole = drift_walk(p, np.arange(4001))
    walk = drift_walk(p, np.array(steps))
    assert walk.shape == (len(steps), 2, 2)
    np.testing.assert_array_equal(walk, whole[steps])


@pytest.mark.parametrize("steps", [10, np.int64(10), [1.5], [-1], [[1, 2]]])
def test_drift_walk_takes_step_indices_only(steps):
    # an old all-steps call, drift_walk(p, n), must not silently change meaning
    with pytest.raises(ValueError, match="step indices"):
        drift_walk(DriftProcess(), steps)


def _sequential_walk(process, n_steps):
    """Reference walk: the same draws multiplied one 2x2 step at a time."""
    out = np.empty((n_steps + 1, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    # substreams 0 (axes) and 1 (angles) of the process seed
    rng_axis = np.random.default_rng(np.random.SeedSequence([process.seed, 0]))
    rng_angle = np.random.default_rng(np.random.SeedSequence([process.seed, 1]))
    axes = rng_axis.normal(size=(n_steps, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    sigma = process.step_angle_scale * np.sqrt(process.time_step / process.correlation_time)
    angles = rng_angle.normal(size=n_steps) * sigma
    c = np.cos(angles / 2.0)
    s = np.sin(angles / 2.0)
    u = np.eye(2, dtype=complex)
    for j in range(n_steps):
        nx, ny, nz = axes[j]
        step = np.array(
            [
                [c[j] - 1j * s[j] * nz, (-1j * nx - ny) * s[j]],
                [(-1j * nx + ny) * s[j], c[j] + 1j * s[j] * nz],
            ]
        )
        u = step @ u
        out[j + 1] = u
    return out


def test_drift_walk_matches_sequential_products():
    p = DriftProcess(correlation_time=360.0, seed=17, time_step=0.36)
    n = 100_000
    walk = drift_walk(p, np.arange(n + 1))
    assert np.max(np.abs(walk - _sequential_walk(p, n))) <= 1e-12
    gram = np.swapaxes(walk, -1, -2).conj() @ walk
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_drift_samples_follow_walk():
    p = DriftProcess(correlation_time=360.0, seed=11)
    walk = drift_walk(p, np.arange(101))
    for t in (0.0, 3.5, 3.6, 100.0, 359.999):
        idx = int(np.floor(t / p.time_step))
        np.testing.assert_array_equal(drift_operators(p, [t])[0], walk[idx])


@pytest.mark.parametrize("time_step, t", [
    (1e-300, 10.0),  # 1e301 steps
    (1e-300, 1e308),  # the quotient overflows to inf
    (1.0, 1e19),  # past the int64 range
])
def test_drift_step_index_past_int_range_is_rejected(monkeypatch, time_step, t):
    def no_walk(*args):
        raise AssertionError("the walk must not start")

    monkeypatch.setattr(fiber_module, "_step_pairs", no_walk)
    with pytest.raises(ValueError, match="does not fit in an int"):
        drift_operators(DriftProcess(time_step=time_step), [0.0, t])


def test_drift_stays_unitary():
    p = DriftProcess(seed=9)
    walk = drift_walk(p, np.arange(501))
    eye = np.eye(2)
    for u in walk[::25]:
        np.testing.assert_allclose(u @ u.conj().T, eye, atol=1e-12)


def test_drift_decorrelates_within_correlation_time():
    # one correlation time of drift moves the transformation far from where it
    # started; the walk's steps are independent, so the 1,000 disjoint
    # 100-step increments of one walk are 1,000 samples of that displacement
    p = DriftProcess(correlation_time=360.0, step_angle_scale=np.pi)
    assert p.time_step * 100 == p.correlation_time
    walk = drift_walk(p, np.arange(100_001))[::100]
    u = walk[1:] @ np.swapaxes(walk[:-1], -1, -2).conj()
    sv = np.linalg.svd(np.eye(2) - u, compute_uv=False)
    assert np.mean(0.5 * np.sum(sv, axis=1)) > 0.5


def test_channel_operator_single_pass_is_raw_drift():
    drift = DriftProcess(seed=21)
    t = 1234.0
    step = int(t // drift.time_step)
    np.testing.assert_array_equal(drift_operators(drift, [t])[0],
                                  drift_walk(drift, np.arange(step + 1))[step])


def test_channel_operator_return_collapses_to_mirror():
    fm = faraday_mirror()
    for u in round_trip(drift_operators(DriftProcess(seed=21), [0.0, 500.0, 7200.0])):
        assert phase_aligned_distance(u, fm) < 1e-9


def test_channel_operator_single_pass_wanders():
    # late in the run most seeds have picked up substantial mixing
    hits = 0
    for seed in range(200):
        u = drift_operators(DriftProcess(seed=seed), [3600.0])[0]
        if abs(u[0, 1]) > 0.1:
            hits += 1
    assert hits > 180
