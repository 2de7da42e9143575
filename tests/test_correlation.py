"""Coincidence shapes: closed forms, numeric transforms, post-selection."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from biphoton import (
    PLUS_MINUS,
    PLUS_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    AnalyzerConfig,
    ConfigurationError,
    CorrelationResult,
    CrystalParams,
    FiberChannel,
    FrequencyGrid,
    PostSelectionWindow,
    RetarderSpec,
    apply_local,
    g2_analytic,
    g2_numeric,
    pdc_state,
    postselect,
    random_unitary,
    retarder,
    tau_f,
    visibility,
)
from biphoton import state as state_module
from biphoton.correlation import chirp_edge_step
from biphoton.state import MAX_SPECTRAL_SAMPLES
from oracles import (
    continuum_gram,
    continuum_postselect,
    exact_transform,
    far_field_image,
    time_domain_window_gram,
)

TAU_F = 6.912e-10


def tau_axis(n=801, span=3.0):
    return np.linspace(-span * TAU_F, span * TAU_F, n)


def test_anticorrelated_dip_is_exact_zero():
    assert g2_analytic(0.0, TAU_F, which="minus") == 0.0


def test_correlated_peak_at_zero():
    tau = tau_axis()
    g = g2_analytic(tau, TAU_F, which="plus")
    assert np.argmax(g) == len(tau) // 2
    assert g[len(tau) // 2] == pytest.approx(1.0, abs=1e-12)


def test_quarter_period_values():
    # at tau = (pi/2) tau_f the two branches trade places:
    # the correlated curve vanishes, the anticorrelated one hits 4/pi^2
    t = 0.5 * np.pi * TAU_F
    assert g2_analytic(t, TAU_F, which="plus") == pytest.approx(0.0, abs=1e-12)
    assert g2_analytic(t, TAU_F, which="minus") == pytest.approx(
        4.0 / np.pi**2, abs=1e-12
    )


def test_plate_surface_reduces_without_retardation():
    tau = tau_axis(n=301)
    for alpha in (0.0, 0.2, np.pi / 4):
        plate = RetarderSpec(delta=0.0, alpha=alpha)
        np.testing.assert_allclose(
            g2_analytic(tau, TAU_F, plate=plate, which="plus"),
            g2_analytic(tau, TAU_F, which="plus"),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            g2_analytic(tau, TAU_F, plate=plate, which="minus"),
            g2_analytic(tau, TAU_F, which="minus"),
            atol=1e-12,
        )


def test_plate_surface_stays_bounded():
    tau = tau_axis(n=301)
    for delta in np.linspace(0, np.pi, 9):
        for alpha in np.linspace(0, np.pi / 2, 9, endpoint=False):
            plate = RetarderSpec(delta=delta, alpha=alpha)
            for which in ("plus", "minus"):
                g = g2_analytic(tau, TAU_F, plate=plate, which=which)
                assert np.all(g >= 0.0)
                assert np.max(g) <= 2.0 + 1e-12


def test_analytic_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        g2_analytic(0.0, 0.0)
    with pytest.raises(ConfigurationError):
        g2_analytic(0.0, -1.0)
    with pytest.raises(ValueError):
        g2_analytic(0.0, TAU_F, which="sideways")


@pytest.mark.parametrize("build, message", [
    (lambda: AnalyzerConfig(np.pi / 4.0, np.nan), "analyzer angles must be finite"),
    (lambda: CorrelationResult(tau_grid=[-1.0, 0.0, 1.0], g2=[1.0, 1.0], analyzer=PLUS_PLUS),
     "tau_grid and g2 must be 1-d arrays of equal length"),
    (lambda: PostSelectionWindow(center=np.inf, half_width=TAU_F), "center must be finite"),
    (lambda: PostSelectionWindow(center=0.0, half_width=0.0), "half_width must be finite and > 0"),
])
def test_correlation_inputs_are_checked(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def test_far_field_matches_closed_form(state, fiber):
    # spot checks on the plate lattice; the acceptance suite sweeps it fully.
    # both arms share one normalization constant so that an arm the plate
    # extinguishes stays identically zero instead of amplifying noise
    for delta, alpha in [(0.0, 0.0), (np.pi / 2, np.pi / 8), (1.1, 0.4)]:
        plate = RetarderSpec(delta=delta, alpha=alpha)
        st = apply_local(state, plate.matrix())
        num = {
            which: g2_numeric(st, fiber, analyzer)
            for analyzer, which in ((PLUS_PLUS, "plus"), (PLUS_MINUS, "minus"))
        }
        tau = num["plus"].tau_grid
        ref = {
            which: g2_analytic(
                tau, tau_f(fiber, state.crystal), plate=plate, which=which
            )
            for which in ("plus", "minus")
        }
        num_peak = max(np.max(num["plus"].g2), np.max(num["minus"].g2))
        ref_peak = max(np.max(ref["plus"]), np.max(ref["minus"]))
        for which in ("plus", "minus"):
            gap = np.abs(num[which].g2 / num_peak - ref[which] / ref_peak)
            assert np.max(gap) < 1e-9


def test_exact_fourier_matches_direct_sum(crystal):
    # rectangle-rule evaluation of the same transform, O(n^2), as oracle
    grid = FrequencyGrid(n=512, omega_max=8 * np.pi / crystal.tau0)
    st = pdc_state(crystal, grid)
    mild = FiberChannel(k2=2.5e-30, geometric_length=100.0, passes="single")
    res = g2_numeric(st, mild, PLUS_PLUS)

    e1 = np.array([np.cos(PLUS_PLUS.theta1), np.sin(PLUS_PLUS.theta1)])
    e2 = np.array([np.cos(PLUS_PLUS.theta2), np.sin(PLUS_PLUS.theta2)])
    amp = np.einsum("a,b,abk->k", e1, e2, st.amp)
    amp = amp * np.exp(1j * mild.k2 * mild.z * grid.omegas**2)
    direct = np.empty_like(res.g2)
    for j, t in enumerate(res.tau_grid):
        direct[j] = (
            np.abs(grid.domega * np.sum(amp * np.exp(-1j * grid.omegas * t))) ** 2
        )
    np.testing.assert_allclose(res.g2, direct, rtol=1e-9, atol=1e-12 * direct.max())


def test_exact_fourier_box_without_dispersion(crystal):
    # with no chirp the co/cross-polarized arrival difference is a flat box
    # of width 2*tau0 starting at zero delay
    grid = FrequencyGrid(n=4096, omega_max=64 * np.pi / crystal.tau0)
    st = pdc_state(crystal, grid)
    none = FiberChannel(k2=0.0, geometric_length=1.0)
    hv = AnalyzerConfig(theta1=0.0, theta2=np.pi / 2)
    res = g2_numeric(st, none, hv)
    total = np.sum(res.g2)
    inside = (res.tau_grid > -0.05 * crystal.tau0) & (
        res.tau_grid < 2.05 * crystal.tau0
    )
    assert np.sum(res.g2[inside]) / total > 0.95
    # flat on the interior of the box
    interior = (res.tau_grid > 0.2 * crystal.tau0) & (
        res.tau_grid < 1.8 * crystal.tau0
    )
    g_in = res.g2[interior]
    assert np.max(g_in) / np.min(g_in) < 1.2


def far_field_gap(coarse, fine, fiber):
    """Largest gap, in joint peaks, between the far-field image on ``coarse``
    and g2_numeric on ``fine``, a grid that samples the chirp (interpolated
    to the image's taus)."""
    far = [far_field_image(coarse, fiber, a) for a in (PLUS_PLUS, PLUS_MINUS)]
    exact = [g2_numeric(fine, fiber, a) for a in (PLUS_PLUS, PLUS_MINUS)]
    far_peak = max(np.max(g2) for _, g2 in far)
    exact_peak = max(np.max(r.g2) for r in exact)
    return max(np.max(np.abs(g2 / far_peak - np.interp(tau, r.tau_grid, r.g2) / exact_peak))
               for (tau, g2), r in zip(far, exact))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_route_follows_chirp_sampling(crystal, sign):
    # k2 z = 0.4 tau0^2, tau_f = 0.8 tau0: the edge phase step k2 z omega_max dOmega
    # is 0.99 rad on 512 points, at or above pi/4, and 0.49 rad on 1,024, below it.
    # The far-field image on 512 points would miss the exact transform by 0.35
    # of the joint peak, so g2_numeric refuses that grid; 1,024 points take the
    # exact transform.
    tau0 = crystal.tau0
    fiber = FiberChannel(k2=sign * 0.4 * tau0**2 / 250.0, geometric_length=250.0)
    coarse, fine, finest = (pdc_state(crystal, FrequencyGrid(n=n, omega_max=8 * np.pi / tau0))
                            for n in (512, 1024, 1 << 16))
    assert chirp_edge_step(coarse.grid, fiber) >= np.pi / 4 > chirp_edge_step(fine.grid, fiber)
    assert far_field_gap(coarse, finest, fiber) == pytest.approx(0.354, abs=1e-3)
    for analyzer in (PLUS_PLUS, PLUS_MINUS):
        with pytest.raises(ConfigurationError, match=r"s is below 1000 tau0 = 5e-11 s"):
            g2_numeric(coarse, fiber, analyzer)
        res = g2_numeric(fine, fiber, analyzer)
        np.testing.assert_allclose(np.diff(res.tau_grid), 2 * np.pi / (1024 * fine.grid.domega),
                                   rtol=1e-9)
        tau, g2 = exact_transform(fine, fiber, analyzer)
        np.testing.assert_array_equal(res.tau_grid, tau)
        np.testing.assert_array_equal(res.g2, g2)


@pytest.mark.parametrize("ratio", [0.4, -3.0, 40.0, 450.0])
def test_far_field_refusal_names_the_least_grid_that_samples_the_chirp(crystal, ratio):
    # k2 z = ratio tau0^2, so |tau_f| = 2 |ratio| tau0, below 1000 tau0; on 512 points
    # the edge step is 0.99 |ratio| rad.  The refusal names the least power of two
    # whose grid samples the chirp: the edge step there is below pi/4, at half it is not.
    tau0 = crystal.tau0
    fiber = FiberChannel(k2=ratio * tau0**2 / 250.0, geometric_length=250.0)
    state = pdc_state(crystal, FrequencyGrid(n=512, omega_max=8 * np.pi / tau0))
    with pytest.raises(ConfigurationError) as info:
        g2_numeric(state, fiber, PLUS_PLUS)
    message = re.fullmatch(r"\|tau_f\| = \S+ s is below 1000 tau0 = 5e-11 s; 512 points miss the "
                           r"chirp \(edge step (\S+) rad >= pi/4\), grid.n = (\d+) samples it "
                           r"\((\S+) rad\)", str(info.value))
    step, n, least_step = float(message[1]), int(message[2]), float(message[3])
    assert step == float(f"{chirp_edge_step(state.grid, fiber):.3g}")
    least, half = (chirp_edge_step(replace(state.grid, n=m), fiber) for m in (n, n // 2))
    assert least < np.pi / 4 <= half
    assert least_step == float(f"{least:.3g}")


def far_field_refusal(crystal, ratio, lobes):
    """g2_numeric's refusal on 512 points at k2 z = ratio tau0^2 and omega_max = lobes pi / tau0."""
    fiber = FiberChannel(k2=ratio * crystal.tau0**2 / 250.0, geometric_length=250.0)
    state = pdc_state(crystal, FrequencyGrid(n=512, omega_max=lobes * np.pi / crystal.tau0))
    with pytest.raises(ConfigurationError) as info:
        g2_numeric(state, fiber, PLUS_PLUS)
    return fiber, str(info.value)


@pytest.mark.parametrize("ratio, lobes", [(480.0, 32), (-499.0, 20), (-200.0, 40), (3.0, 300),
                                          (0.5, 700)])
def test_far_field_refusal_past_the_largest_grid_names_the_most_lobes_it_samples(
        crystal, ratio, lobes):
    # The edge step is 2 |ratio| pi^2 lobes^2 / (n - 2): at these lobe counts not even
    # MAX_SPECTRAL_SAMPLES points sample the chirp, so the refusal names the most lobes
    # that grid samples, at least 18 while |tau_f| = 2 |ratio| tau0 < 1000 tau0.
    fiber, text = far_field_refusal(crystal, ratio, lobes)
    message = re.fullmatch(r"\|tau_f\| = \S+ s is below 1000 tau0 = 5e-11 s; 512 points miss the "
                           r"chirp \(edge step \S+ rad >= pi/4\), no grid.n up to (\d+) samples "
                           r"it; at that grid.n, grid.half_range_lobes = (\d+) does \((\S+) rad\)",
                           text)
    n, most, most_step = int(message[1]), int(message[2]), float(message[3])
    assert n == MAX_SPECTRAL_SAMPLES and 18 <= most < lobes

    def edge_step(lobes):
        return chirp_edge_step(FrequencyGrid(n=n, omega_max=lobes * np.pi / crystal.tau0), fiber)

    assert edge_step(most) < np.pi / 4 <= edge_step(most + 1)
    assert most_step == float(f"{edge_step(most):.3g}")


@pytest.mark.parametrize("ratio", [0.4, -3.0, 40.0, 450.0])
@pytest.mark.parametrize("lobes", [8, 64, 512])
def test_far_field_refusal_names_no_grid_past_the_largest(crystal, ratio, lobes):
    # every case misses the chirp on 512 points; four need more than 2^22 points
    _, text = far_field_refusal(crystal, ratio, lobes)
    named = [int(n) for n in re.findall(r"grid\.n (?:=|up to) (\d+)", text)]
    assert len(named) == 1 and named[0] <= MAX_SPECTRAL_SAMPLES


@pytest.mark.parametrize("tau", [1e240, [0.0, -1e240], np.nan, [0.0, np.inf]])
def test_g2_analytic_refuses_a_tau_axis_past_the_float_range(tau):
    with pytest.raises(ConfigurationError) as info:
        g2_analytic(tau, 3.456e-263)
    assert str(info.value) == ("tau / tau_f_scale is not finite on this tau axis "
                               "(tau_f_scale = 3.456e-263 s)")


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_unsampled_grid_takes_the_far_field_image_from_1000_tau0(state, sign):
    # |tau_f| = 2 |k2 z| / tau0 around 1000 tau0, where 512 points are far from
    # sampling the chirp (edge step about 1,200 rad): the far-field image at and
    # past the bound, a refusal below it, for either sign of k2
    tau0 = state.crystal.tau0
    at, below = (FiberChannel(k2=sign * ratio * tau0**2 / 2.0, geometric_length=1.0)
                 for ratio in (1000.0 * (1.0 + 1e-9), 1000.0 * (1.0 - 1e-9)))
    assert min(chirp_edge_step(state.grid, fiber) for fiber in (at, below)) > 1000.0
    for analyzer in (PLUS_PLUS, PLUS_MINUS):
        res = g2_numeric(state, at, analyzer)
        tau, g2 = far_field_image(state, at, analyzer)
        np.testing.assert_array_equal(res.tau_grid, tau)
        np.testing.assert_array_equal(res.g2, g2)
        with pytest.raises(ConfigurationError, match=r"s is below 1000 tau0 = 5e-11 s"):
            g2_numeric(state, below, analyzer)


@pytest.mark.parametrize("k2, ratio", [(1e-29, 3.84), (1e-28, 38.4), (1e-27, 384.0)])
def test_far_field_g2_follows_the_deficit_law(crystal, k2, ratio):
    # The g2 counterpart of test_far_field_window_follows_the_time_domain_deficit_law.
    # The CLI's fiber (240 m go and return, no plate): its 512-point far-field image misses the
    # exact transform on 2^20 points, where the grid samples the chirp (edge
    # step at most 0.23 rad), by 0.173 (tau0 / tau_f)^2 of the joint peak.  At
    # 1000 tau0, where the far-field image starts, that is about 2e-7.  A plate
    # that lifts the minus arm makes the gap first order in tau0 / tau_f (see
    # test_exact_fourier_agrees_with_far_field_at_large_chirp).
    tau0 = crystal.tau0
    fiber = FiberChannel(k2=k2, geometric_length=240.0, passes="go_and_return")
    assert tau_f(fiber, crystal) == pytest.approx(ratio * tau0, rel=1e-12)
    coarse, fine = (pdc_state(crystal, FrequencyGrid(n, 8.0 * np.pi / tau0))
                    for n in (512, 1 << 20))
    assert chirp_edge_step(fine.grid, fiber) < 0.24
    assert 0.16 <= far_field_gap(coarse, fine, fiber) * ratio**2 <= 0.19


def test_exact_fourier_agrees_with_far_field_at_large_chirp(crystal):
    # in the strong-chirp limit the stationary-phase map becomes exact; this
    # grid still samples the chirp, so g2_numeric takes the exact transform
    tau0 = crystal.tau0
    grid = FrequencyGrid(n=1 << 18, omega_max=8 * np.pi / tau0)
    st = pdc_state(crystal, grid)
    chirped = FiberChannel(
        k2=100 * tau0**2 / 500.0, geometric_length=500.0, passes="single"
    )
    for analyzer in (PLUS_PLUS, PLUS_MINUS):
        ff_tau, ff = far_field_image(st, chirped, analyzer)
        ef = g2_numeric(st, chirped, analyzer)
        interp = np.interp(ff_tau, ef.tau_grid, ef.g2)
        peak = np.max(interp)
        assert peak > 0
        assert np.max(np.abs(ff / np.max(ff) - interp / peak)) < 1e-4
    # The closed forms are the far-field limit, not the exact transform: on a
    # plate that lifts the minus arm the exact curve misses them by 5.7e-3 of
    # the joint peak at k2 z = 100 tau0^2, a gap that falls as 1 / (k2 z).  So
    # acceptance 3 can hold to 1e-6 only on the far-field image.
    plate = RetarderSpec(delta=2.15, alpha=np.pi / 8)
    st = apply_local(st, plate.matrix())
    scale = tau_f(chirped, crystal)

    def gap_to_closed_form(curves):
        ana = {w: g2_analytic(tau, scale, plate=plate, which=w) for w, (tau, _) in curves.items()}
        num_peak = max(np.max(g2) for _, g2 in curves.values())
        ana_peak = max(np.max(a) for a in ana.values())
        return max(np.max(np.abs(g2 / num_peak - ana[w] / ana_peak))
                   for w, (_, g2) in curves.items())

    arms = {"plus": PLUS_PLUS, "minus": PLUS_MINUS}
    exact = {w: g2_numeric(st, chirped, a) for w, a in arms.items()}
    assert gap_to_closed_form({w: (r.tau_grid, r.g2) for w, r in exact.items()}) > 1e-3
    far = {w: far_field_image(st, chirped, a) for w, a in arms.items()}
    assert gap_to_closed_form(far) < 1e-9


def test_total_rate_is_preserved(crystal, grid):
    # summed over a complete analyzer basis, the arrival-time distribution
    # carries the full unit norm of the state
    st = pdc_state(crystal, grid)
    none = FiberChannel(k2=0.0, geometric_length=1.0)
    total = 0.0
    for th1 in (0.0, np.pi / 2):
        for th2 in (0.0, np.pi / 2):
            res = g2_numeric(st, none, AnalyzerConfig(theta1=th1, theta2=th2))
            dtau = res.tau_grid[1] - res.tau_grid[0]
            total += np.sum(res.g2) * dtau / (2 * np.pi)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_visibility_of_bare_state_is_unity(state, fiber):
    plus = g2_numeric(state, fiber, PLUS_PLUS)
    minus = g2_numeric(state, fiber, PLUS_MINUS)
    assert visibility(plus, minus) == pytest.approx(1.0, abs=1e-12)


def test_visibility_follows_half_wave_law(state, fiber):
    for alpha in (0.0, np.pi / 16, np.pi / 8, 0.3):
        st = apply_local(state, retarder(np.pi / 2, alpha))
        plus = g2_numeric(st, fiber, PLUS_PLUS)
        minus = g2_numeric(st, fiber, PLUS_MINUS)
        v = visibility(plus, minus)
        assert v == pytest.approx(np.cos(8 * alpha), abs=1e-9)


def test_visibility_requires_matching_grids(state, fiber):
    plus = g2_numeric(state, fiber, PLUS_PLUS)
    minus = g2_numeric(state, fiber, PLUS_MINUS)
    shifted = CorrelationResult(
        tau_grid=minus.tau_grid * 2.0,
        g2=minus.g2,
        analyzer=minus.analyzer,
        normalization=minus.normalization,
    )
    with pytest.raises(ValueError):
        visibility(plus, shifted)


def test_visibility_at_nan_tau_raises(state, fiber):
    plus = g2_numeric(state, fiber, PLUS_PLUS)
    minus = g2_numeric(state, fiber, PLUS_MINUS)
    with pytest.raises(ValueError, match="outside the sampled grid"):
        visibility(plus, minus, float("nan"))


def test_visibility_empty_denominator_is_marked():
    tau = np.linspace(-1.0, 1.0, 5)
    zero = CorrelationResult(
        tau_grid=tau, g2=np.zeros(5), analyzer=PLUS_PLUS, normalization="raw"
    )
    zero2 = CorrelationResult(
        tau_grid=tau, g2=np.zeros(5), analyzer=PLUS_MINUS, normalization="raw"
    )
    assert np.isnan(visibility(zero, zero2))


def test_correlation_result_validation():
    tau = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        CorrelationResult(
            tau_grid=tau[::-1], g2=np.ones(5), analyzer=PLUS_PLUS,
            normalization="raw",
        )
    with pytest.raises(ValueError):
        CorrelationResult(
            tau_grid=tau + 0.3, g2=np.ones(5), analyzer=PLUS_PLUS,
            normalization="raw",
        )
    with pytest.raises(ValueError):
        CorrelationResult(
            tau_grid=tau, g2=-np.ones(5), analyzer=PLUS_PLUS, normalization="raw"
        )
    with pytest.raises(ValueError, match="normalization"):
        CorrelationResult(
            tau_grid=tau, g2=np.ones(5), analyzer=PLUS_PLUS, normalization="peak_unity"
        )


def test_postselect_center_window_is_symmetric(state, fiber):
    # the band around Omega = 0 selects a mixture just short of psi+: the
    # rows e^{+-i Omega tau0} drift apart across the band
    tf = tau_f(fiber, state.crystal)
    res = postselect(state, fiber, PostSelectionWindow(center=0.0, half_width=tf / 50))
    assert res.psi_plus_fidelity == pytest.approx(0.999867, abs=5e-7)
    assert res.psi_plus_fidelity + res.psi_minus_fidelity == pytest.approx(1.0, abs=1e-12)
    assert res.selected_fraction == pytest.approx(0.012895, abs=5e-7)


def test_postselect_quarter_window_is_antisymmetric(state, fiber):
    tf = tau_f(fiber, state.crystal)
    w = PostSelectionWindow(center=0.5 * np.pi * tf, half_width=tf / 50)
    res = postselect(state, fiber, w)
    assert res.psi_minus_fidelity > 0.999
    # the independent continuum oracle, and its value to 6 digits
    assert res.psi_minus_fidelity == pytest.approx(continuum_postselect(state, fiber, w)[2],
                                                   abs=1e-12)
    assert res.psi_minus_fidelity == pytest.approx(0.999867, abs=5e-7)
    assert res.selected_fraction == pytest.approx(0.005227, abs=5e-7)


def test_postselect_antisymmetric_window_ignores_collective_plates(
    state, fiber, rng
):
    tf = tau_f(fiber, state.crystal)
    w = PostSelectionWindow(center=0.5 * np.pi * tf, half_width=tf / 50)
    base = postselect(state, fiber, w).psi_minus_fidelity
    for _ in range(20):
        u = random_unitary(rng)
        res = postselect(state, fiber, w, basis=u)
        assert abs(res.psi_minus_fidelity - base) < 1e-9


def test_postselect_basis_equals_preapplied_plate(state, fiber, rng):
    tf = tau_f(fiber, state.crystal)
    w = PostSelectionWindow(center=0.2 * tf, half_width=tf / 30)
    u = random_unitary(rng)
    via_basis = postselect(state, fiber, w, basis=u)
    via_state = postselect(apply_local(state, u), fiber, w)
    np.testing.assert_allclose(via_basis.density, via_state.density, atol=1e-12)
    assert via_basis.selected_fraction == pytest.approx(via_state.selected_fraction, abs=1e-12)


def test_postselect_empty_window_raises(state, fiber):
    # a window wholly past the grid's band holds none of the norm
    tf = tau_f(fiber, state.crystal)
    far = PostSelectionWindow(center=1e6 * tf, half_width=tf / 50)
    with pytest.raises(ConfigurationError, match="window carries 0 of"):
        postselect(state, fiber, far)


def test_postselect_dead_band_raises(state, fiber):
    # HV - VH is 2i sinc(Omega tau0) sin(Omega tau0), zero at Omega = 0: the
    # band Omega tau0 in +-1e-6 holds about 4e-19 of its norm
    pol = np.zeros((4, 2), dtype=complex)
    pol[1] = (1, -1)
    w = PostSelectionWindow(center=0.0,
                            half_width=1e-6 * 2.0 * fiber.k2 * fiber.z / state.crystal.tau0)
    with pytest.raises(ConfigurationError,
                       match=r"window carries \S+ of \S+ total norm \(below 1e-12\)"):
        postselect(replace(state, pol=pol), fiber, w)


def assert_same_selection(state, fiber, window, basis=None):
    """postselect against the quadrature oracle: both raise, or all values agree within 1e-12."""
    try:
        density, fid_plus, fid_minus, fraction = continuum_postselect(state, fiber, window, basis)
    except ConfigurationError:
        with pytest.raises(ConfigurationError, match="window carries"):
            postselect(state, fiber, window, basis)
        return None
    res = postselect(state, fiber, window, basis)
    np.testing.assert_allclose(res.density, density, rtol=0.0, atol=1e-12)
    assert res.psi_plus_fidelity == pytest.approx(fid_plus, abs=1e-12)
    assert res.psi_minus_fidelity == pytest.approx(fid_minus, abs=1e-12)
    assert res.selected_fraction == pytest.approx(fraction, abs=1e-12)
    return res


def whole_fraction(state):
    """The oracle's continuum norm over +-omega_max over the state's norm: 1 to rounding."""
    rho = state.pol @ continuum_gram(state, -np.inf, np.inf).conj() @ state.pol.conj().T
    return np.trace(rho).real / state.norm()


def test_postselect_matches_continuum_oracle_on_any_window(state, fiber, rng):
    tf = tau_f(fiber, state.crystal)
    span = 2.0 * fiber.k2 * fiber.z * state.grid.omega_max  # tau of the grid's last sample
    windows = [
        PostSelectionWindow(span, tf / 50),  # straddles the top end
        PostSelectionWindow(-span, tf / 50),  # straddles the bottom end
        PostSelectionWindow(1.5 * span, 0.6 * span),  # hi past the top end
        PostSelectionWindow(-1.5 * span, 0.6 * span),  # lo past the bottom end
        PostSelectionWindow(0.0, 3.0 * span),  # past both ends
        PostSelectionWindow(0.0, 1e300),  # both edges overflow to -inf / +inf
        PostSelectionWindow(0.3 * tf, 1e300),
        PostSelectionWindow(3.0 * span, tf / 50),  # wholly outside: empty
        PostSelectionWindow(0.3 * tf, 1e-9 * tf),  # narrower than one grid cell
    ]
    for _ in range(200):
        windows.append(PostSelectionWindow(rng.uniform(-1.2, 1.2) * span,
                                           10.0 ** rng.uniform(-3.0, 0.5) * span))
    for k, window in enumerate(windows):
        assert_same_selection(state, fiber, window, random_unitary(rng) if k % 2 else None)
    assert whole_fraction(state) == pytest.approx(1.0, abs=1e-12)
    for window in windows[4:7]:
        assert postselect(state, fiber, window).selected_fraction == pytest.approx(
            whole_fraction(state), abs=1e-12)


def test_postselect_matches_continuum_oracle_at_subnormal_dispersion(state):
    # k2 z is subnormal: the far-field map would send every finite window to the
    # whole band, as the oracle does, but |tau_f| is far below 1000 tau0, so no
    # window maps to a band and postselect refuses
    fiber = FiberChannel(k2=5e-324, geometric_length=240.0, passes="go_and_return")
    assert 0.0 < fiber.k2 * fiber.z < 2.2250738585072014e-308
    for window in (PostSelectionWindow(0.0, 1.3824e-11), PostSelectionWindow(1e-300, 1e300)):
        assert continuum_postselect(state, fiber, window)[3] == pytest.approx(
            whole_fraction(state), abs=1e-12)
        with pytest.raises(ConfigurationError, match=r"\|tau_f\| = \S+ s is below 1000 tau0"):
            postselect(state, fiber, window)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_postselect_refuses_below_1000_tau0(state, sign):
    # |tau_f| = 2 |k2 z| / tau0 from 1000 tau0 on, either sign of k2; k2 = 0 is refused too
    tau0 = state.crystal.tau0
    window = PostSelectionWindow(0.0, 1e300)  # the whole band, whatever tau_f
    for ratio in (1000.0 * (1.0 + 1e-9), 1e4, 1e12):
        fiber = FiberChannel(k2=sign * ratio * tau0**2 / 2.0, geometric_length=1.0)
        assert postselect(state, fiber, window).selected_fraction == pytest.approx(1.0, abs=1e-12)
    for ratio in (1000.0 * (1.0 - 1e-9), 1.0, 0.0):
        fiber = FiberChannel(k2=sign * ratio * tau0**2 / 2.0, geometric_length=1.0)
        with pytest.raises(ConfigurationError, match=r"s is below 1000 tau0 = 5e-11 s"):
            postselect(state, fiber, window)


@pytest.mark.parametrize("ratio, n", [(10, 2**18), (30, 2**20)])
def test_far_field_window_follows_the_time_domain_deficit_law(crystal, ratio, n):
    # Against the window taken in the time domain (an independent oracle: the
    # chirped rows transformed directly at Gauss nodes inside the window), the
    # far-field band overstates the psi- window's fidelity by 0.40 (tau0 / tau_f)^2
    # at either width, and the psi+ window's by less than 1e-5.  At 1000 tau0,
    # where postselect starts, that is 4e-7, below the six digits the CLI prints.
    tau0 = crystal.tau0
    st = pdc_state(crystal, FrequencyGrid(n, 8.0 * np.pi / tau0))
    fiber = FiberChannel(k2=ratio * tau0**2 / 200.0, geometric_length=100.0, passes="single")
    tf = tau_f(fiber, crystal)
    assert tf == pytest.approx(ratio * tau0, rel=1e-12)
    # the grid samples the chirp: edge phase step at most 0.025 rad
    assert abs(fiber.k2 * fiber.z) * st.grid.omega_max * st.grid.domega <= 0.025
    for half_width in (tf / 50, tf / 10):
        for k, (psi, center) in enumerate(((PSI_PLUS, 0.0), (PSI_MINUS, 0.5 * np.pi * tf))):
            window = PostSelectionWindow(center, half_width)
            far = continuum_postselect(st, fiber, window)[1 + k]
            rho = st.pol @ time_domain_window_gram(st, fiber, window).conj() @ st.pol.conj().T
            near = (psi.ravel().conj() @ rho @ psi.ravel()).real / np.trace(rho).real
            if psi is PSI_PLUS:
                assert 0.0 <= far - near < 1e-5
            else:
                assert 0.38 <= (far - near) * ratio**2 <= 0.42


def test_postselect_nan_edge_selects_nothing(state):
    # k2 z overflows to inf; center + half width overflows too, so hi = inf / inf
    fiber = FiberChannel(k2=1e300, geometric_length=1e10, passes="go_and_return")
    window = PostSelectionWindow(1e308, 1e308)
    assert assert_same_selection(state, fiber, window) is None  # both raise
    with pytest.raises(ConfigurationError, match="window carries 0 of"):
        postselect(state, fiber, window)


def test_selected_fractions_of_a_tiling_sum_to_one(state, rng):
    # windows that tile the band, the outer two reaching past its ends, select
    # the whole continuum norm once, and the state's norm is that integral
    fiber = FiberChannel(k2=2.0**-85, geometric_length=256.0, passes="go_and_return")
    scale = 2.0 * fiber.k2 * fiber.z
    w = state.grid.omega_max
    edges = np.concatenate(([-1.01 * w], np.sort(rng.uniform(-w, w, size=20)), [1.01 * w]))
    # a generic (non-unitary) plate mixes the rows and scales the total norm;
    # an arbitrary 4x2 block also weighs the imaginary part of a band's Gram
    plate = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pol = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    for st in (state, apply_local(state, plate), replace(state, pol=pol)):
        results = [postselect(st, fiber, PostSelectionWindow(
            0.5 * (lo + hi) * scale, 0.5 * (hi - lo) * scale)) for lo, hi in zip(edges, edges[1:])]
        assert sum(res.selected_fraction for res in results) == pytest.approx(1.0, abs=1e-12)


def test_window_gram_matches_quadrature_oracle(state, rng):
    w = state.grid.omega_max
    bands = [(-2.0 * w, 2.0 * w), (0.9 * w, 1.5 * w), (-1.5 * w, -0.9 * w), (1.1 * w, 1.2 * w),
             (-np.inf, np.inf), (0.0, 1e-12 * w)]
    for _ in range(60):
        center, half = rng.uniform(-1.3, 1.3) * w, 10.0 ** rng.uniform(-5.0, 0.5) * w
        bands.append((center - half, center + half))
    for lo, hi in bands:
        np.testing.assert_allclose(state.gram(lo, hi), continuum_gram(state, lo, hi),
                                   rtol=0.0, atol=1e-12)


def test_window_gram_does_not_move_with_twice_the_nodes(state, fiber, rng, monkeypatch):
    w = state.grid.omega_max
    bands = [(c - h, c + h) for c, h in zip(rng.uniform(-1.3, 1.3, 30) * w,
                                            10.0 ** rng.uniform(-5.0, 0.5, 30) * w)]
    tf = tau_f(fiber, state.crystal)
    windows = [PostSelectionWindow(c, h) for c in (0.0, 0.5 * np.pi * tf, 2.0 * tf)
               for h in (tf / 50, tf / 2, 5.0 * tf)]

    def values():
        grams = [state.gram(lo, hi) for lo, hi in bands]
        results = [postselect(state, fiber, window) for window in windows]
        return np.concatenate([np.ravel(grams), *(
            (res.psi_plus_fidelity, res.psi_minus_fidelity, res.selected_fraction,
             *res.density.ravel()) for res in results)])

    before = values()
    monkeypatch.setattr(state_module, "_gauss_legendre",
                        lambda: np.polynomial.legendre.leggauss(32))
    assert np.max(np.abs(values() - before)) <= 1e-13


def test_postselect_does_not_depend_on_the_grid_size(crystal, fiber):
    # the band and the norm are integrated on the continuum, whatever the grid
    # (2^21 samples, as the bell-fine-grid benchmark runs)
    tf = tau_f(fiber, crystal)
    states = [pdc_state(crystal, FrequencyGrid(n, 8.0 * np.pi / crystal.tau0))
              for n in (512, 2**21)]
    for center in (0.0, 0.5 * np.pi * tf):
        for half_width in (tf / 50, tf / 2):
            small, large = (postselect(st, fiber, PostSelectionWindow(center, half_width))
                            for st in states)
            assert small.psi_plus_fidelity == pytest.approx(large.psi_plus_fidelity, abs=1e-12)
            assert small.psi_minus_fidelity == pytest.approx(large.psi_minus_fidelity, abs=1e-12)
            assert small.selected_fraction == pytest.approx(large.selected_fraction, abs=1e-12)


def test_wide_window_selects_a_mixture(state, fiber):
    # over tau_f / 2 the rows e^{+-i Omega tau0} turn a quarter period apart; a
    # coherent average of the band would still report psi+ fidelity 1
    tf = tau_f(fiber, state.crystal)
    res = postselect(state, fiber, PostSelectionWindow(0.0, tf / 2))
    assert res.psi_plus_fidelity == pytest.approx(0.922457, abs=5e-7)
    assert np.trace(res.density).real == pytest.approx(1.0, abs=1e-15)
    assert np.trace(res.density @ res.density).real < 0.9  # purity: a mixed state


def test_postselect_of_a_state_of_tiny_scale(state, fiber):
    # |x|^2 of the band is subnormal at a polarization block of 1e-155: the
    # state is still selected, and one of 1e-170 carries no norm at all
    tf = tau_f(fiber, state.crystal)
    w = PostSelectionWindow(0.0, tf / 50)
    base = postselect(state, fiber, w)
    tiny = postselect(replace(state, pol=state.pol * 1e-155), fiber, w)
    assert tiny.psi_plus_fidelity == pytest.approx(base.psi_plus_fidelity, abs=1e-9)
    np.testing.assert_allclose(tiny.density, base.density, rtol=0.0, atol=1e-9)
    with pytest.raises(ConfigurationError, match="window carries 0 of 0 total norm"):
        postselect(replace(state, pol=state.pol * 1e-170), fiber, w)


def test_window_of_too_many_half_lobes_is_config_error(crystal, fiber):
    # 65,537 lobes each side: 262,148 half-lobe panels of 16 nodes, more than
    # 2^22; the state's own Gram integral is the widest band, so pdc_state stops
    with pytest.raises(ConfigurationError, match="quadrature nodes"):
        pdc_state(crystal, FrequencyGrid(512, 65537.0 * np.pi / crystal.tau0))
    state = pdc_state(crystal, FrequencyGrid(512, 40000.0 * np.pi / crystal.tau0))
    tf = tau_f(fiber, crystal)
    assert postselect(state, fiber, PostSelectionWindow(0.0, tf / 50)).psi_plus_fidelity > 0.999


def _unitary(a, b, t, g):
    return np.exp(1j * g) * np.array([[np.exp(1j * a) * np.cos(t), -np.exp(-1j * b) * np.sin(t)],
                                      [np.exp(1j * b) * np.sin(t), np.exp(-1j * a) * np.cos(t)]])


@settings(max_examples=150, deadline=None)
@given(center=hst.floats(-1.5, 1.5), half=hst.floats(1e-6, 2.0), split=hst.floats(0.0, 1.0),
       angles=hst.tuples(*[hst.floats(-np.pi, np.pi)] * 4),
       parts=hnp.arrays(float, (2, 4, 2), elements=hst.floats(-1.0, 1.0)))
def test_window_state_properties(center, half, split, angles, parts):
    # windows in units of the grid's band, some past its ends; a random
    # unitary analyzer frame and a random 4x2 polarization block
    crystal = CrystalParams(pump_wavelength=351e-9, gvm=2.0e-10, length=0.5e-3)
    state = pdc_state(crystal, FrequencyGrid(n=512, omega_max=8.0 * np.pi / crystal.tau0))
    fiber = FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="go_and_return")
    w = state.grid.omega_max
    lo, hi = (center - half) * w, (center + half) * w
    mid = lo + split * (hi - lo)
    whole = state.gram(lo, hi)
    parts_sum = state.gram(lo, mid) + state.gram(mid, hi)
    assert np.max(np.abs(whole - parts_sum)) <= 1e-15
    pol = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(pol) > 1e-3)
    st = replace(state, pol=pol / np.linalg.norm(pol))  # a state of unit scale
    span = 2.0 * fiber.k2 * fiber.z * w
    try:
        res = postselect(st, fiber, PostSelectionWindow(center * span, half * span),
                         basis=_unitary(*angles))
    except ConfigurationError:  # the band holds at most 1e-12 of this block's norm
        return
    rho = res.density
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-15 * np.trace(rho).real
    # both in [0, 1]: each is nonnegative, and their sum is at most 1 up to rounding
    assert res.psi_plus_fidelity >= 0.0 and res.psi_minus_fidelity >= 0.0
    assert res.psi_plus_fidelity + res.psi_minus_fidelity <= 1.0 + 1e-12
