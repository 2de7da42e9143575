"""Coincidence shapes: closed forms, numeric transforms, post-selection."""

from dataclasses import replace

import numpy as np
import pytest

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
    polarization_overlap,
    postselect,
    random_unitary,
    retarder,
    tau_f,
    visibility,
)
from oracles import exact_transform, far_field_image

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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_route_follows_chirp_sampling(crystal, sign):
    # k2 z = 0.4 tau0^2: the edge phase step k2 z omega_max dOmega is 0.99 rad
    # on 512 points, at or above pi/4, and 0.49 rad on 1,024, below it
    tau0 = crystal.tau0
    fiber = FiberChannel(k2=sign * 0.4 * tau0**2 / 250.0, geometric_length=250.0)
    k2z = fiber.k2 * fiber.z
    for n, oracle in ((512, far_field_image), (1024, exact_transform)):
        grid = FrequencyGrid(n=n, omega_max=8 * np.pi / tau0)
        st = pdc_state(crystal, grid)
        far = abs(k2z) * grid.omega_max * grid.domega >= np.pi / 4
        assert far == (oracle is far_field_image)
        spacing = 2 * abs(k2z) * grid.domega if far else 2 * np.pi / (n * grid.domega)
        for analyzer in (PLUS_PLUS, PLUS_MINUS):
            res = g2_numeric(st, fiber, analyzer)
            np.testing.assert_allclose(np.diff(res.tau_grid), spacing, rtol=1e-9)
            tau, g2 = oracle(st, fiber, analyzer)
            np.testing.assert_array_equal(res.tau_grid, tau)
            np.testing.assert_array_equal(res.g2, g2)


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
    tf = tau_f(fiber, state.crystal)
    w = PostSelectionWindow(center=0.0, half_width=tf / 50)
    res = postselect(state, fiber, w)
    assert res.psi_plus_fidelity == pytest.approx(1.0, abs=1e-12)
    assert res.psi_minus_fidelity == pytest.approx(0.0, abs=1e-12)
    assert res.n_samples >= 1


def test_postselect_quarter_window_is_antisymmetric(state, fiber):
    tf = tau_f(fiber, state.crystal)
    w = PostSelectionWindow(center=0.5 * np.pi * tf, half_width=tf / 50)
    res = postselect(state, fiber, w)
    assert res.psi_minus_fidelity > 0.999
    # frozen regression value for the default 512-point grid
    assert res.psi_minus_fidelity == pytest.approx(0.9999620550574154, abs=1e-9)


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
    np.testing.assert_allclose(
        via_basis.amplitude, via_state.amplitude, atol=1e-12
    )


def test_postselect_empty_window_raises(state, fiber):
    tf = tau_f(fiber, state.crystal)
    far = PostSelectionWindow(center=1e6 * tf, half_width=tf / 50)
    with pytest.raises(ConfigurationError, match="no grid samples"):
        postselect(state, fiber, far)


def test_postselect_dead_band_raises(state, fiber):
    # HV - VH is 2i sinc(Omega tau0) sin(Omega tau0), exactly 0 at Omega = 0;
    # a window narrower than one sample at tau = 0 keeps that sample alone
    pol = np.zeros((4, 2), dtype=complex)
    pol[1] = (1, -1)
    w = PostSelectionWindow(center=0.0,
                            half_width=0.4 * state.grid.domega * 2.0 * fiber.k2 * fiber.z)
    with pytest.raises(ConfigurationError, match="window carries 0 of"):
        postselect(replace(state, pol=pol), fiber, w)


def mask_postselect(state, fiber, window):
    """Oracle: the band as a boolean mask over the whole grid.

    Returns (n_samples, band, psi+ fidelity, psi- fidelity, selected
    fraction); an empty or dead band raises ConfigurationError.
    """
    k2z = fiber.k2 * fiber.z
    lo = (window.center - window.half_width) / (2.0 * k2z)
    hi = (window.center + window.half_width) / (2.0 * k2z)
    if lo > hi:
        lo, hi = hi, lo
    omegas = state.grid.omegas
    mask = (omegas >= lo) & (omegas <= hi)
    n_samples = int(np.count_nonzero(mask))
    if n_samples == 0:
        raise ConfigurationError("window contains no grid samples")
    amp = state.amp
    band_norm = np.sum(np.abs(amp[:, :, mask]) ** 2) * state.grid.domega
    total = np.sum(np.abs(amp) ** 2) * state.grid.domega
    if band_norm <= 1e-12 * total:
        raise ConfigurationError("dead band")
    avg = np.mean(amp[:, :, mask], axis=2)
    avg = avg / np.linalg.norm(avg)
    fid_plus = abs(polarization_overlap(avg, PSI_PLUS)) ** 2
    fid_minus = abs(polarization_overlap(avg, PSI_MINUS)) ** 2
    return n_samples, (lo, hi), fid_plus, fid_minus, band_norm / total


def assert_same_selection(state, fiber, window):
    try:
        expected = mask_postselect(state, fiber, window)
    except ConfigurationError:
        with pytest.raises(ConfigurationError, match="no grid samples|window carries"):
            postselect(state, fiber, window)
        return None
    res = postselect(state, fiber, window)
    assert (res.n_samples, res.band) == expected[:2]
    assert res.psi_plus_fidelity == pytest.approx(expected[2], abs=1e-12)
    assert res.psi_minus_fidelity == pytest.approx(expected[3], abs=1e-12)
    assert res.selected_fraction == pytest.approx(expected[4], abs=1e-12)
    return res


def test_postselect_band_matches_mask_at_exact_edges(state):
    # 2 k2 z = 2^-75 exactly, so a half width omegas[z + k] * 2^-75 puts both
    # edges exactly on grid samples (the grid is antisymmetric about zero)
    fiber = FiberChannel(k2=2.0**-85, geometric_length=256.0, passes="go_and_return")
    scale = 2.0 * fiber.k2 * fiber.z
    omegas = state.grid.omegas
    z = state.grid.zero_index
    for k in (1, 7, 100, z):
        window = PostSelectionWindow(center=0.0, half_width=omegas[z + k] * scale)
        assert -window.half_width / scale == omegas[z - k]
        assert window.half_width / scale == omegas[z + k]
        assert assert_same_selection(state, fiber, window).n_samples == 2 * k + 1


def test_postselect_band_matches_mask_on_any_window(state, fiber, rng):
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
    ]
    for _ in range(200):
        windows.append(PostSelectionWindow(rng.uniform(-1.2, 1.2) * span,
                                           10.0 ** rng.uniform(-3.0, 0.5) * span))
    for window in windows:
        assert_same_selection(state, fiber, window)
    assert postselect(state, fiber, windows[4]).n_samples == state.grid.n_used
    assert postselect(state, fiber, windows[5]).n_samples == state.grid.n_used


def test_postselect_band_matches_mask_at_subnormal_dispersion(state):
    # k2 z is subnormal, so every finite window maps to the whole grid
    fiber = FiberChannel(k2=5e-324, geometric_length=240.0, passes="go_and_return")
    assert 0.0 < fiber.k2 * fiber.z < 2.2250738585072014e-308
    for window in (PostSelectionWindow(0.0, 1.3824e-11), PostSelectionWindow(1e-300, 1e300)):
        res = assert_same_selection(state, fiber, window)
        assert res.n_samples == state.grid.n_used


def test_postselect_nan_edge_selects_nothing(state):
    # k2 z overflows to inf; center + half width overflows too, so hi = inf / inf
    fiber = FiberChannel(k2=1e300, geometric_length=1e10, passes="go_and_return")
    window = PostSelectionWindow(1e308, 1e308)
    assert assert_same_selection(state, fiber, window) is None  # both raise


def test_selected_fractions_of_a_tiling_sum_to_one(state, rng):
    # windows whose edges sit halfway between samples tile the grid, so every
    # sample is selected once and the fractions add up to the whole norm
    fiber = FiberChannel(k2=2.0**-85, geometric_length=256.0, passes="go_and_return")
    scale = 2.0 * fiber.k2 * fiber.z
    grid = state.grid
    cuts = np.sort(rng.choice(np.arange(2, grid.n_used - 1), size=20, replace=False))
    edges = (np.concatenate(([0], cuts, [grid.n_used])) - grid.zero_index - 0.5) * grid.domega
    # a generic (non-unitary) plate mixes the rows and scales the total norm;
    # an arbitrary 4x2 block also weighs the imaginary part of a band's Gram
    plate = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pol = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    for st in (state, apply_local(state, plate), replace(state, pol=pol)):
        results = [assert_same_selection(st, fiber, PostSelectionWindow(
            0.5 * (lo + hi) * scale, 0.5 * (hi - lo) * scale)) for lo, hi in zip(edges, edges[1:])]
        assert sum(res.n_samples for res in results) == grid.n_used
        assert sum(res.selected_fraction for res in results) == pytest.approx(1.0, abs=1e-12)
