"""Coincidence shapes: closed forms, numeric transforms, post-selection."""

import numpy as np
import pytest

from biphoton import (
    PLUS_MINUS,
    PLUS_PLUS,
    AnalyzerConfig,
    BellTarget,
    ConfigurationError,
    CorrelationResult,
    CrystalParams,
    DegenerateInputError,
    EmptyWindowError,
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
from biphoton.csvio import read_csv

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


def test_far_field_needs_dispersion(state):
    flat = FiberChannel(k2=0.0, geometric_length=240.0)
    with pytest.raises(ConfigurationError):
        g2_numeric(state, flat, PLUS_PLUS)


def test_exact_fourier_matches_direct_sum(crystal):
    # rectangle-rule evaluation of the same transform, O(n^2), as oracle
    grid = FrequencyGrid(n=512, omega_max=8 * np.pi / crystal.tau0)
    st = pdc_state(crystal, grid)
    mild = FiberChannel(k2=2.5e-30, geometric_length=100.0, passes="single")
    res = g2_numeric(st, mild, PLUS_PLUS, mode="exact_fourier")

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
    res = g2_numeric(st, none, hv, mode="exact_fourier")
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


def test_exact_fourier_guards_chirp_sampling(state):
    # the physical default chirp is far too strong for a 512-point grid
    strong = FiberChannel(k2=3.6e-26, geometric_length=240.0, passes="go_and_return")
    with pytest.raises(ConfigurationError):
        g2_numeric(state, strong, PLUS_PLUS, mode="exact_fourier")


def test_exact_fourier_agrees_with_far_field_at_large_chirp(crystal):
    # in the strong-chirp limit the stationary-phase map becomes exact
    tau0 = crystal.tau0
    grid = FrequencyGrid(n=1 << 18, omega_max=8 * np.pi / tau0)
    st = pdc_state(crystal, grid)
    chirped = FiberChannel(
        k2=100 * tau0**2 / 500.0, geometric_length=500.0, passes="single"
    )
    for analyzer in (PLUS_PLUS, PLUS_MINUS):
        ff = g2_numeric(st, chirped, analyzer).peak_normalized()
        ef = g2_numeric(st, chirped, analyzer, mode="exact_fourier")
        interp = np.interp(ff.tau_grid, ef.tau_grid, ef.g2)
        peak = np.max(interp)
        assert peak > 0
        assert np.max(np.abs(ff.g2 - interp / peak)) < 1e-4


def test_total_rate_is_preserved(crystal, grid):
    # summed over a complete analyzer basis, the arrival-time distribution
    # carries the full unit norm of the state
    st = pdc_state(crystal, grid)
    none = FiberChannel(k2=0.0, geometric_length=1.0)
    total = 0.0
    for th1 in (0.0, np.pi / 2):
        for th2 in (0.0, np.pi / 2):
            res = g2_numeric(
                st, none, AnalyzerConfig(theta1=th1, theta2=th2), mode="exact_fourier"
            )
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
    with pytest.raises(DegenerateInputError):
        CorrelationResult(
            tau_grid=tau, g2=np.zeros(5), analyzer=PLUS_PLUS, normalization="raw"
        ).peak_normalized()


def test_correlation_csv_round_trip(tmp_path, state, fiber):
    res = g2_numeric(state, fiber, PLUS_PLUS)
    path = tmp_path / "curve.csv"
    res.to_csv(path, metadata={"note": "round-trip"})
    columns, metadata = read_csv(path)
    np.testing.assert_array_equal(columns["tau_s"], res.tau_grid)
    np.testing.assert_array_equal(columns["g2"], res.g2)
    assert metadata["note"] == "round-trip"


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
    with pytest.raises(EmptyWindowError):
        postselect(state, fiber, far)


def test_postselect_dead_band_raises(crystal, grid, fiber):
    # an envelope that vanishes over the selected band leaves nothing to keep
    def notched(omega):
        out = np.sinc(omega * crystal.tau0 / np.pi)
        out = np.where(np.abs(omega) < 0.1 / crystal.tau0, 0.0, out)
        return out

    st = pdc_state(crystal, grid, spectral_amplitude=notched)
    w = PostSelectionWindow(center=0.0, half_width=0.01 * tau_f(fiber, crystal))
    with pytest.raises(EmptyWindowError):
        postselect(st, fiber, w)


def mask_postselect(state, fiber, window):
    """Oracle: the band as a boolean mask over the whole grid.

    Returns (n_samples, band, psi+ fidelity, psi- fidelity); an empty or
    dead band raises EmptyWindowError.
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
        raise EmptyWindowError("window contains no grid samples")
    band_norm = np.sum(np.abs(state.amp[:, :, mask]) ** 2) * state.grid.domega
    if band_norm <= 1e-12 * np.sum(np.abs(state.amp) ** 2) * state.grid.domega:
        raise EmptyWindowError("dead band")
    avg = np.mean(state.amp[:, :, mask], axis=2)
    avg = avg / np.linalg.norm(avg)
    fid_plus = abs(polarization_overlap(avg, BellTarget.psi_plus())) ** 2
    fid_minus = abs(polarization_overlap(avg, BellTarget.psi_minus())) ** 2
    return n_samples, (lo, hi), fid_plus, fid_minus


def assert_same_selection(state, fiber, window):
    try:
        expected = mask_postselect(state, fiber, window)
    except EmptyWindowError:
        with pytest.raises(EmptyWindowError):
            postselect(state, fiber, window)
        return None
    res = postselect(state, fiber, window)
    assert (res.n_samples, res.band) == expected[:2]
    assert res.psi_plus_fidelity == pytest.approx(expected[2], abs=1e-12)
    assert res.psi_minus_fidelity == pytest.approx(expected[3], abs=1e-12)
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
