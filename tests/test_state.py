"""Two-photon spectral state: construction, local operations, overlaps."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    PSI_MINUS,
    PSI_PLUS,
    ConfigurationError,
    CrystalParams,
    FrequencyGrid,
    apply_local,
    faraday_mirror,
    pdc_state,
    random_unitary,
    retarder,
    round_trip,
)
from biphoton import state as state_module
from biphoton.state import BiphotonState, _both_photons
from oracles import continuum_gram, polarization_overlap


def test_crystal_derived_quantities(crystal):
    assert crystal.tau0 == pytest.approx(5e-14, rel=1e-12)


def test_crystal_rejects_nonpositive():
    with pytest.raises(ValueError):
        CrystalParams(pump_wavelength=-1.0, gvm=2e-10, length=5e-4)
    with pytest.raises(ValueError):
        CrystalParams(pump_wavelength=351e-9, gvm=0.0, length=5e-4)


@pytest.mark.parametrize("gvm, length", [(5e-324, 5e-4), (1e300, 1e10)])
def test_crystal_rejects_tau0_out_of_range(gvm, length):
    # both inputs are finite and positive, but tau0 = gvm * length / 2
    # underflows to 0 or overflows to inf
    with pytest.raises(ConfigurationError, match="tau0") as info:
        CrystalParams(pump_wavelength=351e-9, gvm=gvm, length=length)
    assert repr(gvm) in str(info.value) and repr(length) in str(info.value)


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        FrequencyGrid(n=500, omega_max=1e15)
    with pytest.raises(ValueError):
        FrequencyGrid(n=128, omega_max=1e15)


def test_grid_layout(grid):
    w = grid.omegas
    assert w.shape == (grid.n - 1,)
    assert w[grid.zero_index] == 0.0
    assert w[0] == pytest.approx(-grid.omega_max, rel=1e-12)
    assert w[-1] == pytest.approx(grid.omega_max, rel=1e-12)
    steps = np.diff(w)
    np.testing.assert_allclose(steps, grid.domega, rtol=1e-12)
    # symmetric about zero detuning
    np.testing.assert_allclose(w + w[::-1], 0.0, atol=1e-9 * grid.omega_max)


def test_pdc_state_structure(state, crystal):
    # co-polarized amplitudes are forbidden by the phase-matching geometry
    assert np.all(state.amp[0, 0] == 0.0)
    assert np.all(state.amp[1, 1] == 0.0)
    # at zero detuning the two orderings coincide
    hv = state.amp[0, 1]
    vh = state.amp[1, 0]
    i0 = state.grid.zero_index
    assert hv[i0] == pytest.approx(vh[i0], rel=1e-12)
    # the orderings differ only by the birefringent delay phase
    mask = np.abs(vh) > 1e-6 * np.abs(vh[i0])
    ratio = hv[mask] / vh[mask]
    expected = np.exp(2j * state.grid.omegas[mask] * crystal.tau0)
    np.testing.assert_allclose(ratio, expected, atol=1e-9)


def test_pdc_state_is_normalized(state):
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


def test_pdc_state_exchange_symmetry(state):
    # swapping polarizations while flipping the detuning sign is an identity
    flipped = state.amp[:, :, ::-1]
    np.testing.assert_allclose(
        state.amp[0, 1], np.transpose(flipped, (1, 0, 2))[0, 1], atol=1e-12
    )


def continuum_total(crystal, grid):
    """Oracle: the integral of |amp|^2 of the unit-scale pair amplitude over
    +-omega_max, twice that of one row (scipy quad)."""
    unit = BiphotonState(grid=grid, crystal=crystal, pol=np.eye(4, 2), scale=1.0)
    return 2.0 * continuum_gram(unit, -np.inf, np.inf)[0, 0].real


def dense_pdc_amp(crystal, grid):
    """Oracle: sinc and two exponentials over the whole grid, normalized by
    the continuum integral of |amp|^2."""
    tau0 = crystal.tau0
    omega = grid.omegas
    envelope = np.sinc(omega * tau0 / np.pi).astype(complex)
    amp = np.zeros((2, 2, grid.n_used), dtype=complex)
    amp[0, 1, :] = envelope * np.exp(1j * omega * tau0)
    amp[1, 0, :] = envelope * np.exp(-1j * omega * tau0)
    amp /= np.sqrt(continuum_total(crystal, grid))
    return amp


@pytest.mark.parametrize("n", [512, 2**14, 2**21])
def test_pdc_state_matches_dense_formula(crystal, n):
    grid = FrequencyGrid(n=n, omega_max=8.0 * np.pi / crystal.tau0)
    expected = dense_pdc_amp(crystal, grid)
    amp = pdc_state(crystal, grid).amp
    peak = np.max(np.abs(expected))
    # one polarization pair at a time keeps the 2^21 case small
    for got, want in zip(amp.reshape(4, -1), expected.reshape(4, -1)):
        assert np.max(np.abs(got - want)) <= 4e-15 * peak
    assert np.all(amp[0, 0] == 0.0) and np.all(amp[1, 1] == 0.0)


@pytest.mark.parametrize("lobes", [1, 8])
def test_norm_and_gram_are_exact_on_a_fine_grid(crystal, lobes):
    # a narrow envelope on 2^21 samples: a BLAS dot over the grid put the
    # norm 3.2e-14 off; the Gram matrix gives it to rounding, and this grid's
    # sum meets the continuum's within rounding too
    grid = FrequencyGrid(n=2**21, omega_max=lobes * np.pi / crystal.tau0)
    st = pdc_state(crystal, grid)
    assert abs(st.norm() - 1.0) <= 4e-16
    rows = st.rows_at(grid.omegas)
    # the rows as evaluated integrate to the norm and match their Gram matrix
    assert abs(np.sum(np.square(rows.view(float))) * grid.domega - 1.0) <= 1e-15
    np.testing.assert_allclose(st.gram(), rows.conj() @ rows.T * grid.domega, rtol=0, atol=2e-15)


@pytest.mark.parametrize("n", [256, 512, 2**21])
@pytest.mark.parametrize("lobes", [1, 8])
def test_state_gram_matches_the_continuum_oracle(crystal, n, lobes):
    st = pdc_state(crystal, FrequencyGrid(n=n, omega_max=lobes * np.pi / crystal.tau0))
    np.testing.assert_allclose(st.gram(), continuum_gram(st, -np.inf, np.inf), rtol=0, atol=1e-13)


@pytest.mark.parametrize("lobes", [1, 8])
def test_state_gram_does_not_depend_on_the_grid_size(crystal, lobes):
    small, large = (pdc_state(crystal, FrequencyGrid(n=n, omega_max=lobes * np.pi / crystal.tau0))
                    for n in (512, 2**21))
    assert small.scale == pytest.approx(large.scale, rel=1e-15)
    np.testing.assert_allclose(small.gram(), large.gram(), rtol=0, atol=1e-15)


def test_grid_sum_of_the_rows_misses_the_norm_by_the_sampling_error(crystal, grid):
    # 6.4e-11 at n = 512; at 2^21 it is rounding (test_norm_and_gram_are_exact_on_a_fine_grid)
    rows = pdc_state(crystal, grid).rows_at(grid.omegas)
    assert 1e-11 < abs(np.sum(np.square(rows.view(float))) * grid.domega - 1.0) <= 1e-10


def test_state_of_the_most_lobes_fits_the_node_cap(monkeypatch):
    # 16 nodes per half lobe, 4 half lobes per lobe: a cap of 448 nodes takes 7
    # lobes each side; omega_max = 7 pi / tau0 rounds either way of 14 half lobes,
    # and a count of panels is one or two over for 40 of these 300 crystals
    monkeypatch.setattr(state_module, "MAX_WINDOW_NODES", 448)
    rng = np.random.default_rng(5)
    for gvm, length in zip(10.0 ** rng.uniform(-14, -8, 300), 10.0 ** rng.uniform(-5, -1, 300)):
        crystal = CrystalParams(pump_wavelength=351e-9, gvm=gvm, length=length)
        pdc_state(crystal, FrequencyGrid(n=256, omega_max=7 * np.pi / crystal.tau0))
        with pytest.raises(ConfigurationError, match="quadrature nodes"):
            pdc_state(crystal, FrequencyGrid(n=256, omega_max=7.01 * np.pi / crystal.tau0))


def test_rows_on_any_slice_and_gram_match_the_whole_grid(crystal, grid, rng):
    st = pdc_state(crystal, grid)
    np.testing.assert_allclose(st.gram(), continuum_gram(st, -np.inf, np.inf), rtol=0, atol=1e-15)
    # the rows are elementwise in the detuning: a slice of the grid gives the same values
    whole = st.rows_at(grid.omegas)
    for start, stop in ((0, 1), (grid.zero_index, grid.zero_index + 1), (3, 300),
                        *(np.sort(rng.choice(grid.n_used + 1, 2, replace=False))
                          for _ in range(10))):
        np.testing.assert_allclose(st.rows_at(grid.omegas[start:stop]), whole[:, start:stop],
                                   rtol=0, atol=1e-15 * np.max(np.abs(whole)))


def test_norm_follows_the_gram_matrix_for_any_block(crystal, grid, rng):
    # a non-unitary element changes the norm, and so does an arbitrary 4x2
    # block; the contraction with the Gram matrix still equals the same
    # contraction with the quadrature oracle's
    state = pdc_state(crystal, grid)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pol = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    gram = continuum_gram(state, -np.inf, np.inf)
    for st in (apply_local(state, u), replace(state, pol=pol)):
        expected = np.einsum("pi,ij,pj->", st.pol.conj(), gram, st.pol).real
        assert st.norm() == pytest.approx(expected, rel=1e-14)
        assert abs(expected - 1.0) > 1e-3


def test_pdc_rejects_narrow_grid(crystal):
    # the window must cover at least the first zero of the envelope
    narrow = FrequencyGrid(n=512, omega_max=0.5 * np.pi / crystal.tau0)
    with pytest.raises(ConfigurationError):
        pdc_state(crystal, narrow)


def test_pdc_accepts_any_one_lobe_grid():
    # (pi / tau0) * tau0 can round one ulp below pi; a one-lobe grid still covers the lobe
    rng = np.random.default_rng(3)
    below = 0
    for gvm, length in zip(10.0 ** rng.uniform(-14, -8, 300), 10.0 ** rng.uniform(-5, -1, 300)):
        crystal = CrystalParams(pump_wavelength=351e-9, gvm=gvm, length=length)
        grid = FrequencyGrid(n=256, omega_max=1 * np.pi / crystal.tau0)
        below += grid.omega_max * crystal.tau0 < np.pi
        pdc_state(crystal, grid)
    assert below > 0
    crystal = CrystalParams(pump_wavelength=351e-9, gvm=2e-10, length=5e-4)
    with pytest.raises(ConfigurationError, match="grid too narrow"):
        pdc_state(crystal, FrequencyGrid(n=256, omega_max=0.9 * np.pi / crystal.tau0))


def test_state_survives_pickle_and_deepcopy(crystal, grid):
    # the state holds data only, so a copy evaluates the same rows bit for bit
    state = pdc_state(crystal, grid)
    whole = state.rows_at(grid.omegas)
    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert np.array_equal(copied.rows_at(grid.omegas), whole)
        assert np.array_equal(copied.gram(), state.gram())


def test_whole_band_gram_is_integrated_once_per_state(crystal, grid, monkeypatch):
    # pdc_state normalizes on the unit-scale state's integral; the plated state
    # integrates once more, however often its norm is read (bell-postselect
    # reads it for each window and for the header).
    whole = []
    gram = BiphotonState.gram

    def counted(self, lo=-np.inf, hi=np.inf):
        whole.append((lo, hi) == (-np.inf, np.inf))
        return gram(self, lo, hi)

    monkeypatch.setattr(BiphotonState, "gram", counted)
    state = apply_local(pdc_state(crystal, grid), retarder(np.pi / 2, np.pi / 8))
    norms = [state.norm() for _ in range(3)]
    assert sum(whole) == 2
    assert norms == [state.norm()] * 3
    assert norms[0] == float(np.einsum("pi,ij,pj->", state.pol.conj(), gram(state), state.pol).real)


def test_apply_local_identity_and_composition(state, rng):
    same = apply_local(state, np.eye(2, dtype=complex))
    np.testing.assert_array_equal(same.amp, state.amp)
    u = random_unitary(rng)
    v = random_unitary(rng)
    lhs = apply_local(apply_local(state, v), u)
    rhs = apply_local(state, u @ v)
    np.testing.assert_allclose(lhs.amp, rhs.amp, atol=1e-12)


def test_apply_local_norm_preserved(state, rng):
    for _ in range(5):
        st = apply_local(state, random_unitary(rng))
        assert st.norm() == pytest.approx(1.0, abs=1e-9)


def test_apply_local_mirror_swaps_orderings(state):
    st = apply_local(state, faraday_mirror())
    # (FM x FM) maps |HV> -> |VH> with a global sign that cancels in pairs
    np.testing.assert_allclose(st.amp[0, 1], state.amp[1, 0], atol=1e-12)
    np.testing.assert_allclose(st.amp[1, 0], state.amp[0, 1], atol=1e-12)


def test_apply_local_rejects_bad_matrix(state):
    with pytest.raises(ValueError):
        apply_local(state, np.eye(3))


def test_both_photons_matches_loop(rng):
    # the one 4x4 product behind apply_local and postselect's basis rotation, on a
    # single 2x2 slice and on a stack of slices
    u = random_unitary(rng)
    for shape in ((2, 2), (2, 2, 5)):
        s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        brute = np.zeros(shape, dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        brute[a, b] += u[a, c] * u[b, d] * s[c, d]
        np.testing.assert_allclose(_both_photons(u, s), brute, atol=1e-13)


def test_polarization_overlap_triplet_at_degeneracy(state):
    sl = state.amp[:, :, state.grid.zero_index]
    fid_plus = abs(polarization_overlap(sl, PSI_PLUS)) ** 2
    assert fid_plus == pytest.approx(1.0, abs=1e-12)
    fid_minus = abs(polarization_overlap(sl, PSI_MINUS)) ** 2
    assert fid_minus == pytest.approx(0.0, abs=1e-12)


def test_polarization_overlap_half_wave_at_22p5_kills_triplet(state):
    # a half-wave plate at 22.5 degrees rotates the symmetric state into
    # the antisymmetric one
    st = apply_local(state, retarder(np.pi / 2, np.pi / 8))
    sl = st.amp[:, :, st.grid.zero_index]
    assert abs(polarization_overlap(sl, PSI_PLUS)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_polarization_overlap_zero_slice_rejected():
    with pytest.raises(ValueError, match="zero norm"):
        polarization_overlap(np.zeros((2, 2), dtype=complex), PSI_PLUS)


def test_singlet_invariance(rng):
    # the antisymmetric combination is invariant under any collective rotation
    for _ in range(50):
        u = random_unitary(rng)
        rotated = u @ PSI_MINUS @ u.T
        fid = abs(polarization_overlap(rotated, PSI_MINUS)) ** 2
        assert fid == pytest.approx(1.0, abs=1e-12)


def test_bell_states_are_read_only():
    for target in (PSI_PLUS, PSI_MINUS):
        with pytest.raises(ValueError):
            target[0, 1] = 0.0


def test_round_trip_on_both_photons_restores_triplet(state, rng):
    # the go-and-return identity extends slice-wise to the pair state
    u = random_unitary(rng)
    rt = round_trip(u)
    st = apply_local(state, rt)
    sl = st.amp[:, :, st.grid.zero_index]
    fid = abs(polarization_overlap(sl, PSI_PLUS)) ** 2
    assert fid == pytest.approx(1.0, abs=1e-10)
