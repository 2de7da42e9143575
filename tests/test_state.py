"""Two-photon spectral state: construction, local operations, overlaps."""

import copy
import math
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
from biphoton.state import _both_photons, _sinc_sums
from oracles import polarization_overlap


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


def dense_pdc_amp(crystal, grid):
    """Oracle: sinc and two exponentials over the whole grid, normalized by
    the sum of |amp|^2 over all four polarization blocks."""
    tau0 = crystal.tau0
    omega = grid.omegas
    envelope = np.sinc(omega * tau0 / np.pi).astype(complex)
    amp = np.zeros((2, 2, grid.n_used), dtype=complex)
    amp[0, 1, :] = envelope * np.exp(1j * omega * tau0)
    amp[1, 0, :] = envelope * np.exp(-1j * omega * tau0)
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.domega)
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
    # norm 3.2e-14 off; the Gram matrix of the rows gives it to rounding
    grid = FrequencyGrid(n=2**21, omega_max=lobes * np.pi / crystal.tau0)
    st = pdc_state(crystal, grid)
    assert abs(st.norm() - 1.0) <= 4e-16
    rows = st.rows(0, grid.n_used)
    # the rows as evaluated integrate to the norm and match their Gram matrix
    assert abs(np.sum(np.square(rows.view(float))) * grid.domega - 1.0) <= 1e-15
    np.testing.assert_allclose(st.gram, rows.conj() @ rows.T * grid.domega, rtol=0, atol=2e-15)


def sinc_sums_by_fsum(m, step):
    """Sum sinc^2 and sinc^2 sin^2 of k step over k = -m..m, from np.sin(k step) / (k step)."""
    theta = np.arange(1, m + 1) * step
    sin = np.sin(theta)
    sinc2 = np.square(sin / theta)
    return 1.0 + 2.0 * math.fsum(sinc2), 2.0 * math.fsum(sinc2 * np.square(sin))


def grid_step(n, lobes):
    """dOmega tau0 on an n-point grid of omega_max = lobes pi / tau0."""
    return 2.0 * lobes * np.pi / (n - 2)


# m = n/2 - 1 at n = 256 (less than one block); at no power of two, far blocks
# then a partial last one; the first far block alone, then a partial one; at
# n = 2^18, one and two lobes, and at n = 2^21, eight lobes and one (a block
# spans 0.003 rad there, so every cos^u table row is close to 1); and at the
# coarsest grid, step pi/2
SINC_SIZES = [(127, grid_step(256, 8)), (3 * 2**14 + 1234, 16.0 * np.pi / 100772),
              (17 * 2**10 + 517, grid_step(2**16, 8)),
              (2**17 - 1, grid_step(2**18, 1)), (2**17 - 1, grid_step(2**18, 2)),
              (2**20 - 1, grid_step(2**21, 8)), (2**20 - 1, grid_step(2**21, 1)),
              (2**17 - 1, np.pi / 2)]


# Blocks of 7 far out in a large grid take the series from a short table.  Blocks
# of 2^16 sum every sample term by term; at step pi/2 their 2^16-term w @ s2
# (sequential BLAS accumulation) is 3.6e-15 off, so that pair is left out.
@pytest.mark.parametrize("m, step, block", [(m, step, block) for m, step in SINC_SIZES
                                            for block in (None, 7, 2**16)
                                            if not (block == 2**16 and step == np.pi / 2)])
def test_sinc_sums_match_fsum_of_closed_form(monkeypatch, m, step, block):
    if block is not None:
        monkeypatch.setattr(state_module, "_BLOCK", block)
    got = _sinc_sums(m, step)
    for value, want in zip(got, sinc_sums_by_fsum(m, step)):
        assert value == pytest.approx(want, rel=2e-15, abs=0.0)


def test_rows_on_any_slice_and_gram_match_the_whole_grid(crystal, grid, rng):
    st = pdc_state(crystal, grid)
    whole = st.rows(0, grid.n_used)
    np.testing.assert_allclose(st.gram, whole.conj() @ whole.T * grid.domega, rtol=0, atol=1e-15)
    for start, stop in ((0, 1), (grid.zero_index, grid.zero_index + 1), (3, 300),
                        *(np.sort(rng.choice(grid.n_used + 1, 2, replace=False))
                          for _ in range(10))):
        np.testing.assert_allclose(st.rows(start, stop), whole[:, start:stop],
                                   rtol=0, atol=1e-15 * np.max(np.abs(whole)))


def test_norm_follows_the_gram_matrix_for_any_block(crystal, grid, rng):
    # a non-unitary element changes the norm, and so does an arbitrary 4x2
    # block; the contraction with the Gram matrix still equals the sum over
    # the materialized amplitude
    state = pdc_state(crystal, grid)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    pol = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    for st in (apply_local(state, u), replace(state, pol=pol)):
        dense = np.sum(np.abs(st.amp) ** 2) * grid.domega
        assert st.norm() == pytest.approx(dense, rel=1e-14)
        assert abs(dense - 1.0) > 1e-3


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
    whole = state.rows(0, grid.n_used)
    for copied in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert np.array_equal(copied.rows(0, grid.n_used), whole)
        assert np.array_equal(copied.gram, state.gram)


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
