"""Two-photon spectral state: construction, local operations, overlaps."""

import numpy as np
import pytest

from biphoton import (
    BellTarget,
    ConfigurationError,
    CrystalParams,
    DegenerateInputError,
    FrequencyGrid,
    apply_local,
    faraday_mirror,
    pdc_state,
    polarization_overlap,
    random_unitary,
    retarder,
    round_trip,
)
from biphoton.state import _both_photons

C_LIGHT = 299792458.0


def test_crystal_derived_quantities(crystal):
    assert crystal.tau0 == pytest.approx(5e-14, rel=1e-12)
    assert crystal.degenerate_wavelength == pytest.approx(702e-9, rel=1e-12)
    assert crystal.omega0 == pytest.approx(
        2 * np.pi * C_LIGHT / 702e-9, rel=1e-12
    )


def test_crystal_rejects_nonpositive():
    with pytest.raises(ValueError):
        CrystalParams(pump_wavelength=-1.0, gvm=2e-10, length=5e-4)
    with pytest.raises(ValueError):
        CrystalParams(pump_wavelength=351e-9, gvm=0.0, length=5e-4)


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


def test_pdc_rejects_narrow_grid(crystal):
    # the window must cover at least the first zero of the envelope
    narrow = FrequencyGrid(n=512, omega_max=0.5 * np.pi / crystal.tau0)
    with pytest.raises(ConfigurationError):
        pdc_state(crystal, narrow)


def test_pdc_custom_envelope(crystal, grid):
    def gauss(omega):
        return np.exp(-0.5 * (omega * crystal.tau0) ** 2)

    st = pdc_state(crystal, grid, spectral_amplitude=gauss)
    assert st.norm() == pytest.approx(1.0, abs=1e-9)
    i0 = grid.zero_index
    assert abs(st.amp[0, 1][i0]) > 0


def test_pdc_zero_envelope_rejected(crystal, grid):
    with pytest.raises(DegenerateInputError):
        pdc_state(crystal, grid, spectral_amplitude=lambda w: np.zeros_like(w))


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
    # the one einsum behind apply_local and postselect's basis rotation, on a
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
    sl = state.slice_at(state.grid.zero_index)
    fid_plus = abs(polarization_overlap(sl, BellTarget.psi_plus())) ** 2
    assert fid_plus == pytest.approx(1.0, abs=1e-12)
    fid_minus = abs(polarization_overlap(sl, BellTarget.psi_minus())) ** 2
    assert fid_minus == pytest.approx(0.0, abs=1e-12)


def test_polarization_overlap_half_wave_at_22p5_kills_triplet(state):
    # a half-wave plate at 22.5 degrees rotates the symmetric state into
    # the antisymmetric one
    st = apply_local(state, retarder(np.pi / 2, np.pi / 8))
    sl = st.slice_at(st.grid.zero_index)
    assert abs(polarization_overlap(sl, BellTarget.psi_plus())) == pytest.approx(
        0.0, abs=1e-12
    )


def test_polarization_overlap_zero_slice_rejected():
    with pytest.raises(DegenerateInputError):
        polarization_overlap(np.zeros((2, 2), dtype=complex), BellTarget.psi_plus())


def test_singlet_invariance(rng):
    # the antisymmetric combination is invariant under any collective rotation
    singlet = BellTarget.psi_minus().amplitude
    for _ in range(50):
        u = random_unitary(rng)
        rotated = u @ singlet @ u.T
        fid = abs(polarization_overlap(rotated, BellTarget.psi_minus())) ** 2
        assert fid == pytest.approx(1.0, abs=1e-12)


def test_bell_target_annotations(crystal):
    t = BellTarget.psi_minus(crystal)
    shift = np.pi / (2 * crystal.tau0)
    assert t.omega1 == pytest.approx(crystal.omega0 + shift, rel=1e-12)
    assert t.omega2 == pytest.approx(crystal.omega0 - shift, rel=1e-12)


def test_round_trip_on_both_photons_restores_triplet(state, rng):
    # the go-and-return identity extends slice-wise to the pair state
    u = random_unitary(rng)
    rt = round_trip(u)
    st = apply_local(state, rt)
    sl = st.slice_at(st.grid.zero_index)
    fid = abs(polarization_overlap(sl, BellTarget.psi_plus())) ** 2
    assert fid == pytest.approx(1.0, abs=1e-10)
