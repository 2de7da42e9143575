"""Polarization matrix algebra: rotators, retarders, mirror reflection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biphoton import (
    PreconditionError,
    RetarderSpec,
    analyzer_vector,
    backward,
    faraday_mirror,
    is_unitary,
    random_unitary,
    retarder,
    rotator,
    round_trip,
    unitarity_residual,
)
from biphoton.jones import ATOL_COMPOSED
from oracles import phase_aligned_distance

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def test_analyzer_vector_components():
    a = analyzer_vector(np.pi / 3)
    np.testing.assert_allclose(a, [0.5, np.sqrt(3) / 2], atol=1e-15)


def test_rotator_identity_and_composition():
    np.testing.assert_allclose(rotator(0.0), np.eye(2), atol=1e-15)
    # two eighth-turns make a quarter-turn
    np.testing.assert_allclose(
        rotator(np.pi / 4) @ rotator(np.pi / 4), rotator(np.pi / 2), atol=1e-15
    )


def test_rotator_orthogonal(rng):
    for _ in range(20):
        th = rng.uniform(-np.pi, np.pi)
        r = rotator(th)
        np.testing.assert_allclose(r @ r.conj().T, np.eye(2), atol=1e-14)


def test_rotator_rejects_nonfinite():
    with pytest.raises(ValueError):
        rotator(np.nan)


def test_retarder_known_matrices():
    # delta = 0: no retardation regardless of axis angle
    np.testing.assert_allclose(retarder(0.0, 0.3), np.eye(2), atol=1e-15)
    # quarter-turn phase on the principal axes
    np.testing.assert_allclose(
        retarder(np.pi / 2, 0.0), np.diag([1j, -1j]), atol=1e-15
    )
    # same plate rotated 45 degrees swaps the basis states
    np.testing.assert_allclose(
        retarder(np.pi / 2, np.pi / 4), np.array([[0, 1j], [1j, 0]]), atol=1e-15
    )


def test_retarder_eigenvalues(rng):
    # the retardation phases are invariant under axis rotation
    for _ in range(30):
        delta = rng.uniform(0.0, np.pi)
        alpha = rng.uniform(0.0, np.pi)
        u = retarder(delta, alpha)
        ev = np.linalg.eigvals(u)
        for target in (np.exp(1j * delta), np.exp(-1j * delta)):
            assert np.min(np.abs(ev - target)) < 1e-12


def test_retarder_unitary_unit_determinant(rng):
    for _ in range(30):
        u = retarder(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(u) - 1.0) < 1e-14


def test_retarder_spec_canonicalization():
    spec = RetarderSpec(delta=np.pi / 2 + np.pi, alpha=np.pi / 8 + 3 * np.pi)
    assert 0.0 <= spec.delta < np.pi
    assert 0.0 <= spec.alpha < np.pi
    # the physical action only changes by a global sign under delta -> delta + pi
    direct = retarder(np.pi / 2 + np.pi, np.pi / 8 + 3 * np.pi)
    assert phase_aligned_distance(spec.matrix(), direct) < 1e-12


def test_retarder_rejects_nonfinite():
    with pytest.raises(ValueError):
        retarder(np.inf, 0.0)
    with pytest.raises(ValueError):
        RetarderSpec(delta=0.1, alpha=np.nan)


def test_faraday_mirror_matrix():
    fm = faraday_mirror()
    np.testing.assert_array_equal(fm, np.array([[0, -1], [-1, 0]], dtype=complex))
    # horizontal input reflects to (minus) vertical
    np.testing.assert_allclose(fm @ np.array([1.0, 0.0]), [0.0, -1.0])
    # a returned copy must not alias module state
    fm[0, 0] = 99.0
    np.testing.assert_array_equal(faraday_mirror(), np.array([[0, -1], [-1, 0]]))


def test_backward_of_rotator_is_same_rotation():
    # geometric rotations look identical from both propagation directions
    for th in np.linspace(-np.pi, np.pi, 17):
        np.testing.assert_allclose(backward(rotator(th)), rotator(th), atol=1e-15)


def test_backward_preserves_diagonal_phases():
    d = np.diag([np.exp(0.7j), np.exp(-0.3j)])
    np.testing.assert_allclose(backward(d), d, atol=1e-15)


def test_backward_is_antihomomorphism(rng):
    for _ in range(50):
        u = random_unitary(rng)
        v = random_unitary(rng)
        np.testing.assert_allclose(
            backward(u @ v), backward(v) @ backward(u), atol=1e-13
        )


def test_backward_definition(rng):
    for _ in range(20):
        u = random_unitary(rng)
        np.testing.assert_allclose(backward(u), SIGMA_Z @ u.T @ SIGMA_Z, atol=1e-15)
    stack = np.array([random_unitary(rng) for _ in range(7)])
    np.testing.assert_allclose(
        backward(stack), SIGMA_Z @ np.swapaxes(stack, -1, -2) @ SIGMA_Z, atol=1e-15
    )


def test_backward_rejects_bad_input():
    with pytest.raises(ValueError):
        backward(np.eye(3))
    with pytest.raises(ValueError):
        backward(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_round_trip_collapses_to_mirror(rng):
    # forward pass, mirror, backward pass: the medium cancels up to det(u)
    for _ in range(200):
        u = random_unitary(rng)
        expected = np.linalg.det(u) * faraday_mirror()
        assert np.max(np.abs(round_trip(u) - expected)) < 1e-12


def test_round_trip_retarder_is_pure_mirror():
    # det(retarder) = 1, so the retardation cancels exactly
    u = retarder(1.234, 0.567)
    np.testing.assert_allclose(round_trip(u), faraday_mirror(), atol=1e-13)


def test_round_trip_requires_unitary():
    with pytest.raises(PreconditionError):
        round_trip(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex))


def test_round_trip_of_stack_matches_each_matrix(rng):
    stack = np.stack([random_unitary(rng) for _ in range(20)]).reshape(4, 5, 2, 2)
    out = round_trip(stack)
    assert out.shape == (4, 5, 2, 2)
    for idx in np.ndindex(4, 5):
        np.testing.assert_allclose(out[idx], round_trip(stack[idx]), rtol=0, atol=1e-15)


def test_round_trip_of_stack_requires_every_matrix_unitary(rng):
    stack = np.stack([random_unitary(rng) for _ in range(8)])
    stack[5] = stack[5] * (1.0 + 1e-6)
    assert not is_unitary(stack)
    with pytest.raises(PreconditionError):
        round_trip(stack)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16))
def test_round_trip_of_any_unitary_stack_is_mirror_times_det(seed, n):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_unitary(rng) for _ in range(n)])
    expected = np.linalg.det(stack)[:, None, None] * faraday_mirror()
    assert np.max(np.abs(round_trip(stack) - expected)) <= ATOL_COMPOSED


# Oracles: the stacked matrix products that round_trip and the unitarity
# check are written out from, entry by entry.
def product_round_trip(u):
    return backward(u) @ faraday_mirror() @ u


def gram_residuals(u):
    u = np.asarray(u, dtype=complex)
    return np.abs(np.swapaxes(u, -1, -2).conj() @ u - np.eye(2))


def gram_is_unitary(u, atol=ATOL_COMPOSED):
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2) or not np.all(np.isfinite(u)):
        return False
    return bool(np.all(gram_residuals(u) <= atol))


def haar_stack(rng, shape):
    n = int(np.prod(shape))
    return np.stack([random_unitary(rng) for _ in range(n)]).reshape(*shape, 2, 2)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_round_trip_matches_matrix_product(rng, shape):
    u = haar_stack(rng, shape)
    # U(2), not SU(2): the determinant phase must come through
    assert np.all(np.abs(np.linalg.det(u) - 1.0) > 1e-3)
    out = round_trip(u)
    assert out.shape == u.shape
    assert np.max(np.abs(out - product_round_trip(u))) <= 1e-15


def test_is_unitary_matches_gram_oracle(rng):
    u = haar_stack(rng, (6,))
    one_off = u.copy()
    one_off[4] *= 1.0 + 2.0 * ATOL_COMPOSED
    # unit columns that are not quite orthogonal: only the off-diagonal Gram entry is off
    eps = 2.0 * ATOL_COMPOSED
    skewed = u @ np.array([[1.0, eps], [0.0, np.sqrt(1.0 - eps**2)]])
    cases = [
        (u, True),
        (u[2], True),
        (np.swapaxes(u, -1, -2), True),  # a view whose last axis is not contiguous
        (u * (1.0 + 0.25 * ATOL_COMPOSED), True),
        (u * (1.0 - 0.25 * ATOL_COMPOSED), True),
        (u * (1.0 + 2.0 * ATOL_COMPOSED), False),
        (u * (1.0 - 2.0 * ATOL_COMPOSED), False),
        (u[3] * (1.0 - 2.0 * ATOL_COMPOSED), False),
        (one_off, False),
        (skewed, False),
        (np.array([[1.0, 1.0], [0.0, 0.0]]), False),
        (np.zeros((0, 2, 2)), True),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), False),
        (np.where(np.arange(4).reshape(2, 2) == 1, np.inf, u[0]), False),
        (np.array([[1.0, 0.0], [0.0, complex(1.0, np.inf)]]), False),
        (np.eye(3), False),
        (np.ones(2), False),
        (np.eye(2)[:, :1], False),
        (np.array(1.0), False),
    ]
    for matrix, expected in cases:
        assert gram_is_unitary(matrix) is expected
        assert is_unitary(matrix) is expected


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_unitarity_residual_matches_gram_oracle(rng, shape):
    # non-unitary (Ginibre) matrices: the residual is the worst Gram entry
    z = rng.normal(size=(*shape, 2, 2)) + 1j * rng.normal(size=(*shape, 2, 2))
    worst = float(np.max(gram_residuals(z)))
    assert unitarity_residual(z) == pytest.approx(worst, rel=1e-14)
    # unitary ones: rounding only, the same as the oracle's
    u = haar_stack(rng, shape)
    assert abs(unitarity_residual(u) - float(np.max(gram_residuals(u)))) <= 1e-15
    assert unitarity_residual(u) <= 1e-14


def test_unitarity_residual_of_exact_and_bad_inputs():
    assert unitarity_residual(np.eye(2)) == 0.0
    assert unitarity_residual(faraday_mirror()) == 0.0
    assert unitarity_residual(np.zeros((0, 2, 2))) == 0.0
    assert unitarity_residual(2.0 * np.eye(2)) == 3.0
    assert unitarity_residual(np.array([[1.0, 1.0], [0.0, 0.0]])) == 1.0
    for bad in (np.eye(3), np.ones(2), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        assert unitarity_residual(bad) == np.inf


def test_phase_aligned_distance_quotients_global_phase(rng):
    u = random_unitary(rng)
    assert phase_aligned_distance(u, np.exp(0.9j) * u) < 1e-14
    v = random_unitary(rng)
    # distinct unitaries should generically register a gap
    assert phase_aligned_distance(u, v) > 1e-3


def test_random_unitary_is_unitary(rng):
    for _ in range(50):
        u = random_unitary(rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-13)
