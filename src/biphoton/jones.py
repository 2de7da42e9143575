"""Jones calculus over the (H, V) basis.

Vectors are length-2 complex arrays, operators are 2x2 complex arrays, with
index 0 = horizontal and index 1 = vertical.  A retarder with retardance
``delta`` (half the total phase split between fast and slow axis) and fast
axis at ``alpha`` from horizontal is

    retarder(delta, alpha) = rotator(alpha) @ diag(e^{i delta}, e^{-i delta}) @ rotator(-alpha)

so ``delta = pi/2`` is a half-wave plate.  The Faraday mirror is the fixed
matrix [[0, -1], [-1, 0]]; combined with the transposition convention of
``backward`` it cancels any unitary acquired on the forward pass.

The round trip and the unitarity check take one matrix or a (..., 2, 2)
stack and are computed elementwise on the four entry arrays u[..., i, j],
with no stacked matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import PreconditionError

# Identities built from several matrix products are held to ATOL_COMPOSED.
ATOL_COMPOSED = 1e-10

_SANDWICH_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_FARADAY = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)


def _check_finite(*values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite angle {v!r}")


def analyzer_vector(theta: float) -> np.ndarray:
    """Unit vector transmitted by a linear analyzer at angle theta from H."""
    _check_finite(theta)
    return np.array([math.cos(theta), math.sin(theta)], dtype=complex)


def rotator(theta: float) -> np.ndarray:
    """Rotation of the polarization plane by theta."""
    _check_finite(theta)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class RetarderSpec:
    """Retardance and fast-axis angle, canonicalized to [0, pi) x [0, pi).

    Shifting either angle by pi changes the Jones matrix by at most a global
    sign, so the canonical ranges lose nothing physical.  The angles may also
    be broadcastable numpy arrays describing a lattice of plates; ``matrix``
    then does not apply.
    """

    delta: float | np.ndarray
    alpha: float | np.ndarray

    def __post_init__(self) -> None:
        _check_finite(self.delta, self.alpha)
        object.__setattr__(self, "delta", self.delta % math.pi)
        object.__setattr__(self, "alpha", self.alpha % math.pi)

    def matrix(self) -> np.ndarray:
        return retarder(self.delta, self.alpha)


def retarder(delta: float, alpha: float) -> np.ndarray:
    """Jones matrix of a retarder: phases e^{+-i delta} on axes at alpha."""
    _check_finite(delta, alpha)
    phase = np.diag([np.exp(1j * delta), np.exp(-1j * delta)])
    return rotator(alpha) @ phase @ rotator(-alpha)


def faraday_mirror() -> np.ndarray:
    """Mirror plus 45-degree Faraday rotation seen by the returning photon."""
    return _FARADAY.copy()


def backward(u: np.ndarray) -> np.ndarray:
    """Operator for traversing the element described by ``u`` in reverse.

    Reciprocal propagation reverses the element order and flips the
    handedness of the transverse frame, giving sigma_z @ u.T @ sigma_z: the
    transpose with its off-diagonal signs flipped.  Accepts one 2x2 operator
    or a (..., 2, 2) stack of them.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 operators, got shape {u.shape}")
    if not np.all(np.isfinite(u.view(float))):
        raise ValueError("non-finite operator entry")
    return np.swapaxes(u, -1, -2) * _SANDWICH_SIGNS


def unitarity_residual(u: np.ndarray) -> float:
    """Worst entrywise |u^H u - 1| over one 2x2 matrix or a (..., 2, 2) stack.

    The Gram entries are |a|^2 + |c|^2, |b|^2 + |d|^2 and conj(a) b + conj(c) d
    (the fourth is the conjugate of the third).  inf when ``u`` is not of that
    shape or has a non-finite entry; 0.0 for an empty stack.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2) or not np.all(np.isfinite(u)):
        return math.inf
    (a, b), (c, d) = np.moveaxis(u, (-2, -1), (0, 1))
    residuals = (
        np.abs(a) ** 2 + np.abs(c) ** 2 - 1.0,
        np.abs(b) ** 2 + np.abs(d) ** 2 - 1.0,
        a.conj() * b + c.conj() * d,
    )
    return max(float(np.max(np.abs(r), initial=0.0)) for r in residuals)


def is_unitary(u: np.ndarray) -> bool:
    """True when ``u`` (2x2, or a (..., 2, 2) stack) is unitary in every matrix."""
    return unitarity_residual(u) <= ATOL_COMPOSED


def round_trip(u: np.ndarray) -> np.ndarray:
    """Forward pass ``u``, Faraday mirror, then the same path in reverse.

    For unitary ``u`` this collapses to det(u) * faraday_mirror(): the fiber
    birefringence drops out of the round trip no matter what ``u`` is.  A
    (..., 2, 2) stack gives the stack of round trips, computed elementwise
    on the entry arrays; every matrix in it must be unitary.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise PreconditionError("round_trip requires unitary operators")
    (a, b), (c, d) = np.moveaxis(u, (-2, -1), (0, 1))
    # backward(u) @ FM = [[a, -c], [-b, d]] @ [[0, -1], [-1, 0]] = [[c, -a], [-d, b]],
    # times u entry by entry; in exact arithmetic that is [[0, -det u], [-det u, 0]].
    out = np.empty(u.shape, dtype=complex)
    out[..., 0, 0] = c * a - a * c
    out[..., 0, 1] = c * b - a * d
    out[..., 1, 0] = b * c - d * a
    out[..., 1, 1] = b * d - d * b
    return out


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(2) sample (QR of a complex Ginibre matrix)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
