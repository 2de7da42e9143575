"""Reference helpers shared by the tests; not part of the library."""

import numpy as np


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise distance between a and b after fitting a global phase.

    The fitted phase maximizes |trace(a^H b)|; arrays of equal shape only.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    t = np.sum(a.conj() * b)
    if abs(t) == 0.0:
        # No phase preferred; any unit scalar gives the same norm.
        return float(np.max(np.abs(a - b)))
    c = t / abs(t)
    return float(np.max(np.abs(c * a - b)))
