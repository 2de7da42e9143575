"""Two-photon polarization/frequency state from type-II down-conversion.

The pump at 2*omega_d produces pairs at omega_d +- Omega with orthogonal
polarizations.  The crystal's group-velocity mismatch delays V behind H, so
photon 1 (omega_d + Omega) in H with photon 2 in V carries the spectral row
env e^{i Omega tau0} and VH the row env e^{-i Omega tau0}, env = sinc(Omega tau0).
An element u in both paths acts as kron(u, u) on a 4x2 polarization block, so
the state stays that block times the two rows (Schmidt rank at most 2); the
rows are evaluated in closed form where read, their 2x2 Gram matrix gives the norm.
That matrix needs no np.sin over the grid: one sin/cos table of a block's
offsets and the angle-addition rule give sin(k dOmega tau0) block by block.
Blocks far from Omega = 0 are not summed sample by sample: there 1/k^2 is a
15-term power series over the block (remainder below 2e-17 relative), so each
block's sums are short forms in sin and cos of its start over the table's moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError

# Samples per block of the Gram pass in _sinc_sums; blocks from k = _NEAR _BLOCK
# on take _TERMS terms of a series in j / b < 1 / _NEAR.
_BLOCK = 1 << 10
_NEAR = 16
_TERMS = 15


def _sinc_sums(m: int, step: float) -> tuple[float, float]:
    """Sum sinc^2(k step) and sinc^2(k step) sin^2(k step) over k = -m..m.

    The k > 0 half is summed in blocks of ``_BLOCK`` from one table of
    sin(j step) and cos(j step), j < _BLOCK: a block starting at k = b takes
    sin((b + j) step) = S cos(j step) + C sin(j step), with S = sin(b step) and
    C = cos(b step) computed afresh, so no error carries between blocks.  Blocks
    below k = _NEAR _BLOCK, and a partial last block, are summed term by term.
    Every other block expands 1/(b + j)^2 = b^-2 sum_p (p + 1) (-j/b)^p over
    p < _TERMS; as j/b < 1/16, the terms left out are below 2e-17 relative.
    Its two sums are then quadratic and quartic forms in S and C over the
    moments sum_j cos^u sin^v(j step) (j / _BLOCK)^p, u + v = 2 or 4, taken
    from the table once per call, and Horner's rule in -_BLOCK / b sums the
    series of all these blocks at once.  The block sums are added exactly (fsum).
    """
    offsets = np.arange(min(_BLOCK, m)) * step
    sin_j, cos_j = np.sin(offsets), np.cos(offsets)
    n_far = max(m // _BLOCK - _NEAR, 0)  # full blocks from k = _NEAR _BLOCK + 1 on
    sums = []
    for b in (*range(1, min(m, _NEAR * _BLOCK) + 1, _BLOCK),
              *range(1 + (_NEAR + n_far) * _BLOCK, m + 1, _BLOCK)):
        size = min(_BLOCK, m + 1 - b)
        s2 = np.square(math.sin(b * step) * cos_j[:size] + math.cos(b * step) * sin_j[:size])
        w = s2 / np.square(np.arange(b, b + size, dtype=float))  # sinc^2 times step^2
        sums.append((w.sum(), w @ s2))
    if n_far:
        cs, c2, s2 = cos_j * sin_j, cos_j**2, sin_j**2
        # rows of (S c + C s)^2, then of (S c + C s)^4, with the binomial weights
        trig = np.stack((c2, 2.0 * cs, s2, c2**2, 4.0 * c2 * cs, 6.0 * cs**2, 4.0 * cs * s2, s2**2))
        ratio, moments = np.arange(_BLOCK) / _BLOCK, np.empty((len(trig), _TERMS))
        for p in range(_TERMS):  # pairwise row sums: every far block shares their rounding
            moments[:, p] = (p + 1) * trig.sum(axis=1)
            trig *= ratio
        b = np.arange(n_far) * _BLOCK + (1.0 + _NEAR * _BLOCK)
        S, C = np.sin(b * step), np.cos(b * step)
        S2, SC, C2 = S * S, S * C, C * C
        # per p, the quadratic and the quartic form: S^2, S C, C^2 and S^4 .. C^4
        forms = (moments[:3].T @ np.stack((S2, SC, C2)),
                 moments[3:].T @ np.stack((S2 * S2, S2 * SC, SC * SC, SC * C2, C2 * C2)))
        x, series = -_BLOCK / b, [form[-1] for form in forms]
        for p in range(_TERMS - 2, -1, -1):  # Horner's rule in x
            series = [acc * x + form[p] for acc, form in zip(series, forms)]
        sums.extend(zip(*(np.array(series) / b**2).tolist()))
    sinc2, sinc2_sin2 = (math.fsum(column) / step**2 for column in zip(*sums))
    # k = 0 (sinc 1, sine 0) counts once; the k < 0 half mirrors k > 0
    return 1.0 + 2.0 * sinc2, 2.0 * sinc2_sin2


@dataclass(frozen=True)
class CrystalParams:
    """Source crystal: pump wavelength, group-velocity mismatch, length.

    ``gvm`` is 1/u_V - 1/u_H in s/m; ``tau0 = gvm * length / 2`` is half the
    maximum H/V delay accumulated inside the crystal.
    """

    pump_wavelength: float
    gvm: float
    length: float

    def __post_init__(self) -> None:
        for name in ("pump_wavelength", "gvm", "length"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ConfigurationError(f"{name} must be finite and > 0, got {v!r}")
        if not 0.0 < self.tau0 < np.inf:
            raise ConfigurationError(f"tau0 = gvm * length / 2 must be finite and > 0, got "
                                     f"{self.tau0!r} from gvm={self.gvm!r}, length={self.length!r}")

    @property
    def tau0(self) -> float:
        return self.gvm * self.length / 2.0


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform detuning grid, symmetric about zero.

    ``n`` is a power of two (>= 256) sized for FFT work; the grid itself uses
    n - 1 points so that Omega = 0 sits exactly on a sample and the endpoints
    are +-omega_max.  The spare slot is zero-padding inside the transform.
    """

    n: int
    omega_max: float

    def __post_init__(self) -> None:
        if self.n < 256 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 256, got {self.n}")
        if not np.isfinite(self.omega_max) or self.omega_max <= 0.0:
            raise ValueError(f"omega_max must be finite and > 0, got {self.omega_max!r}")

    @property
    def n_used(self) -> int:
        return self.n - 1

    @property
    def domega(self) -> float:
        return 2.0 * self.omega_max / (self.n - 2)

    @property
    def omegas(self) -> np.ndarray:
        return (np.arange(self.n - 1) - self.zero_index) * self.domega

    @property
    def zero_index(self) -> int:
        return self.n // 2 - 1


@dataclass
class BiphotonState:
    """Pair amplitude amp[s1, s2, k] = sum_j pol[2 s1 + s2, j] rows(start, stop)[j, k - start].

    The two spectral rows are scale * sinc(Omega tau0) e^{+-i Omega tau0}, and
    gram[i, j] = sum_k conj(rows[i, k]) rows[j, k] dOmega over the whole grid.
    """

    grid: FrequencyGrid
    crystal: CrystalParams
    pol: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    scale: float = field(repr=False)

    def rows_at(self, omega: np.ndarray) -> np.ndarray:
        """The two spectral rows at the detunings ``omega`` (1-d, rad/s), shape (2, len(omega))."""
        theta = omega * self.crystal.tau0
        sin = np.sin(theta)
        env = np.divide(sin, theta, out=np.ones_like(theta), where=theta != 0.0)
        phase = (np.cos(theta) + 1j * sin) * self.scale
        return np.stack((phase, phase.conj())) * env

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The two spectral rows on samples start..stop-1, shape (2, stop - start)."""
        return self.rows_at((np.arange(start, stop) - self.grid.zero_index) * self.grid.domega)

    @property
    def amp(self) -> np.ndarray:
        """The (2, 2, n_used) amplitude amp[s1, s2, k], materialized on the whole grid."""
        return (self.pol @ self.rows(0, self.grid.n_used)).reshape(2, 2, -1)

    def norm(self) -> float:
        """Total probability integral sum |amp|^2 dOmega, from the Gram matrix."""
        return float(np.einsum("pi,ij,pj->", self.pol.conj(), self.gram, self.pol).real)


def pdc_state(crystal: CrystalParams, grid: FrequencyGrid) -> BiphotonState:
    """Post-selected pair amplitude of type-II down-conversion, with norm() == 1.

    HV and VH carry sinc(Omega tau0) e^{+-i Omega tau0}; HH and VV vanish.  The
    Gram matrix needs sum sinc^2 and sum sinc^2 e^{-2i Omega tau0}, with
    cos 2x = 1 - 2 sin^2 x; the sinc is real and even and the grid is exactly
    antisymmetric about Omega = 0, so the sine part of the cross term is 0 and
    ``_sinc_sums`` takes the rest from the Omega > 0 half alone.
    """
    tau0 = crystal.tau0
    # A grid of one lobe, (pi / tau0) * tau0, may round a few ulp below pi.
    if grid.omega_max * tau0 < np.pi * (1.0 - 1e-15):
        raise ConfigurationError(
            "grid too narrow: omega_max * tau0 = "
            f"{grid.omega_max * tau0:.3g} < pi does not cover the main spectral lobe"
        )
    total, sin2 = _sinc_sums(grid.zero_index, grid.domega * tau0)  # total >= 1 (k = 0)
    cross = complex(total - 2.0 * sin2, -0.0)  # sum sinc^2 e^{-2i Omega tau0}; -2 * 0 = -0.0
    gram = np.array([[total, cross], [cross.conjugate(), total]]) / (2.0 * total)
    pol = np.array([[0, 0], [1, 0], [0, 1], [0, 0]], dtype=complex)
    return BiphotonState(grid=grid, crystal=crystal, pol=pol, gram=gram,
                         scale=1.0 / np.sqrt(2.0 * total * grid.domega))


def _both_photons(u: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Apply u to both photons of amp[s1, s2, ...] or amp[2 s1 + s2, ...]: one 4x4 product."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not np.all(np.isfinite(u.view(float))):
        raise ValueError("operator must be a finite 2x2 matrix")
    return (np.kron(u, u) @ amp.reshape(4, -1)).reshape(amp.shape)


def apply_local(state: BiphotonState, u: np.ndarray) -> BiphotonState:
    """Send both photons through the same polarization element ``u``: pol -> kron(u, u) pol."""
    return replace(state, pol=_both_photons(u, state.pol))


# The two post-selected Bell states, amplitude[s1, s2] in the (H, V) pair basis.
PSI_PLUS = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2.0)
PSI_MINUS = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2.0)
PSI_PLUS.flags.writeable = False
PSI_MINUS.flags.writeable = False
