"""Two-photon polarization/frequency state from type-II down-conversion.

The pump at 2*omega_d produces pairs at omega_d +- Omega with orthogonal
polarizations.  The crystal's group-velocity mismatch delays V behind H, so
photon 1 (omega_d + Omega) in H with photon 2 in V carries the spectral row
env e^{i Omega tau0} and VH the row env e^{-i Omega tau0}, env = sinc(Omega tau0).
An element u in both paths acts as kron(u, u) on a 4x2 polarization block, so
the state stays that block times the two rows (Schmidt rank at most 2); the
rows are evaluated in closed form where read.  Their 2x2 Gram matrix, over the
whole band or a window of it, is one Gauss-Legendre quadrature on the continuum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError

# The 16-node Gauss-Legendre rule of a half-lobe Gram panel; numpy.polynomial loads on first use.
_gauss_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(16))
MAX_SPECTRAL_SAMPLES = 1 << 22  # grid points, or nodes of one Gram integral, at most


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
            raise ConfigurationError(f"n must be a power of two >= 256, got {self.n}")
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


@dataclass(frozen=True)
class BiphotonState:
    """Pair amplitude amp[s1, s2, k] = sum_j pol[2 s1 + s2, j] rows_at(grid.omegas)[j, k].

    The two spectral rows are scale * sinc(Omega tau0) e^{+-i Omega tau0}.
    """

    grid: FrequencyGrid
    crystal: CrystalParams
    pol: np.ndarray = field(repr=False)
    scale: float = field(repr=False)

    def rows_at(self, omega: np.ndarray) -> np.ndarray:
        """The two spectral rows at the detunings ``omega`` (1-d, rad/s), shape (2, len(omega))."""
        theta = omega * self.crystal.tau0
        sin = np.sin(theta)
        env = np.divide(sin, theta, out=np.ones_like(theta), where=theta != 0.0)
        phase = (np.cos(theta) + 1j * sin) * self.scale
        return np.stack((phase, phase.conj())) * env

    @property
    def amp(self) -> np.ndarray:
        """The (2, 2, n_used) amplitude amp[s1, s2, k], materialized on the whole grid."""
        return (self.pol @ self.rows_at(self.grid.omegas)).reshape(2, 2, -1)

    def gram(self, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
        """Integral of conj(r) r^T of the spectral rows r over [lo, hi] within +-omega_max.

        One Gauss-Legendre panel per half lobe pi / (2 tau0) the band meets:
        exact to rounding.  An empty band, or one with a nan edge, gives 0; a
        band of more than MAX_SPECTRAL_SAMPLES nodes raises ConfigurationError.
        """
        lo, hi = max(lo, -self.grid.omega_max), min(hi, self.grid.omega_max)
        if not lo < hi:
            return np.zeros((2, 2), dtype=complex)
        half_lobe, (nodes, weights) = np.pi / (2.0 * self.crystal.tau0), _gauss_legendre()
        # the cap counts half lobes, not panels, which may add a sliver of rounding at
        # each end; 1e-12 allows for the rounding of the span itself
        span = hi / half_lobe - lo / half_lobe
        if not span * len(nodes) <= MAX_SPECTRAL_SAMPLES * (1.0 + 1e-12):
            raise ConfigurationError(f"band [{lo:.3g}, {hi:.3g}] rad/s spans {span:.6g} half "
                                     f"lobes, more than {MAX_SPECTRAL_SAMPLES} quadrature nodes")
        first, last = math.floor(lo / half_lobe), math.ceil(hi / half_lobe)
        edges = np.clip(np.arange(first, last + 1) * half_lobe, lo, hi)
        mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        rows = self.rows_at((mid[:, None] + half[:, None] * nodes).ravel())
        return (rows.conj() * (half[:, None] * weights).ravel()) @ rows.T

    @functools.cached_property
    def _whole_band_gram(self) -> np.ndarray:
        # once per state: the rows depend on the frozen grid, crystal and scale, not on pol
        return self.gram()

    def norm(self) -> float:
        """Total probability integral of |amp|^2 over +-omega_max, from the Gram matrix."""
        return float(np.einsum("pi,ij,pj->", self.pol.conj(), self._whole_band_gram, self.pol).real)


def pdc_state(crystal: CrystalParams, grid: FrequencyGrid) -> BiphotonState:
    """Post-selected pair amplitude of type-II down-conversion, with norm() == 1.

    HV and VH carry sinc(Omega tau0) e^{+-i Omega tau0}; HH and VV vanish.  The
    scale is 1 over the square root of the unit-scale state's norm, twice the
    integral of one row's |r|^2 over +-omega_max.
    """
    # A grid of one lobe, (pi / tau0) * tau0, may round a few ulp below pi.
    if grid.omega_max * crystal.tau0 < np.pi * (1.0 - 1e-15):
        raise ConfigurationError(
            "grid too narrow: omega_max * tau0 = "
            f"{grid.omega_max * crystal.tau0:.3g} < pi does not cover the main spectral lobe"
        )
    pol = np.array([[0, 0], [1, 0], [0, 1], [0, 0]], dtype=complex)
    unit = BiphotonState(grid=grid, crystal=crystal, pol=pol, scale=1.0)
    return replace(unit, scale=1.0 / np.sqrt(2.0 * unit.gram()[0, 0].real))


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
