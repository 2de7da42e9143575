"""Two-photon polarization/frequency state from type-II down-conversion.

The pump at frequency 2*omega0 produces photon pairs at omega0 +- Omega with
orthogonal polarizations.  The state is stored as a complex amplitude
``amp[s1, s2, k]`` for finding photon 1 (frequency omega0 + Omega_k) with
polarization s1 and photon 2 (omega0 - Omega_k) with polarization s2.  The
crystal's group-velocity mismatch delays V behind H, which puts the phase
factors e^{+-i Omega tau0} on the HV / VH components and makes the spectral
envelope sinc(Omega tau0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

_C_LIGHT = 299792458.0


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

    @property
    def degenerate_wavelength(self) -> float:
        return 2.0 * self.pump_wavelength

    @property
    def omega0(self) -> float:
        """Degenerate angular frequency (half the pump frequency)."""
        return 2.0 * np.pi * _C_LIGHT / self.degenerate_wavelength

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
        k = np.arange(self.n - 1)
        return (k - (self.n // 2 - 1)) * self.domega

    @property
    def zero_index(self) -> int:
        return self.n // 2 - 1


@dataclass
class BiphotonState:
    grid: FrequencyGrid
    crystal: CrystalParams
    amp: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.amp = np.asarray(self.amp, dtype=complex)
        if self.amp.shape != (2, 2, self.grid.n_used):
            raise ValueError(f"amp shape {self.amp.shape} does not match grid")

    def norm(self) -> float:
        """Total probability integral sum |amp|^2 dOmega."""
        return float(np.sum(np.abs(self.amp) ** 2) * self.grid.domega)

    def slice_at(self, index: int) -> np.ndarray:
        """Polarization 2x2 amplitude at one detuning sample (not normalized)."""
        return self.amp[:, :, index].copy()


def pdc_state(
    crystal: CrystalParams,
    grid: FrequencyGrid,
    spectral_amplitude: Callable[[np.ndarray], np.ndarray] | None = None,
) -> BiphotonState:
    """Post-selected pair amplitude of type-II down-conversion.

    HV and VH carry the spectral envelope with opposite detuning phases
    e^{+-i Omega tau0}; HH and VV vanish.  The default envelope is
    sinc(Omega tau0); pass ``spectral_amplitude`` to model a different one.
    The result is normalized so that norm() == 1.
    """
    tau0 = crystal.tau0
    if grid.omega_max * tau0 < np.pi:
        raise ConfigurationError(
            "grid too narrow: omega_max * tau0 = "
            f"{grid.omega_max * tau0:.3g} < pi does not cover the main spectral lobe"
        )
    omega = grid.omegas
    if spectral_amplitude is None:
        envelope = np.sinc(omega * tau0 / np.pi).astype(complex)
    else:
        envelope = np.asarray(spectral_amplitude(omega), dtype=complex)
        if envelope.shape != omega.shape:
            raise ValueError("spectral_amplitude must return one value per grid point")
    amp = np.zeros((2, 2, grid.n_used), dtype=complex)
    amp[0, 1, :] = envelope * np.exp(1j * omega * tau0)
    amp[1, 0, :] = envelope * np.exp(-1j * omega * tau0)
    total = np.sum(np.abs(amp) ** 2) * grid.domega
    if total == 0.0:
        raise DegenerateInputError("spectral amplitude is identically zero")
    amp /= np.sqrt(total)
    return BiphotonState(grid=grid, crystal=crystal, amp=amp)


def _both_photons(u: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Apply the single-photon operator u to both indices of amp[s1, s2, ...]."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not np.all(np.isfinite(u.view(float))):
        raise ValueError("operator must be a finite 2x2 matrix")
    return np.einsum("ac,bd,cd...->ab...", u, u, amp)


def apply_local(state: BiphotonState, u: np.ndarray) -> BiphotonState:
    """Send both photons through the same polarization element ``u``."""
    return BiphotonState(grid=state.grid, crystal=state.crystal, amp=_both_photons(u, state.amp))


@dataclass(frozen=True)
class BellTarget:
    """One of the two post-selected Bell states in the (H, V) pair basis.

    For psi_minus the two annotation frequencies record where the pair phase
    e^{+-i Omega tau0} reaches +-pi/2: omega0 +- pi / (2 tau0).
    """

    which: Literal["psi_plus", "psi_minus"]
    amplitude: np.ndarray = field(repr=False)
    omega1: float | None = None
    omega2: float | None = None

    @staticmethod
    def psi_plus() -> "BellTarget":
        amp = np.zeros((2, 2), dtype=complex)
        amp[0, 1] = amp[1, 0] = 1.0 / np.sqrt(2.0)
        return BellTarget(which="psi_plus", amplitude=amp)

    @staticmethod
    def psi_minus(crystal: CrystalParams | None = None) -> "BellTarget":
        amp = np.zeros((2, 2), dtype=complex)
        amp[0, 1] = 1.0 / np.sqrt(2.0)
        amp[1, 0] = -1.0 / np.sqrt(2.0)
        omega1 = omega2 = None
        if crystal is not None:
            shift = np.pi / (2.0 * crystal.tau0)
            omega1 = crystal.omega0 + shift
            omega2 = crystal.omega0 - shift
        return BellTarget(which="psi_minus", amplitude=amp, omega1=omega1, omega2=omega2)


def polarization_overlap(slice2x2: np.ndarray, target: BellTarget) -> complex:
    """Complex overlap <target | slice> after normalizing the slice."""
    s = np.asarray(slice2x2, dtype=complex)
    if s.shape != (2, 2):
        raise ValueError(f"expected a 2x2 slice, got shape {s.shape}")
    n = np.linalg.norm(s)
    if n < 1e-300:
        raise DegenerateInputError("slice has zero norm")
    return complex(np.sum(target.amplitude.conj() * s) / n)
