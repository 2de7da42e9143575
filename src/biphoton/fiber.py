"""Dispersive fiber channel: quadratic spectral phase, loss, slow drift.

Group-velocity dispersion multiplies the pair amplitude at detuning Omega by
e^{i k2 z Omega^2} (the two photons sit at +-Omega, so their quadratic phases
add and the linear ones cancel).  For large k2*z the channel acts like a
far-field imaging system in time: the coincidence distribution becomes the
image of the spectral amplitude under tau = 2 k2 z Omega.

Slow polarization drift of the fiber is a seeded random walk on SU(2);
``drift_operators`` gives its one-way operators, and the go-and-return
arrangement is ``jones.round_trip`` of them: the walk is conjugated through
the Faraday mirror and drops out entirely.  ``drift_walk`` builds operators
only at the step indices it is given.  Its prefix products are taken in blocks
of a fixed length, and each block's carry by a doubling scan over the blocks
below it, so a longer horizon never changes an earlier step's unitary, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigurationError
from .state import CrystalParams

# Independent substreams of a seed, SeedSequence([seed, id]): the drift walk's
# axes and angles, and a coincidence histogram's counts.
_STREAM_AXIS = 0
_STREAM_ANGLE = 1
_STREAM_HISTOGRAM = 2
# Prefix-product block length; fixed so that results never depend on the horizon.
_BLOCK = 32


@dataclass(frozen=True)
class DriftProcess:
    """Random walk of the fiber's polarization transformation.

    Every ``time_step`` the accumulated unitary is multiplied by a small
    rotation about a uniformly random axis; the step angle has standard
    deviation step_angle_scale * sqrt(time_step / correlation_time), so the
    drift angle accumulated over one correlation time is of order
    ``step_angle_scale``.  The default scale pi decorrelates the output
    polarization completely from one correlation time to the next, matching
    an interferometer that needs realignment every few minutes.
    """

    correlation_time: float = 360.0
    step_angle_scale: float = np.pi
    seed: int = 0
    time_step: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.correlation_time) or self.correlation_time <= 0.0:
            raise ConfigurationError("correlation_time must be finite and > 0")
        if not np.isfinite(self.step_angle_scale) or self.step_angle_scale < 0.0:
            raise ConfigurationError("step_angle_scale must be finite and >= 0")
        if self.time_step is None:
            object.__setattr__(self, "time_step", self.correlation_time / 100.0)
        if not np.isfinite(self.time_step) or self.time_step <= 0.0:
            raise ConfigurationError("time_step must be finite and > 0")
        if not np.isfinite(self.step_width):
            raise ConfigurationError(f"step width step_angle_scale * sqrt(time_step / "
                                     f"correlation_time) = {self.step_width} is not finite")

    @property
    def step_width(self) -> float:
        """Standard deviation of one step's angle, in rad; inf or nan past the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.step_angle_scale * np.sqrt(self.time_step / self.correlation_time)


def drift_walk(process: DriftProcess, steps) -> np.ndarray:
    """Unitaries at the walk step indices ``steps`` (1-d ints >= 0), shape (len(steps), 2, 2).

    Step 0 is the identity; ``np.arange(n + 1)`` is the whole walk to step n.  A step is an
    SU(2) rotation, kept as the pair (a, b) of u = [[a, -conj(b)], [b, conj(a)]].  Axis and
    angle draws come from two independent substreams of the seed, prefix products run in
    blocks of the fixed length ``_BLOCK``, and a block's carry is a doubling scan over the
    totals of the blocks below it, so a longer horizon never changes a step, bit for bit.
    """
    steps = np.asarray(steps)
    if steps.ndim != 1 or steps.dtype.kind not in "iu" or np.any(steps < 0):
        raise ValueError("steps must be a 1-d array of step indices >= 0, e.g. np.arange(n + 1)")
    n_steps = int(steps.max(initial=0))
    n_blocks = max(1, -(-n_steps // _BLOCK))
    a, b = (x.reshape(n_blocks, _BLOCK) for x in _step_pairs(process, n_steps, n_blocks * _BLOCK))
    # Prefix products within each block, all blocks at once.
    for j in range(1, min(_BLOCK, n_steps)):
        a[:, j], b[:, j] = _su2_mul(a[:, j], b[:, j], a[:, j - 1], b[:, j - 1])
    # carry[m], the product of the steps before block m: a doubling scan of the block totals.
    carry_a, carry_b = np.pad(a[:-1, -1], (1, 0), constant_values=1.0), np.pad(b[:-1, -1], (1, 0))
    d = 1
    while d < n_blocks:
        carry_a[d:], carry_b[d:] = _su2_mul(carry_a[d:], carry_b[d:], carry_a[:-d], carry_b[:-d])
        d *= 2
    i = steps.astype(int) - 1  # step s is block entry s - 1; step 0 is reset below
    a, b = _su2_mul(a.reshape(-1)[i], b.reshape(-1)[i], carry_a[i // _BLOCK], carry_b[i // _BLOCK])
    out = np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(-1, 2, 2)
    out[steps == 0] = np.eye(2)
    return out


def _step_pairs(process: DriftProcess, n_steps: int, size: int):
    """SU(2) pairs (a, b) of the walk's steps, padded with identities to ``size``."""
    rng_axis = np.random.default_rng(np.random.SeedSequence([process.seed, _STREAM_AXIS]))
    rng_angle = np.random.default_rng(np.random.SeedSequence([process.seed, _STREAM_ANGLE]))
    axes = rng_axis.normal(size=(n_steps, 3))
    norms = np.linalg.norm(axes, axis=1)
    # A zero draw is probability zero; fall back to the z axis for safety.
    bad = norms == 0.0
    axes[bad] = (0.0, 0.0, 1.0)
    norms[bad] = 1.0
    axes /= norms[:, None]
    angles = rng_angle.normal(size=n_steps) * process.step_width
    c = np.cos(angles / 2.0)
    s = np.sin(angles / 2.0)
    a = np.ones(size, dtype=complex)
    b = np.zeros(size, dtype=complex)
    a.real[:n_steps] = c
    a.imag[:n_steps] = -s * axes[:, 2]
    b.real[:n_steps] = axes[:, 1] * s
    b.imag[:n_steps] = -axes[:, 0] * s
    return a, b


def _su2_mul(a1, b1, a2, b2):
    """Pair of u1 @ u2 for SU(2) pairs u = [[a, -conj(b)], [b, conj(a)]]."""
    return a1 * a2 - b1.conjugate() * b2, b1 * a2 + a1.conjugate() * b2


def drift_operators(drift: DriftProcess, times) -> np.ndarray:
    """One-way polarization operators of the fiber at each of ``times``, shape (T, 2, 2).

    Drift is lumped at the fiber midpoint, so a single pass sees it once; the
    go-and-return arrangement sees it forward, then mirrored, then reversed,
    which is ``jones.round_trip`` of these operators: a constant Faraday
    mirror times a phase.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("sample times must be a non-empty 1-d sequence")
    if np.any(~np.isfinite(times)) or np.any(times < 0.0):
        raise ValueError("sample times must be finite and >= 0")
    with np.errstate(over="ignore"):
        steps = np.floor(times / drift.time_step)
    # 2^63 is the first float past the int range; inf (an overflowed quotient) fails too.
    if not np.all(steps < 2.0**63):
        raise ValueError(f"walk step index {np.max(steps):.3g} does not fit in an int")
    return drift_walk(drift, steps.astype(int))


@dataclass(frozen=True)
class FiberChannel:
    """One fiber used once, or twice via a Faraday mirror at the far end."""

    k2: float
    geometric_length: float
    passes: Literal["single", "go_and_return"] = "single"
    loss_db_per_km: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.k2):
            raise ConfigurationError("k2 must be finite")
        if not np.isfinite(self.geometric_length) or self.geometric_length <= 0.0:
            raise ConfigurationError("geometric_length must be finite and > 0")
        if self.passes not in ("single", "go_and_return"):
            raise ConfigurationError(f"unknown passes mode {self.passes!r}")
        if not np.isfinite(self.loss_db_per_km) or self.loss_db_per_km < 0.0:
            raise ConfigurationError("loss_db_per_km must be finite and >= 0")

    @property
    def z(self) -> float:
        """Dispersive path length: the geometric length times the pass count."""
        return self.geometric_length * (2.0 if self.passes == "go_and_return" else 1.0)


def tau_f(fiber: FiberChannel, crystal: CrystalParams) -> float:
    """Time scale 2 k2 z / tau0 of the dispersed correlation pattern."""
    return 2.0 * fiber.k2 * fiber.z / crystal.tau0


def transmittance(fiber: FiberChannel) -> float:
    """Single-photon power transmission over the dispersive path length."""
    return float(10.0 ** (-fiber.loss_db_per_km * (fiber.z / 1000.0) / 10.0))
