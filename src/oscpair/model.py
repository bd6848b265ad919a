"""Normal-mode reduction of two bilinearly coupled harmonic oscillators.

The system is ``H = (p^2 + q^2)/2 + wx^2 x^2/2 + wy^2 y^2/2 + eps*x*y``
with ``hbar = m = 1``; the lab-frame rotation, Wigner functions and signed
moments (``xy``, ``pq``) belong to this sign of the coupling. Flipping it,
``eps -> -eps``, is the reflection ``y -> -y`` (with ``q -> -q``), which
leaves the purity and the steering quantifiers unchanged.

Rotating positions and momenta by a common angle ``theta`` decouples the
Hamiltonian into two independent modes with frequencies
``vartheta_x >= vartheta_y``. The spectrum stays real only
while ``eps < wx*wy``; approaching that bound drives ``vartheta_y`` to
zero, which motivates the cutoff mixing angle returned by
:func:`cutoff_angle`.

Conventions adopted here:

* At exact frequency degeneracy (``wx == wy``) the rotation angle is the
  continuous limit ``pi/4``, for every coupling including ``eps = 0``.
* For ``wx != wy`` the angle is ``atan2(2*eps, wx^2 - wy^2)/2``, which
  lives in ``[0, pi/2]``. This branch keeps ``vartheta_x >= vartheta_y``
  and the identities ``vartheta_{x,y}^2 = w_{x,y}^2 +/- eps*tan(theta)``
  valid on both sides of the degeneracy. The corner ``eps = 0`` with
  ``wx < wy`` gives ``theta = pi/2`` and an infinite mixing parameter;
  downstream formulas work with ``sin``/``cos`` of the angle, so the
  infinity is representational only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FREQUENCY_RANGE = (1e-50, 1e50)  # admissible frequencies: SystemParams says why


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters ``(omega_x, omega_y, epsilon)``.

    All quantities are dimensionless (``hbar = m = 1``). Validity requires
    frequencies in ``[1e-50, 1e50]`` and ``0 <= epsilon < omega_x *
    omega_y``; the upper bound is the real-spectrum condition. Negative
    couplings are rejected rather than mapped by symmetry.

    The frequency range keeps every public routine finite: the moments
    divide by ``vartheta_x^2 vartheta_y^2 = wx^2 wy^2 - eps^2``, which
    underflows to 0 once both frequencies are below about 1e-77 and
    ``eps`` is at the bound, and ``diagonalize`` squares each frequency,
    which overflows above about 1e154. Inside the range, the closed forms,
    the purity and the Wigner function at the origin are finite for every
    coupling up to the last float below the bound, with a margin of more
    than 25 decades.
    """

    omega_x: float
    omega_y: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        for name in ("omega_x", "omega_y"):
            omega = getattr(self, name)
            if not (math.isfinite(omega) and omega > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {omega}")
            if not FREQUENCY_RANGE[0] <= omega <= FREQUENCY_RANGE[1]:
                raise ValueError(f"{name} must lie in [{FREQUENCY_RANGE[0]:g}, "
                                 f"{FREQUENCY_RANGE[1]:g}], got {omega}")
        bound = self.omega_x * self.omega_y
        if not (math.isfinite(self.epsilon) and 0.0 <= self.epsilon < bound):
            raise ValueError(
                f"epsilon must satisfy 0 <= epsilon < omega_x*omega_y = {bound}, "
                f"got {self.epsilon}"
            )


@dataclass(frozen=True)
class QuantumNumbers:
    """Excitation pair ``(n, m)`` labelling the stationary state."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError(f"quantum numbers must be non-negative, got ({self.n}, {self.m})")


@dataclass(frozen=True)
class NormalModes:
    """Diagonalized description: rotation angle, mixing parameter, frequencies.

    ``mu = tan(theta)`` is ``math.inf`` in the swapped decoupled corner
    (``epsilon = 0`` with ``omega_x < omega_y``, where ``theta = pi/2``).
    """

    theta: float
    mu: float
    vartheta_x: float
    vartheta_y: float


def diagonalize(params: SystemParams) -> NormalModes:
    """Rotation angle and normal frequencies of the coupled system.

    ``vartheta_x`` is the larger frequency (the ``+`` branch). The smaller
    one is evaluated through the determinant identity
    ``vartheta_x^2 * vartheta_y^2 = wx^2 wy^2 - eps^2`` to avoid the
    cancellation the subtractive root suffers near the stability boundary.
    """
    wx2 = params.omega_x * params.omega_x
    wy2 = params.omega_y * params.omega_y
    eps = params.epsilon

    disc = math.hypot(wx2 - wy2, 2.0 * eps)
    vx2 = 0.5 * (wx2 + wy2 + disc)
    # det V = (wx*wy - eps)(wx*wy + eps) > 0 inside the validity domain;
    # the min guards the ordering against 1-ulp disagreement at degeneracy
    det = (params.omega_x * params.omega_y - eps) * (params.omega_x * params.omega_y + eps)
    vy2 = min(det / vx2, vx2)

    if params.omega_x == params.omega_y:
        theta = 0.25 * math.pi
        mu = 1.0
    elif eps == 0.0 and params.omega_y > params.omega_x:
        theta = 0.5 * math.pi
        mu = math.inf
    else:
        theta = 0.5 * math.atan2(2.0 * eps, wx2 - wy2)
        mu = math.tan(theta)

    return NormalModes(theta=theta, mu=mu, vartheta_x=math.sqrt(vx2), vartheta_y=math.sqrt(vy2))


def cutoff_angle(r: float) -> float:
    """Limiting mixing angle as the coupling approaches the stability bound.

    For resonance rate ``r = omega_y / omega_x`` this is
    ``sgn(1 - r)/2 * arctan(2r / (1 - r^2))`` with ``sgn(x) = +1`` for
    ``x >= 0`` and ``0`` otherwise, so the angle vanishes identically for
    ``r > 1`` and jumps to the limit ``pi/4`` at ``r = 1``. The
    discontinuity is part of the convention and is kept verbatim.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"resonance rate must be positive, got {r}")
    if r == 1.0:
        return 0.25 * math.pi
    if r > 1.0:
        return 0.0
    return 0.5 * math.atan(2.0 * r / (1.0 - r * r))


def energy(params: SystemParams, nm: QuantumNumbers) -> float:
    """Eigenenergy ``vartheta_x (2n+1)/2 + vartheta_y (2m+1)/2``."""
    modes = diagonalize(params)
    return 0.5 * modes.vartheta_x * (2 * nm.n + 1) + 0.5 * modes.vartheta_y * (2 * nm.m + 1)
