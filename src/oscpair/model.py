"""Normal-mode reduction of two bilinearly coupled harmonic oscillators.

The system is ``H = (p^2 + q^2)/2 + wx^2 x^2/2 + wy^2 y^2/2 + eps*x*y``
with ``hbar = m = 1``; the lab-frame rotation, Wigner functions and signed
moments (``xy``, ``pq``) belong to this sign of the coupling. Flipping it,
``eps -> -eps``, is the reflection ``y -> -y`` (with ``q -> -q``), which
leaves the purity and the steering quantifiers unchanged.

Rotating positions and momenta by a common angle decouples the
Hamiltonian into two independent modes with frequencies
``vartheta_x >= vartheta_y``. The spectrum stays real only
while ``eps < wx*wy``; approaching that bound drives ``vartheta_y`` to
zero, which motivates the cutoff mixing angle returned by
:func:`cutoff_angle`.

Conventions adopted here:

* The angle ``theta = atan2(s, c)`` is ``atan2(2*eps, wx^2 - wy^2)/2`` in
  ``[0, pi/2]``, which keeps ``vartheta_x >= vartheta_y`` and the identities
  ``vartheta_{x,y}^2 = w_{x,y}^2 +/- eps*tan(theta)`` on both sides of the
  degeneracy. At ``wx == wy`` it is ``pi/4`` (``c2 = s2 = 1/2``) for every
  coupling, ``eps = 0`` included (the continuous limit), and at ``eps = 0``
  with ``wx < wy`` it is ``pi/2`` (``c2 = 0``).
* Only :func:`diagonalize` knows how the modes mix. It returns the exact
  weights ``c2 = cos^2(theta)``, ``s2`` and ``sc``, not the angle, whose
  ``cos`` carries a roundoff of 6e-17 where the weight is 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from importlib import import_module

FREQUENCY_RANGE = (1e-50, 1e50)  # admissible frequencies: SystemParams says why


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters ``(omega_x, omega_y, epsilon)``.

    All quantities are dimensionless (``hbar = m = 1``). Validity requires
    frequencies in ``[1e-50, 1e50]`` and ``0 <= epsilon < omega_x *
    omega_y``; the upper bound is the real-spectrum condition. Negative
    couplings are rejected rather than mapped by symmetry.

    The range keeps every public routine finite, with more than 25 decades
    of margin: the moments divide by ``wx^2 wy^2 - eps^2``, which underflows
    below about 1e-77 with ``eps`` at the bound, and ``diagonalize`` squares
    each frequency, which overflows above about 1e154. On frequencies
    ``10^a``, ``a`` in {-50, -25, 0, 25, 50}, and couplings {0, 1e-300, 1e-8,
    0.5, 0.99} of the bound, the mixing weights are within 1e-15 relative
    (absolute below the normal range), each moment within 1e-13 of its
    natural scale, each raw steering witness within 1e-13 of
    ``(nx+1)(ny+1)``, each ladder correlator within 2e-15 of its occupation
    scale (``nx+1``, ``ny+1`` or ``(nx+1)(ny+1)``), and at ``eps = 0`` off
    resonance every purity up to (8,8) within 4e-15 of 1 (within 1e-15 at
    the three points between the decades that the tests hold).
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

    _modes = cached_property(lambda self: _normal_modes(self))  # diagonalize's record
    # the moments' record, built by the module that reads it (spectrum never loads it)
    _closed_forms = cached_property(lambda self: import_module(".moments", __package__)
                                    ._closed_forms(self))


@dataclass(frozen=True)
class QuantumNumbers:
    """Excitation pair ``(n, m)`` labelling the stationary state."""

    n: int
    m: int

    def __post_init__(self) -> None:
        try:  # an integer type (int, numpy.int64) has __index__; a float, even 2.0, has not
            operator.index(self.n), operator.index(self.m)
        except TypeError:
            raise ValueError(
                f"quantum numbers must be integers, got ({self.n!r}, {self.m!r})") from None
        if self.n < 0 or self.m < 0:
            raise ValueError(f"quantum numbers must be non-negative, got ({self.n}, {self.m})")


@dataclass(frozen=True)
class NormalModes:
    """Mixing parameter, frequencies and mixing weights.

    ``c2, s2, sc`` are ``cos^2, sin^2, sin*cos`` of the angle ``theta = atan2(s,
    c)``, and ``c, s`` the cosine and sine. ``mu = tan(theta)`` is ``math.inf`` in
    the swapped decoupled corner (``epsilon = 0`` with ``omega_x < omega_y``,
    ``c2 = 0``).
    ``gap_x = vartheta_x^2 - omega_x^2`` and ``gap_y = vartheta_x^2 - omega_y^2``
    are the Bogoliubov gaps, both ``>= 0``; as ``vx^2 + vy^2 = wx^2 + wy^2``, they
    are also ``omega_y^2 - vartheta_y^2`` and ``omega_x^2 - vartheta_y^2``.
    """

    mu: float
    vartheta_x: float
    vartheta_y: float
    c2: float
    s2: float
    sc: float
    gap_x: float
    gap_y: float
    c = property(lambda self: math.sqrt(self.c2))
    s = property(lambda self: math.sqrt(self.s2))


def _two_product(a: float, b: float) -> tuple[float, float]:
    """``(p, e)`` with ``p = fl(a*b)`` and ``a*b = p + e`` exactly (Dekker, Veltkamp's split)."""
    def split(v: float) -> tuple[float, float]:
        big = 134217729.0 * v  # 2**27 + 1
        high = big - (big - v)
        return high, v - high
    p, (ah, al), (bh, bl) = a * b, split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def diagonalize(params: SystemParams) -> NormalModes:
    """Normal frequencies and mixing weights of the coupled system.

    ``vartheta_x`` is the larger frequency (the ``+`` branch). The smaller
    one is evaluated through the determinant identity
    ``vartheta_x^2 * vartheta_y^2 = wx^2 wy^2 - eps^2`` to avoid the
    cancellation the subtractive root suffers near the stability boundary.

    With ``delta = wx^2 - wy^2`` and ``D = hypot(delta, 2 eps)``, the larger
    weight is ``(D + |delta|) / (2D)``, ``sc = eps / D``, and the smaller
    weight is ``sc`` times the half-angle tangent ``2 eps / (D + |delta|)``: no
    step subtracts, so each is exact to a few ulps. ``D = 0`` is the limit 1/2.
    Likewise the gap of the lab frequency nearer ``vartheta_x`` is ``eps`` times
    the half-angle tangent, ``2 eps^2 / (D + |delta|)``, and the other is ``(D +
    |delta|) / 2``.

    It is computed (``_normal_modes``) once per ``SystemParams`` object, which keeps the
    result as its record; a new object, from ``dataclasses.replace`` say, computes afresh.
    """
    return params._modes


def _normal_modes(params: SystemParams) -> NormalModes:
    wx, wy, eps = params.omega_x, params.omega_y, params.epsilon
    delta = (wx - wy) * (wx + wy)  # wx^2 - wy^2 to a few ulps, also near resonance
    disc = math.hypot(delta, 2.0 * eps)
    vx2 = 0.5 * (wx * wx + wy * wy + disc)
    # det V = (wx*wy - eps)(wx*wy + eps) > 0 in the domain; wx*wy = hi + lo exactly, and hi - eps
    # is exact near the bound. The min guards the ordering against 1-ulp disagreement at degeneracy
    hi, lo = _two_product(wx, wy)
    vy2 = min(((hi - eps) + lo) * (hi + eps) / vx2, vx2)

    if disc == 0.0:
        mu, c2, s2, sc, gap_x, gap_y = 1.0, 0.5, 0.5, 0.5, 0.0, 0.0
    else:
        outer = disc + abs(delta)
        sc, tan_half = eps / disc, 2.0 * eps / outer
        large, small = 0.5 * outer / disc, sc * tan_half
        near, far = eps * tan_half, 0.5 * outer
        mu, c2, s2, gap_x, gap_y = (
            (tan_half, large, small, near, far) if delta >= 0.0
            else (0.5 * outer / eps if eps else math.inf, small, large, far, near))

    return NormalModes(mu=mu, vartheta_x=math.sqrt(vx2), vartheta_y=math.sqrt(vy2),
                       c2=c2, s2=s2, sc=sc, gap_x=gap_x, gap_y=gap_y)


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
