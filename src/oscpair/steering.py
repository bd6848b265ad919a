"""Directional quantum-steering quantifiers and their selection rules.

Steerability of oscillator ``y`` by measurements on ``x`` is witnessed by

    ``S_xy = max(|<a_x a_y^dag>|^2 - <N_y (N_x + 1/2)>, 0)``

and ``S_yx`` with the roles of the number operators swapped. The
occupation products are normally ordered; that reading reproduces the
weak-coupling closed form below identically and is pinned by the
cross-validation tests. The pre-clamp values are kept on the result for
diagnostics (steering onset thresholds sit where they cross zero).

Every state is a Fock state of the normal modes, so ``<Nx Ny>`` is its
Wick part ``nx ny + |<a_x a_y^dag>|^2 + |<a_x a_y>|^2`` minus the cumulant
``kappa`` of :func:`moments._bogoliubov`. The cross term cancels
symbolically and the raw witness is ``kappa - (nx ny + |<a_x a_y>|^2 +
ny/2)``: no O(1) terms cancel in floating point, so it keeps its relative
accuracy at weak coupling. In the ground state ``kappa = 0`` and the
witness is a negated sum of non-negative terms, which roundoff cannot
lift above zero.

For these stationary states steering is maximally asymmetric (at most one
direction is nonzero), resonant oscillators never steer, and a ground
state never steers anything. At weak resonant coupling the first two hold
to 2e-15: roundoff in its O(n^2) terms sets the sign of an O(eps^2) witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import moments
from .model import QuantumNumbers, SystemParams


@dataclass(frozen=True)
class SteeringResult:
    """Clamped steering values, their asymmetry, and pre-clamp diagnostics."""

    s_xy: float
    s_yx: float
    delta: float
    s_xy_raw: float
    s_yx_raw: float


def steering(params: SystemParams, nm: QuantumNumbers) -> SteeringResult:
    """Steering in both directions for the state ``Psi_(n, m)``."""
    nx, ny, _, pair, kappa = moments._bogoliubov(params, nm)
    common = nx * ny + pair * pair
    # kappa is +0.0 in the ground state, so a vanishing witness is +0.0, and so is its clamp
    raw_xy, raw_yx = kappa - (common + 0.5 * ny), kappa - (common + 0.5 * nx)
    s_xy = max(raw_xy, 0.0)
    s_yx = max(raw_yx, 0.0)
    return SteeringResult(s_xy=s_xy, s_yx=s_yx, delta=abs(s_xy - s_yx),
                          s_xy_raw=raw_xy, s_yx_raw=raw_yx)


def steering_weak_general(nm: QuantumNumbers, mu: float) -> float:
    """Weak-coupling closed form for ``S_xy`` at mixing parameter ``mu``.

    ``max(-(m + 2mn - (m+n) mu^2 + (1+2m) n mu^4) / (2 (1+mu^2)^2), 0)``.
    The opposite direction follows from the index swap
    ``S_yx(n, m) = S_xy(m, n)``. For ``m = 0`` this reduces to
    ``n mu^2 (1 - mu^2) / (2 (1+mu^2)^2)``, which vanishes at both
    decoupling (``mu = 0``) and resonance (``mu = 1``).

    It holds at weak coupling near resonance only. Far from resonance the
    exact witness can be negative where this form is positive: at
    ``(1, 0.1, 1e-4)`` the exact (1, 0) ``s_xy_raw`` is -8.8e-8, so
    ``s_xy = 0``, while this form gives 5.1e-9.
    """
    n, m = nm.n, nm.m
    mu2 = mu * mu
    numerator = m + 2.0 * m * n - (m + n) * mu2 + (1 + 2 * m) * n * mu2 * mu2
    return max(-numerator / (2.0 * (1.0 + mu2) ** 2), 0.0)


def selection_rules(nm: QuantumNumbers) -> tuple[bool, bool]:
    """Weak-coupling steerability predicates ``(x_can_steer, y_can_steer)``.

    ``x`` can steer ``y`` iff ``n != 0`` and ``m = 0``; mirrored for the
    other direction. Two excited oscillators cannot steer each other.

    Like :func:`steering_weak_general`, these hold at weak coupling near
    resonance only: at ``(1, 0.1, 1e-4)`` the state (1, 0) has ``s_xy = 0``,
    yet the rules say ``x`` steers ``y``.
    """
    return (nm.n != 0 and nm.m == 0, nm.m != 0 and nm.n == 0)
