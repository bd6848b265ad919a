"""Directional quantum-steering quantifiers and their selection rules.

Steerability of oscillator ``y`` by measurements on ``x`` is witnessed by

    ``S_xy = max(|<a_x a_y^dag>|^2 - <N_y (N_x + 1/2)>, 0)``

and ``S_yx`` with the roles of the number operators swapped. The
occupation products are normally ordered; that reading reproduces the
weak-coupling closed form below identically and is pinned by the
cross-validation tests. The pre-clamp values are kept on the result for
diagnostics (steering onset thresholds sit where they cross zero).

The ground state is Gaussian, so Wick's theorem gives ``<Nx Ny> = nx ny +
|<a_x^dag a_y>|^2 + |<a_x a_y>|^2`` and its raw witness is
``-(nx ny + |<a_x a_y>|^2 + ny/2)``: a sum of non-negative terms with no
cancellation, so roundoff cannot lift it above zero.

For these stationary states steering is maximally asymmetric: at most one
direction is nonzero, resonant oscillators never steer, and a ground
state never steers anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model, moments
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
    if nm.n == 0 and nm.m == 0:
        raw_xy, raw_yx = _ground_witnesses(params)
    else:
        lm = moments.ladder_moments(params, nm)
        raw_xy = lm.cross_mag_sq - (lm.nxny + 0.5 * lm.ny)
        raw_yx = lm.cross_mag_sq - (lm.nxny + 0.5 * lm.nx)
    s_xy = max(raw_xy, 0.0)
    s_yx = max(raw_yx, 0.0)
    return SteeringResult(s_xy=s_xy, s_yx=s_yx, delta=abs(s_xy - s_yx),
                          s_xy_raw=raw_xy, s_yx_raw=raw_yx)


def _ground_witnesses(params: SystemParams) -> tuple[float, float]:
    """Ground-state raw witnesses ``-(nx ny + |<a_x a_y>|^2 + ny/2)`` and mirror.

    The occupations are written as ``(w - v)^2 / (4 w v)`` per normal mode
    rather than ``(w/v + v/w)/4 - 1/2``, so no term can round below zero.
    """
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    wx, wy = params.omega_x, params.omega_y
    s2, c2 = math.sin(modes.theta) ** 2, math.cos(modes.theta) ** 2
    nx = (c2 * (wx - vx) ** 2 / vx + s2 * (wx - vy) ** 2 / vy) / (4.0 * wx)
    ny = (s2 * (wy - vx) ** 2 / vx + c2 * (wy - vy) ** 2 / vy) / (4.0 * wy)
    ms = moments.second_and_fourth_moments(params, QuantumNumbers(0, 0))
    root = math.sqrt(wx * wy)
    pair = 0.5 * (root * ms.xy - ms.pq / root)  # <a_x a_y>
    common = nx * ny + pair * pair
    # 0.0 - x rather than -x: a vanishing witness is +0.0, and so is its clamp
    return 0.0 - (common + 0.5 * ny), 0.0 - (common + 0.5 * nx)


def steering_weak_general(nm: QuantumNumbers, mu: float) -> float:
    """Weak-coupling closed form for ``S_xy`` at mixing parameter ``mu``.

    ``max(-(m + 2mn - (m+n) mu^2 + (1+2m) n mu^4) / (2 (1+mu^2)^2), 0)``.
    The opposite direction follows from the index swap
    ``S_yx(n, m) = S_xy(m, n)``. For ``m = 0`` this reduces to
    ``n mu^2 (1 - mu^2) / (2 (1+mu^2)^2)``, which vanishes at both
    decoupling (``mu = 0``) and resonance (``mu = 1``).
    """
    n, m = nm.n, nm.m
    mu2 = mu * mu
    numerator = m + 2.0 * m * n - (m + n) * mu2 + (1 + 2 * m) * n * mu2 * mu2
    return max(-numerator / (2.0 * (1.0 + mu2) ** 2), 0.0)


def selection_rules(nm: QuantumNumbers) -> tuple[bool, bool]:
    """Weak-coupling steerability predicates ``(x_can_steer, y_can_steer)``.

    ``x`` can steer ``y`` iff ``n != 0`` and ``m = 0``; mirrored for the
    other direction. Two excited oscillators cannot steer each other.
    """
    return (nm.n != 0 and nm.m == 0, nm.m != 0 and nm.n == 0)
