"""Closed-form phase-space moments and ladder correlators of the stationary states.

At each coupling every closed form here is a fixed polynomial in ``(n, m)``.
:func:`_closed_forms` computes the coefficients, plain floats, once per
``SystemParams`` object, which keeps them as its record next to
:func:`model.diagonalize`'s; each public function evaluates them for one state.
The quadrature moments rotate the separable normal-mode state by the weights
of :func:`model.diagonalize`. The ladder correlators, and the steering
witnesses of :mod:`oscpair.steering`, come from the Bogoliubov expansion ``U A
+ V A^dag`` of ``a_x`` and ``a_y`` over the normal modes. No coefficient
subtracts terms of order one: each small factor (``vx - vy = D / (vx + vy)``,
``cos 2theta = (wx^2 - wy^2) / D``, the gaps in ``V``) is written out, so
ground states and weak couplings keep their relative accuracy. README
"Numerical conventions" gives each form and its accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import model
from .model import QuantumNumbers, SystemParams


@dataclass(frozen=True)
class MomentSet:
    """Second moments (xx..pq) and fourth moments (xxyy..yypp) of one state."""

    xx: float
    yy: float
    pp: float
    qq: float
    xy: float
    pq: float
    xxyy: float
    ppqq: float
    xxqq: float
    yypp: float


@dataclass(frozen=True)
class ExcitationNumbers:
    """Mean lab-frame excitation numbers ``<Nx>``, ``<Ny>``."""

    nx: float
    ny: float


class LadderMoments(NamedTuple):
    """Ladder-operator correlators; ``cross_mag_sq`` is ``|<a_x a_y^dag>|^2``.

    The cross correlator is real for these stationary states (``<xq>`` and
    ``<py>`` vanish, confirmed numerically by the oracle tests).
    """

    nx: float
    ny: float
    nxny: float
    cross_mag_sq: float


class _ClosedForms(NamedTuple):
    """One coupling's coefficients; the function that reads each group says how."""

    moments: tuple[float, ...]
    ladder: tuple[float, ...]
    witness: tuple[float, ...]


def _closed_forms(params: SystemParams) -> _ClosedForms:
    """Every coefficient at ``params``; read it as ``params._closed_forms``."""
    modes = model.diagonalize(params)
    wx, wy, eps = params.omega_x, params.omega_y, params.epsilon
    vx, vy, c2, s2, sc = modes.vartheta_x, modes.vartheta_y, modes.c2, modes.s2, modes.sc
    s2c2, delta = sc * sc, (wx - wy) * (wx + wy)
    disc = math.hypot(delta, 2.0 * eps)  # vx^2 - vy^2
    # c2 - s2, exactly 0 at resonance, and vx - vy
    cos2, split = (delta / disc if disc else 0.0), disc / (vx + vy)
    square = 0.25 * cos2 * cos2
    moments = (0.5 * c2 / vx, 0.5 * s2 / vy, 0.5 * s2 / vx, 0.5 * c2 / vy,
               0.5 * c2 * vx, 0.5 * s2 * vy, 0.5 * s2 * vx, 0.5 * c2 * vy,
               sc / vx, sc / vy, 0.5 * sc * split / (vx * vy), sc * vx, sc * vy, 0.5 * sc * split,
               0.5 * s2c2 / (vx * vx), 0.5 * s2c2 / (vy * vy), square / (vx * vy),
               0.5 * s2c2 * vx * vx, 0.5 * s2c2 * vy * vy, square * vx * vy, 0.5 * s2c2,
               0.25 * (s2 * s2 * vx / vy + c2 * c2 * vy / vx),
               0.25 * (s2 * s2 * vy / vx + c2 * c2 * vx / vy))

    # U, V and U^2 + V^2 of a_x, a_y in the mode vx (V <= 0), then in the mode vy (V >= 0)
    r1, r2, r3, r4 = (2.0 * math.sqrt(wx * vx), 2.0 * math.sqrt(wy * vx),
                      2.0 * math.sqrt(wx * vy), 2.0 * math.sqrt(wy * vy))
    u1, u2, u3, u4 = (wx + vx) / r1, (wy + vx) / r2, (wx + vy) / r3, (wy + vy) / r4
    v1, v2 = -modes.gap_x / ((wx + vx) * r1), -modes.gap_y / ((wy + vx) * r2)
    v3, v4 = modes.gap_y / ((wx + vy) * r3), modes.gap_x / ((wy + vy) * r4)
    e1, e2, e3, e4 = u1 * u1 + v1 * v1, u2 * u2 + v2 * v2, u3 * u3 + v3 * v3, u4 * u4 + v4 * v4
    nx0, ny0 = c2 * v1 * v1 + s2 * v3 * v3, s2 * v2 * v2 + c2 * v4 * v4
    nx_n, nx_m, ny_n, ny_m = c2 * e1, s2 * e3, s2 * e2, c2 * e4
    root, g1, g2 = math.sqrt(wx * wy), u1 * u2 + v1 * v2, u3 * u4 + v3 * v4
    cross0 = -sc * (split / (vx * vy)) * (eps / root) * (eps / (vx * vy + wx * wy)) / 4.0
    # pair0 <= 0, pair_n <= 0, pair_m >= 0
    pair0, pair_n, pair_m = sc * (u1 * v2 - u3 * v4), u1 * v2 + v1 * u2, u3 * v4 + v3 * u4
    # <Nx Ny>'s nm coefficient c2^2 e1 e4 + s2^2 e2 e3 - 2 s2c2 (g1 g2 + pair_n pair_m) as
    # non-negative terms, from e1 e4 - e2 e3 = -gaps and u1 v2 - v1 u2 = u3 v4 - v3 u4 = h
    gaps, h = disc * delta / (4.0 * wx * wy * vx * vy), (wy - wx) / (2.0 * root)
    diagonal, anti = math.sqrt(e1 * e4), math.sqrt(e2 * e3)
    tilt = ((cos2 * e1 * e4 - s2 * s2 * gaps if delta >= 0.0 else cos2 * e2 * e3 - c2 * c2 * gaps)
            / (c2 * diagonal + s2 * anti))  # c2 sqrt(e1 e4) - s2 sqrt(e2 e3)
    ladder = (nx0, nx_n, nx_m, ny0, ny_n, ny_m, cross0, sc * g1, sc * g2,
              s2c2 * (e1 * e2 + 2.0 * u1 * v1 * u2 * v2),
              s2c2 * (e3 * e4 + 2.0 * u3 * v3 * u4 * v4),
              tilt * tilt - 2.0 * s2c2 * pair_n * pair_m
              + 2.0 * s2c2 * h * h * (g1 * g1 + g2 * g2 + h * h) / (diagonal * anti + g1 * g2),
              nx0 * ny_n + nx_n * ny0 + 2.0 * (cross0 * sc * g1 + pair0 * sc * pair_n),
              nx0 * ny_m + nx_m * ny0 - 2.0 * (cross0 * sc * g2 + pair0 * sc * pair_m),
              nx0 * ny0 + cross0 * cross0 + pair0 * pair0)

    # kappa - (nx ny + |<a_x a_y>|^2 + ny/2) by monomial, and S_yx's with x and y swapped: each
    # linear coefficient is +/- cos2 / 2 times a weight plus terms of one sign
    common, sq = nx0 * ny0 + pair0 * pair0, s2c2 + s2c2
    witness = (-s2c2 * (u1 * u1 * v2 * v2 + v1 * v1 * u2 * u2),
               -s2c2 * (u3 * u3 * v4 * v4 + v3 * v3 * u4 * u4),
               sq * pair_n * pair_m - (c2 * c2 * e1 * e4 + s2 * s2 * e2 * e3),
               (0.5 * s2 * cos2 + s2 * (c2 * v1 * v1 - v2 * v2) - s2c2 * v2 * v2 * e1
                + sq * (u3 * v4) * pair_n - c2 * c2 * e1 * v4 * v4 - s2 * s2 * e2 * v3 * v3),
               (-0.5 * c2 * cos2 + c2 * (s2 * v3 * v3 - v4 * v4) - s2c2 * v4 * v4 * e3
                + sq * (u1 * v2) * pair_m - s2 * s2 * e3 * v2 * v2 - c2 * c2 * e4 * v1 * v1),
               0.0 - (common + 0.5 * ny0),
               (-0.5 * c2 * cos2 + c2 * (s2 * v2 * v2 - v1 * v1) - s2c2 * v1 * v1 * e2
                + sq * (u4 * v3) * pair_n - s2 * s2 * e2 * v3 * v3 - c2 * c2 * e1 * v4 * v4),
               (0.5 * s2 * cos2 + s2 * (c2 * v4 * v4 - v3 * v3) - s2c2 * v3 * v3 * e4
                + sq * (u2 * v1) * pair_m - c2 * c2 * e4 * v1 * v1 - s2 * s2 * e3 * v2 * v2),
               0.0 - (common + 0.5 * nx0))
    return _ClosedForms(moments, ladder, witness)


def second_and_fourth_moments(params: SystemParams, nm: QuantumNumbers) -> MomentSet:
    """All ten closed-form moments of the state ``Psi_(n, m)``."""
    (xx_n, xx_m, yy_n, yy_m, pp_n, pp_m, qq_n, qq_m, xy_x, xy_y, xy_split, pq_x, pq_y, pq_split,
     xxyy_n, xxyy_m, xxyy_nm, ppqq_n, ppqq_m, ppqq_nm, quartic, xxqq, yypp) = \
        params._closed_forms.moments
    n, m = nm.n, nm.m
    nn, mm, kn, km = 2 * n + 1, 2 * m + 1, n * (n + 1) + 1, m * (m + 1) + 1
    if n >= m:  # at n = m only the split terms are left
        xy, pq = xy_x * (n - m) - xy_split * mm, pq_x * (n - m) + pq_split * mm
    else:
        xy, pq = xy_y * (n - m) - xy_split * nn, pq_y * (n - m) + pq_split * nn
    return MomentSet(xx_n * nn + xx_m * mm, yy_n * nn + yy_m * mm,  # by position: the faster call
                     pp_n * nn + pp_m * mm, qq_n * nn + qq_m * mm, xy, pq,
                     xxyy_n * kn + xxyy_m * km + xy * xy + xxyy_nm * (nn * mm),
                     ppqq_n * kn + ppqq_m * km + pq * pq + ppqq_nm * (nn * mm),
                     quartic * (kn + km - 1) + xxqq * (nn * mm),
                     quartic * (kn + km - 1) + yypp * (nn * mm))


def uncertainty_areas(params: SystemParams, nm: QuantumNumbers) -> tuple[float, float]:
    """Heisenberg areas ``(Ax, Ay) = (dx*dp, dy*dq)``; both are >= 1/2.

    First moments and the symmetrized cross correlations vanish for the
    stationary states, so the areas are square roots of moment products.
    At resonance (``mu = 1``) the two areas coincide for every state.
    """
    xx_n, xx_m, yy_n, yy_m, pp_n, pp_m, qq_n, qq_m = params._closed_forms.moments[:8]
    nn, mm = 2 * nm.n + 1, 2 * nm.m + 1
    return (math.sqrt((xx_n * nn + xx_m * mm) * (pp_n * nn + pp_m * mm)),
            math.sqrt((yy_n * nn + yy_m * mm) * (qq_n * nn + qq_m * mm)))


def excitation_numbers(params: SystemParams, nm: QuantumNumbers) -> ExcitationNumbers:
    """Mean excitations of the lab-frame modes, including virtual ones.

    ``V^2 (k+1)`` is nonzero whenever the normal and bare frequencies
    differ; that is why the coupled ground state is populated.
    """
    nx0, nx_n, nx_m, ny0, ny_n, ny_m = params._closed_forms.ladder[:6]
    return ExcitationNumbers(nx0 + nx_n * nm.n + nx_m * nm.m, ny0 + ny_n * nm.n + ny_m * nm.m)


def ladder_moments(params: SystemParams, nm: QuantumNumbers) -> LadderMoments:
    """Correlators ``<Nx>``, ``<Ny>``, ``<Nx Ny>`` and ``|<a_x a_y^dag>|^2``."""
    (nx0, nx_n, nx_m, ny0, ny_n, ny_m, cross0, cross_n, cross_m,
     nxny_nn, nxny_mm, nxny_nm, nxny_n, nxny_m, nxny0) = params._closed_forms.ladder
    n, m = nm.n, nm.m
    # cross0 + cross_n n - cross_m m with cross_n - cross_m = 2 cross0 <= 0: one sign for n <= m
    cross = (cross0 * (2 * m + 1) + cross_n * (n - m) if n > m
             else cross0 * (2 * n + 1) + cross_m * (n - m))
    nxny = (nxny_nn * (n * (n - 1)) + nxny_mm * (m * (m - 1)) + nxny_nm * (n * m)
            + nxny_n * n + nxny_m * m + nxny0)
    return LadderMoments(nx0 + nx_n * n + nx_m * m, ny0 + ny_n * n + ny_m * m, nxny, cross * cross)
