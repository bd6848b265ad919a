"""Closed-form phase-space moments and ladder correlators of the stationary states.

Second and fourth moments of the lab-frame quadratures follow from the
separable normal-mode state by rotating the quadrature operators, written
in the exact weights ``c2, s2, sc`` of :func:`model.diagonalize`. Every
entry is validated against the exact Gauss-Hermite quadrature oracle.

The ladder correlators come from the Bogoliubov expansion of ``a_x`` and
``a_y`` instead: a normal mode of frequency ``v`` with ``k`` quanta enters
``a`` of the lab frequency ``w`` as ``U A + V A^dag``, ``U, V = (w +/- v) /
(2 sqrt(wv))``, with rotation weights ``(c, -s)`` in ``a_x`` and ``(s, c)``
in ``a_y``. ``V`` is ``(w^2 - v^2) / ((w + v) 2 sqrt(wv))``, with the gap
``w^2 - v^2`` from :func:`model.diagonalize`, so a small ``V`` keeps its
relative accuracy. Occupations are sums of non-negative terms, and ``<Nx Ny>``
is its Wick part plus the Fock-state fourth cumulant ``-k(k+1)`` of each mode,
so no terms of order one cancel in floating point at weak coupling.
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


def second_and_fourth_moments(params: SystemParams, nm: QuantumNumbers) -> MomentSet:
    """All ten closed-form moments of the state ``Psi_(n, m)``."""
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s2, c2, sc = modes.s2, modes.c2, modes.sc
    s2c2 = sc * sc

    nn = 2 * nm.n + 1
    mm = 2 * nm.m + 1
    kn = 1 + 2 * nm.n * (1 + nm.n)
    km = 1 + 2 * nm.m * (1 + nm.m)

    xx = nn * c2 / (2.0 * vx) + mm * s2 / (2.0 * vy)
    yy = nn * s2 / (2.0 * vx) + mm * c2 / (2.0 * vy)
    pp = 0.5 * (nn * vx * c2 + mm * vy * s2)
    qq = 0.5 * (nn * vx * s2 + mm * vy * c2)
    xy = 0.5 * sc * (nn / vx - mm / vy)
    pq = 0.5 * sc * (nn * vx - mm * vy)

    xxyy = (3.0 * (km * vx * vx + kn * vy * vy) * s2c2
            + nn * mm * vx * vy * (1.0 - 6.0 * s2c2)) / (4.0 * vx * vx * vy * vy)
    ppqq = (3.0 * (km * vy * vy + kn * vx * vx) * s2c2
            + nn * mm * vx * vy * (1.0 - 6.0 * s2c2)) / 4.0
    quartic = nm.n * (nm.n + 1) + nm.m * (nm.m + 1) + 1
    xxqq = 0.5 * quartic * s2c2 + nn * mm * (s2 * s2 * vx * vx + c2 * c2 * vy * vy) / (4.0 * vx * vy)
    yypp = 0.5 * quartic * s2c2 + nn * mm * (s2 * s2 * vy * vy + c2 * c2 * vx * vx) / (4.0 * vx * vy)

    return MomentSet(xx=xx, yy=yy, pp=pp, qq=qq, xy=xy, pq=pq,
                     xxyy=xxyy, ppqq=ppqq, xxqq=xxqq, yypp=yypp)


def uncertainty_areas(params: SystemParams, nm: QuantumNumbers) -> tuple[float, float]:
    """Heisenberg areas ``(Ax, Ay) = (dx*dp, dy*dq)``; both are >= 1/2.

    First moments and the symmetrized cross correlations vanish for the
    stationary states, so the areas are square roots of moment products.
    At resonance (``mu = 1``) the two areas coincide for every state.
    """
    ms = second_and_fourth_moments(params, nm)
    return math.sqrt(ms.xx * ms.pp), math.sqrt(ms.yy * ms.qq)


def _bogoliubov(params: SystemParams, nm: QuantumNumbers) -> tuple[float, ...]:
    """``(nx, ny, <a_x a_y^dag>, <a_x a_y>, kappa)``, ``-kappa`` the fourth cumulant of ``Nx Ny``.

    ``ux, vx`` and ``uy, vy`` are ``U, V`` of ``a_x`` and ``a_y`` for each normal mode,
    and ``gx, gy`` its gaps ``wx^2 - v^2`` and ``wy^2 - v^2``.
    """
    modes = model.diagonalize(params)
    wx, wy = params.omega_x, params.omega_y
    nx = ny = cross = pair = kappa = 0.0
    for v, k, rx2, ry2, rxy, gx, gy in (
            (modes.vartheta_x, nm.n, modes.c2, modes.s2, modes.sc, -modes.gap_x, -modes.gap_y),
            (modes.vartheta_y, nm.m, modes.s2, modes.c2, -modes.sc, modes.gap_y, modes.gap_x)):
        rx, ry = 2.0 * math.sqrt(wx * v), 2.0 * math.sqrt(wy * v)
        ux, vx = (wx + v) / rx, gx / ((wx + v) * rx)
        uy, vy = (wy + v) / ry, gy / ((wy + v) * ry)
        nx += rx2 * (ux * ux * k + vx * vx * (k + 1))
        ny += ry2 * (uy * uy * k + vy * vy * (k + 1))
        cross += rxy * (ux * uy * (k + 1) + vx * vy * k)
        pair += rxy * (ux * vy * (k + 1) + vx * uy * k)
        kappa += rx2 * ry2 * k * (k + 1) * ((ux * ux + vx * vx) * (uy * uy + vy * vy)
                                            + 2.0 * ux * vx * uy * vy)
    return nx, ny, cross, pair, kappa


def excitation_numbers(params: SystemParams, nm: QuantumNumbers) -> ExcitationNumbers:
    """Mean excitations of the lab-frame modes, including virtual ones.

    ``V^2 (k+1)`` is nonzero whenever the normal and bare frequencies
    differ; that is why the coupled ground state is populated.
    """
    nx, ny, *_ = _bogoliubov(params, nm)
    return ExcitationNumbers(nx=nx, ny=ny)


def ladder_moments(params: SystemParams, nm: QuantumNumbers) -> LadderMoments:
    """Correlators ``<Nx>``, ``<Ny>``, ``<Nx Ny>`` and ``|<a_x a_y^dag>|^2``."""
    nx, ny, cross, pair, kappa = _bogoliubov(params, nm)
    return LadderMoments(nx=nx, ny=ny, nxny=nx * ny + cross * cross + pair * pair - kappa,
                         cross_mag_sq=cross * cross)
