"""50-digit ladder correlators and steering witnesses by the moment route.

The quadrature moments of ``Psi_(n, m)`` (the closed forms of
``second_and_fourth_moments``) and their assembly into ladder correlators,
``Nx Ny = AB - A/2 - B/2 + 1/4`` with ``A = (wx x^2 + p^2/wx)/2`` and
``B = (wy y^2 + q^2/wy)/2``, in 50-digit mpmath arithmetic from the float64
inputs. Nothing is imported from ``oscpair``. The O(1) terms that cancel in
the witness at weak coupling are carried with 50 digits, so this route is
a reference for the package's Bogoliubov sums there.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50


def normal_modes(wx, wy, eps):
    """``(s^2, c^2, sc, vartheta_x, vartheta_y)`` in the package's conventions.

    The weights come from the discriminant ``D`` with ``cos 2theta = delta / D``
    and ``sin 2theta = 2 eps / D``, not from an angle: the weight of the mode
    nearer its lab oscillator is ``(D + |delta|) / (2D)`` and the other one is
    ``2 eps^2 / (D (D + |delta|))``, so neither is a difference, and a weight
    of 1e-200 keeps its 50 digits. ``D = 0`` is the resonant limit ``1/2``.
    """
    wx2, wy2 = wx * wx, wy * wy
    delta = wx2 - wy2
    disc = mp.hypot(delta, 2 * eps)
    vx2 = (wx2 + wy2 + disc) / 2
    vy2 = (wx2 * wy2 - eps * eps) / vx2
    if not disc:
        half = mp.mpf(1) / 2
        return half, half, half, mp.sqrt(vx2), mp.sqrt(vy2)
    near, far = (disc + abs(delta)) / (2 * disc), 2 * eps**2 / (disc * (disc + abs(delta)))
    s2, c2 = (far, near) if delta >= 0 else (near, far)
    return s2, c2, eps / disc, mp.sqrt(vx2), mp.sqrt(vy2)


def moments(wx, wy, eps, n: int, m: int) -> dict[str, mp.mpf]:
    """The ten moments ``xx .. yypp`` of the state ``(n, m)``."""
    s2, c2, sc, vx, vy = normal_modes(wx, wy, eps)
    s2c2 = sc * sc
    nn, mm = 2 * n + 1, 2 * m + 1
    kn, km = 1 + 2 * n * (1 + n), 1 + 2 * m * (1 + m)
    quartic = n * (n + 1) + m * (m + 1) + 1
    return {
        "xx": nn * c2 / (2 * vx) + mm * s2 / (2 * vy),
        "yy": nn * s2 / (2 * vx) + mm * c2 / (2 * vy),
        "pp": (nn * vx * c2 + mm * vy * s2) / 2,
        "qq": (nn * vx * s2 + mm * vy * c2) / 2,
        "xy": sc * (nn / vx - mm / vy) / 2,
        "pq": sc * (nn * vx - mm * vy) / 2,
        "xxyy": (3 * (km * vx**2 + kn * vy**2) * s2c2
                 + nn * mm * vx * vy * (1 - 6 * s2c2)) / (4 * vx**2 * vy**2),
        "ppqq": (3 * (km * vy**2 + kn * vx**2) * s2c2
                 + nn * mm * vx * vy * (1 - 6 * s2c2)) / 4,
        "xxqq": quartic * s2c2 / 2 + nn * mm * (s2**2 * vx**2 + c2**2 * vy**2) / (4 * vx * vy),
        "yypp": quartic * s2c2 / 2 + nn * mm * (s2**2 * vy**2 + c2**2 * vx**2) / (4 * vx * vy),
    }


def ladder(wx: float, wy: float, eps: float, n: int, m: int, dps: int = DPS):
    """``(nx, ny, <Nx Ny>, <a_x a_y^dag>)`` of the state ``(n, m)``, in ``dps`` digits."""
    with mp.workdps(dps):
        wx, wy, eps = mp.mpf(wx), mp.mpf(wy), mp.mpf(eps)
        ms = moments(wx, wy, eps, n, m)
        nx = (wx * ms["xx"] + ms["pp"] / wx) / 2 - mp.mpf(1) / 2
        ny = (wy * ms["yy"] + ms["qq"] / wy) / 2 - mp.mpf(1) / 2
        ab = (wx * wy * ms["xxyy"] + wx / wy * ms["xxqq"]
              + wy / wx * ms["yypp"] + ms["ppqq"] / (wx * wy)) / 4
        root = mp.sqrt(wx * wy)
        cross = (root * ms["xy"] + ms["pq"] / root) / 2
        return nx, ny, ab - (nx + ny) / 2 - mp.mpf(1) / 4, cross


def witnesses(wx: float, wy: float, eps: float, n: int, m: int):
    """Raw steering witnesses ``(S_xy, S_yx)`` before the clamp."""
    with mp.workdps(DPS):
        nx, ny, nxny, cross = ladder(wx, wy, eps, n, m)
        return cross**2 - (nxny + ny / 2), cross**2 - (nxny + nx / 2)
