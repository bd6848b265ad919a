"""Accuracy over the whole frequency domain, against 50-digit references.

The grid takes each frequency from ``10^a``, ``a`` in {-50, -25, 0, 25, 50}
(the ends of ``SystemParams``' domain), and couplings {0, 1e-300, 1e-8, 0.5,
0.99} of the bound ``omega_x * omega_y``. The references in
``ladder_reference`` work in 50 digits from the same float64 inputs and take
the mixing weights from the discriminant, not from an angle. The bounds are
the ones README "Numerical conventions" states.
"""

import itertools
import math
import sys

import mpmath as mp

from ladder_reference import DPS, ladder, moments, normal_modes
from oscpair import (PhasePoint, QuantumNumbers, SystemParams, diagonalize, excitation_numbers,
                     ladder_moments, second_and_fourth_moments, steering, wigner_lab)
from oscpair.purity import _purities

FREQUENCIES = [10.0**a for a in (-50, -25, 0, 25, 50)]
FRACTIONS = (0.0, 1e-300, 1e-8, 0.5, 0.99)
POINTS = [(wx, wy, f * (wx * wy))
          for wx, wy in itertools.product(FREQUENCIES, repeat=2) for f in FRACTIONS]
# near resonance a rounded wx^2 - wy^2 would keep only 7 of its digits
NEAR_RESONANCE = [(1.0, 1.0 + d, eps) for d in (-1e-9, 1e-9) for eps in (1e-14, 1e-12, 1e-10)]
STATES = [(0, 0), (1, 0), (0, 1), (2, 1), (3, 3), (6, 2), (6, 6)]
# each moment's natural scale from the variances A, B of its factors:
# sqrt(A B) for a second moment (xx for xx, sqrt(xx yy) for xy), A B for a fourth
FACTORS = {"xx": ("xx", "xx"), "yy": ("yy", "yy"), "pp": ("pp", "pp"), "qq": ("qq", "qq"),
           "xy": ("xx", "yy"), "pq": ("pp", "qq"), "xxyy": ("xx", "yy"),
           "ppqq": ("pp", "qq"), "xxqq": ("xx", "qq"), "yypp": ("yy", "pp")}


def _wigner(wx, wy, eps, n, m, x, p, y, q):
    """50-digit ``(W, exp(-(a_X + a_Y)) / pi^2)``, ``a_X = vx X^2 + P^2/vx`` (likewise ``a_Y``).

    The squares of the normal coordinates come from the weights alone, ``X^2 = c2 x^2 +
    2 sc x y + s2 y^2`` and so on, so no angle, cosine or sign enters.
    """
    s2, c2, sc, vx, vy = normal_modes(wx, wy, eps)
    a_x = (vx * (c2 * x * x + 2 * sc * x * y + s2 * y * y)
           + (c2 * p * p + 2 * sc * p * q + s2 * q * q) / vx)
    a_y = (vy * (s2 * x * x - 2 * sc * x * y + c2 * y * y)
           + (s2 * p * p - 2 * sc * p * q + c2 * q * q) / vy)
    envelope = mp.exp(-(a_x + a_y)) / mp.pi**2
    lag = mp.laguerre(n, 0, 2 * a_x) * mp.laguerre(m, 0, 2 * a_y)
    return (-1) ** (n + m) * envelope * lag, envelope


def _worst(errors):
    """The largest ``(error, where)``; a nan error counts as infinite."""
    return max(((e if e == e else mp.inf), where) for e, where in errors)


def test_mixing_weights_are_exact_to_a_few_ulps():
    # below the normal range a weight is held to 1e-15 of the smallest normal float,
    # a few subnormal spacings
    tiny = sys.float_info.min
    errors = []
    with mp.workdps(DPS):
        for wx, wy, eps in POINTS + NEAR_RESONANCE:
            modes = diagonalize(SystemParams(wx, wy, eps))
            s2, c2, sc, _, _ = normal_modes(mp.mpf(wx), mp.mpf(wy), mp.mpf(eps))
            for name, got, want in (("c2", modes.c2, c2), ("s2", modes.s2, s2),
                                    ("sc", modes.sc, sc)):
                errors.append((abs(got - want) / max(abs(want), tiny), (wx, wy, eps, name)))
    worst = _worst(errors)
    assert worst[0] <= 1e-15, worst


def test_smaller_normal_frequency_near_the_bound():
    # wx*wy is not a float at these points: its rounding error is of the order of wx*wy - eps
    errors = []
    with mp.workdps(DPS):
        for (wx, wy), f in itertools.product(((1.1, 0.7), (3.3, 0.17)),
                                             (0.99, 1 - 1e-6, 1 - 1e-10, 1 - 1e-13)):
            eps = f * (wx * wy)
            want = normal_modes(mp.mpf(wx), mp.mpf(wy), mp.mpf(eps))[4]
            got = diagonalize(SystemParams(wx, wy, eps)).vartheta_y
            errors.append((abs(got - want) / want, (wx, wy, f)))
    worst = _worst(errors)
    assert worst[0] <= 1e-15, worst


def test_moments_within_their_natural_scale():
    errors = []
    with mp.workdps(DPS):
        for (wx, wy, eps), (n, m) in itertools.product(POINTS, STATES):
            got = second_and_fourth_moments(SystemParams(wx, wy, eps), QuantumNumbers(n, m))
            want = moments(mp.mpf(wx), mp.mpf(wy), mp.mpf(eps), n, m)
            for name, (a, b) in FACTORS.items():
                scale = want[a] * want[b] if len(name) == 4 else mp.sqrt(want[a] * want[b])
                errors.append((abs(getattr(got, name) - want[name]) / scale,
                               (wx, wy, eps, n, m, name)))
    worst = _worst(errors)
    assert worst[0] <= 1e-13, worst


def test_steering_witnesses_within_the_occupation_scale():
    errors = []
    for (wx, wy, eps), (n, m) in itertools.product(POINTS, STATES):
        res = steering(SystemParams(wx, wy, eps), QuantumNumbers(n, m))
        with mp.workdps(DPS):
            nx, ny, nxny, cross = ladder(wx, wy, eps, n, m)
            scale = (nx + 1) * (ny + 1)
            for name, got, want in (("s_xy_raw", res.s_xy_raw, cross**2 - (nxny + ny / 2)),
                                    ("s_yx_raw", res.s_yx_raw, cross**2 - (nxny + nx / 2))):
                errors.append((abs(got - want) / scale, (wx, wy, eps, n, m, name)))
    worst = _worst(errors)
    assert worst[0] <= 1e-13, worst


def test_ladder_correlators_within_the_occupation_scale():
    # a virtual excitation far below 1 is held to that scale, not to its own size
    errors = []
    for (wx, wy, eps), (n, m) in itertools.product(POINTS, STATES):
        params, nm = SystemParams(wx, wy, eps), QuantumNumbers(n, m)
        ex, lm = excitation_numbers(params, nm), ladder_moments(params, nm)
        with mp.workdps(DPS):
            nx, ny, nxny, cross = ladder(wx, wy, eps, n, m)
            scale = (nx + 1) * (ny + 1)
            for name, got, want, unit in (
                    ("nx", ex.nx, nx, nx + 1), ("ny", ex.ny, ny, ny + 1),
                    ("ladder nx", lm.nx, nx, nx + 1), ("ladder ny", lm.ny, ny, ny + 1),
                    ("nxny", lm.nxny, nxny, scale), ("cross_mag_sq", lm.cross_mag_sq, cross**2, scale)):
                errors.append((abs(got - want) / unit, (wx, wy, eps, n, m, name)))
    worst = _worst(errors)
    assert worst[0] <= 2e-15, worst


def test_ladder_correlators_and_witnesses_keep_relative_accuracy():
    # relative to each value itself wherever it is a normal float, on the grid plus three
    # couplings of order one down to 1e-8 of the bound: no closed form subtracts terms of
    # order one. The moment route cancels them down to eps^2, two digits per decade of eps,
    # and a value below its last 20 digits (an exact 0 at eps = 0) is left out
    extra = [(1.0, wy, f * wy) for wy in (0.8, 0.1, 1.0) for f in FRACTIONS + (1 - 1e-8,)]
    errors = []
    for (wx, wy, eps), (n, m) in itertools.product(POINTS + extra, STATES):
        params, nm = SystemParams(wx, wy, eps), QuantumNumbers(n, m)
        lm, res = ladder_moments(params, nm), steering(params, nm)
        digits = 150 + (2 * max(0, -math.floor(math.log10(eps / (wx * wy)))) if eps else 0)
        with mp.workdps(digits):
            nx, ny, nxny, cross = ladder(wx, wy, eps, n, m, digits)
            floor = max(sys.float_info.min, mp.mpf(10) ** (20 - digits) * (nx + 1) * (ny + 1))
            for name, got, want in (
                    ("nx", lm.nx, nx), ("ny", lm.ny, ny), ("nxny", lm.nxny, nxny),
                    ("cross_mag_sq", lm.cross_mag_sq, cross**2),
                    ("s_xy_raw", res.s_xy_raw, cross**2 - (nxny + ny / 2)),
                    ("s_yx_raw", res.s_yx_raw, cross**2 - (nxny + nx / 2))):
                if abs(want) >= floor:
                    errors.append((abs(got - want) / abs(want), (wx, wy, eps, n, m, name)))
    worst = _worst(errors)
    assert worst[0] <= 2e-15, worst


def test_decoupled_states_are_pure_off_resonance():
    # 1.6e-15 measured on the decades and 2.2e-16 at the three points between them; the
    # worst of 41 log-spaced omega_y in [0.01, 100] is 2.9e-15, (3,8) at 0.501
    states = [QuantumNumbers(n, m) for n in range(9) for m in range(9)]
    pairs = [(wx, wy) for wx, wy in itertools.product(FREQUENCIES, repeat=2) if wx != wy]
    for grid, bound in ((pairs, 4e-15), ([(1.0, 0.1), (1.0, 0.5), (1.0, 2.0)], 1e-15)):
        errors = []
        for wx, wy in grid:
            for nm, p in zip(states, _purities([SystemParams(wx, wy, 0.0)], states)[0]):
                errors.append((abs(p - 1.0), (wx, wy, nm.n, nm.m)))
        worst = _worst(errors)
        assert worst[0] <= bound, worst


def test_wigner_function_within_its_envelope():
    # the origin, one ground-state standard deviation out along each lab axis, and out
    # along x and y (p and q) at once, where the sign of the mixing enters
    errors = []
    for (wx, wy, eps), (n, m) in itertools.product(POINTS, [(0, 0), (1, 0), (2, 1), (3, 3),
                                                             (6, 6)]):
        modes = diagonalize(SystemParams(wx, wy, eps))
        x, p = 0.7 / math.sqrt(wx), 0.7 * math.sqrt(wx)
        y, q = 0.7 / math.sqrt(wy), 0.7 * math.sqrt(wy)
        for pt in ((0.0, 0.0, 0.0, 0.0), (x, 0.0, 0.0, 0.0), (0.0, p, 0.0, 0.0),
                   (0.0, 0.0, y, 0.0), (0.0, 0.0, 0.0, q), (x, 0.0, y, 0.0), (0.0, p, 0.0, q)):
            got = wigner_lab(modes, QuantumNumbers(n, m), PhasePoint(*pt))
            with mp.workdps(DPS):
                want, envelope = _wigner(*map(mp.mpf, (wx, wy, eps)), n, m, *map(mp.mpf, pt))
                errors.append((abs(got - want) / envelope, (wx, wy, eps, n, m, pt)))
    worst = _worst(errors)
    assert worst[0] <= 1e-13, worst
