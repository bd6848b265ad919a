"""Accuracy over the whole frequency domain, against 50-digit references.

The grid takes each frequency from ``10^a``, ``a`` in {-50, -25, 0, 25, 50}
(the ends of ``SystemParams``' domain), and couplings {0, 1e-300, 1e-8, 0.5,
0.99} of the bound ``omega_x * omega_y``. The references in
``ladder_reference`` work in 50 digits from the same float64 inputs and take
the mixing weights from the discriminant, not from an angle. The bounds are
the ones README "Numerical conventions" states.
"""

import itertools
import sys

import mpmath as mp

from ladder_reference import DPS, ladder, moments, normal_modes
from oscpair import QuantumNumbers, SystemParams, diagonalize, second_and_fourth_moments, steering
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


def test_decoupled_states_are_pure_off_resonance():
    states = [QuantumNumbers(n, m) for n in range(9) for m in range(9)]
    errors = []
    for wx, wy in itertools.product(FREQUENCIES, repeat=2):
        if wx != wy:
            for nm, p in zip(states, _purities(SystemParams(wx, wy, 0.0), states)):
                errors.append((abs(p - 1.0), (wx, wy, nm.n, nm.m)))
    worst = _worst(errors)
    assert worst[0] <= 1e-14, worst
