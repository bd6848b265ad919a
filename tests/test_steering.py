import math

import numpy as np
import pytest

from oscpair import (
    QuantumNumbers,
    SystemParams,
    diagonalize,
    selection_rules,
    steering,
    steering_weak_general,
)
from ladder_reference import witnesses


def weakly_coupled_params(mu_target, eps=1e-4):
    """Small coupling with the detuning matched so tan(theta) hits mu_target."""
    detune = 2.0 * eps * (1.0 - mu_target**2) / (2.0 * mu_target)
    return SystemParams(1.0, math.sqrt(1.0 - detune), eps)


class TestFullSteering:
    @pytest.mark.parametrize("eps", np.linspace(0.1, 0.95, 10))
    def test_resonance_clamps_both_directions_to_zero(self, eps):
        params = SystemParams(1.0, 1.0, float(eps))
        for n in range(7):
            for m in range(7):
                res = steering(params, QuantumNumbers(n, m))
                assert res.s_xy == 0.0
                assert res.s_yx == 0.0
                assert res.delta == 0.0
                assert res.s_xy_raw <= 0.0
                assert res.s_yx_raw <= 0.0

    def test_weak_resonant_coupling_steers_only_by_roundoff(self):
        # at resonance the witness is of order -eps^2, the difference of O(n^2) terms,
        # so roundoff sets its sign at weak coupling: the positive values are pinned,
        # each within 2e-15 of zero, in (n, 0) or (0, m), and negative at 50 digits
        positive = []
        for w in (1.0, 2.7):
            for frac in np.logspace(-16, np.log10(1.9e-8), 12):
                eps = float(frac * w * w)
                for n in range(7):
                    for m in range(7):
                        res = steering(SystemParams(w, w, eps), QuantumNumbers(n, m))
                        for k, raw in enumerate((res.s_xy_raw, res.s_yx_raw)):
                            if raw > 0.0:
                                positive.append(raw)
                                assert n == 0 or m == 0
                                assert witnesses(w, w, eps, n, m)[k] < 0.0, (w, eps, n, m)
        assert len(positive) == 74
        assert max(positive) <= 2e-15

    def test_ground_state_cannot_steer(self):
        for wy in (0.99, 0.8, 0.6):
            for eps in np.linspace(0.0, wy, 41)[:-1]:
                res = steering(SystemParams(1.0, wy, float(eps)), QuantumNumbers(0, 0))
                assert res.s_xy == 0.0
                assert res.s_yx == 0.0

    def test_ground_state_clamp_is_exact_up_to_the_bound(self):
        # wy from 0.05 to 3 and eps up to 0.999 of the bound; roundoff in the
        # subtractive witness lifted it above zero on some of these points
        fractions = np.linspace(0.0, 0.999, 100)
        for wx in (1.0, 0.3, 2.7):
            for wy in np.linspace(0.05, 3.0, 101):
                for frac in fractions:
                    res = steering(SystemParams(wx, float(wy), float(frac * wx * wy)),
                                   QuantumNumbers(0, 0))
                    assert math.copysign(1.0, res.s_xy) == 1.0 and res.s_xy == 0.0
                    assert math.copysign(1.0, res.s_yx) == 1.0 and res.s_yx == 0.0
                    assert res.s_xy_raw <= 0.0 and res.s_yx_raw <= 0.0

    def test_detuned_excited_state_steers_one_way(self):
        found_positive = False
        for eps in np.linspace(0.0, 0.99, 100)[:-1]:
            res = steering(SystemParams(1.0, 0.99, float(eps)), QuantumNumbers(1, 0))
            assert res.s_yx == 0.0
            found_positive = found_positive or res.s_xy > 0.0
        assert found_positive

    def test_full_asymmetry_on_detuned_sweeps(self):
        for wy in (0.99, 0.8, 0.6):
            for eps in np.linspace(0.0, wy, 41)[:-1]:
                params = SystemParams(1.0, wy, float(eps))
                for n in range(5):
                    for m in range(5):
                        res = steering(params, QuantumNumbers(n, m))
                        assert res.s_xy * res.s_yx == 0.0

    def test_rise_and_fall_along_the_coupling_axis(self):
        # interior maximum: steering grows with coupling, then ultra-strong
        # coupling suppresses it again
        grid = np.linspace(0.0, 0.8, 81)[:-1]
        vals = [steering(SystemParams(1.0, 0.8, float(e)), QuantumNumbers(1, 0)).s_xy
                for e in grid]
        peak = int(np.argmax(vals))
        assert 0 < peak < len(vals) - 1
        assert vals[peak] > 0.0
        assert vals[0] == 0.0
        assert vals[-1] == 0.0

    @pytest.mark.parametrize("mu_target", [0.25, 0.5, 0.75])
    def test_weak_coupling_limit_matches_closed_form(self, mu_target):
        params = weakly_coupled_params(mu_target)
        mu = diagonalize(params).mu
        for n in range(1, 7):
            want = steering_weak_general(QuantumNumbers(n, 0), mu)
            got = steering(params, QuantumNumbers(n, 0)).s_xy
            assert got == pytest.approx(want, rel=1e-3)
            mirrored = steering(params, QuantumNumbers(0, n)).s_yx
            assert mirrored == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("wy", [0.1, 0.8])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_raw_witness_relative_accuracy_at_weak_coupling(self, wy, eps):
        # the witness is O(mu^2); a difference of O(1) fourth moments lost every digit by 1e-8
        params = SystemParams(1.0, wy, eps)
        for k in range(1, 7):
            for n, m in ((k, 0), (0, k)):
                res = steering(params, QuantumNumbers(n, m))
                for got, want in zip((res.s_xy_raw, res.s_yx_raw), witnesses(1.0, wy, eps, n, m)):
                    assert abs((got - want) / want) <= 1e-12, (n, m)

    def test_weak_coupling_selection_rules_hold_exactly(self):
        # the grid of steering-scan --omega-y 0.8 --epsilon 0:1e-8:3 --n-max 6 --m-max 6
        for eps in np.linspace(0.0, 1e-8, 3):
            params = SystemParams(1.0, 0.8, float(eps))
            for n in range(7):
                for m in range(7):
                    nm = QuantumNumbers(n, m)
                    res = steering(params, nm)
                    x_can, y_can = selection_rules(nm) if eps > 0.0 else (False, False)
                    assert (res.s_xy > 0.0, res.s_yx > 0.0) == (x_can, y_can), (eps, n, m)


class TestWeakClosedForm:
    def test_single_excitation_family_reduction(self):
        # general expression collapses to n mu^2 (1-mu^2)/(2 (1+mu^2)^2)
        for mu in np.linspace(0.05, 2.0, 25):
            for n in range(1, 21):
                want = n * mu**2 * (1 - mu**2) / (2 * (1 + mu**2) ** 2)
                got = steering_weak_general(QuantumNumbers(n, 0), float(mu))
                assert got == pytest.approx(max(want, 0.0), rel=1e-12, abs=1e-15)

    def test_sixteenth_quantization(self):
        mu = math.sqrt(3.0) / 3.0
        values = [steering_weak_general(QuantumNumbers(n, 0), mu) for n in range(1, 8)]
        for n, v in enumerate(values, start=1):
            assert v == pytest.approx(n / 16.0, rel=1e-12)
        gaps = {round(b - a, 12) for a, b in zip(values, values[1:])}
        assert gaps == {round(1.0 / 16.0, 12)}

    def test_resonant_and_decoupled_mixings_kill_steering(self):
        for n in range(4):
            for m in range(4):
                assert steering_weak_general(QuantumNumbers(n, m), 1.0) == 0.0
                assert steering_weak_general(QuantumNumbers(n, m), 0.0) == 0.0

    def test_doubly_excited_states_never_steer(self):
        for mu in np.linspace(0.0, 1.5, 16):
            for n in range(1, 5):
                for m in range(1, 5):
                    assert steering_weak_general(QuantumNumbers(n, m), float(mu)) == 0.0

    def test_the_swapped_decoupled_corner_is_the_limit_zero(self):
        # diagonalize's mu is inf at eps = 0 with omega_x < omega_y, where steering is 0;
        # 2 (1+mu^2)^2 overflows from mu^2 of about 9.5e153, where the form is below 5e-154 m
        params = SystemParams(1.0, 2.0, 0.0)
        mu = diagonalize(params).mu
        assert mu == math.inf
        for n in range(5):
            for m in range(5):
                nm = QuantumNumbers(n, m)
                assert steering(params, nm).s_xy == 0.0
                for big in (mu, 1e200, 1e100, 1e77):
                    assert steering_weak_general(nm, big) == 0.0
        # below the cut the form is kept: m / (2 mu^2) to rounding
        assert steering_weak_general(QuantumNumbers(0, 3), 1e76) == pytest.approx(1.5e-152,
                                                                                 rel=1e-12)

    @pytest.mark.parametrize("mu", [-1e-300, -1.0, -math.inf, math.nan])
    def test_negative_or_nan_mixing_is_rejected(self, mu):
        with pytest.raises(ValueError, match="non-negative"):
            steering_weak_general(QuantumNumbers(1, 0), mu)


class TestSelectionRules:
    @pytest.mark.parametrize("nm, want", [
        ((3, 0), (True, False)),
        ((1, 0), (True, False)),
        ((0, 2), (False, True)),
        ((0, 0), (False, False)),
        ((2, 2), (False, False)),
        ((1, 4), (False, False)),
    ])
    def test_predicates(self, nm, want):
        assert selection_rules(QuantumNumbers(*nm)) == want

    def test_consistent_with_weak_closed_form(self):
        mu = 0.5
        for n in range(5):
            for m in range(5):
                x_can, y_can = selection_rules(QuantumNumbers(n, m))
                s_xy = steering_weak_general(QuantumNumbers(n, m), mu)
                s_yx = steering_weak_general(QuantumNumbers(m, n), mu)
                assert (s_xy > 0.0) == x_can
                assert (s_yx > 0.0) == y_can

    def test_far_from_resonance_the_weak_forms_do_not_hold(self):
        # weak coupling alone is not enough: at omega_y = 0.1 the exact (1, 0) witness is
        # negative (its 50-digit value agrees), yet the closed form and the rules say x steers y
        params = SystemParams(1.0, 0.1, 1e-4)
        nm = QuantumNumbers(1, 0)
        res = steering(params, nm)
        want = witnesses(1.0, 0.1, 1e-4, 1, 0)[0]
        assert res.s_xy_raw == pytest.approx(float(want), rel=1e-12)
        assert res.s_xy_raw == pytest.approx(-8.787e-8, rel=1e-3)
        assert res.s_xy == 0.0
        assert steering_weak_general(nm, diagonalize(params).mu) == pytest.approx(5.10e-9, rel=1e-2)
        assert selection_rules(nm) == (True, False)
