import math

import numpy as np
import pytest

from oscpair import (
    QuantumNumbers,
    SystemParams,
    excitation_numbers,
    ladder_moments,
    second_and_fourth_moments,
    uncertainty_areas,
)
from oscpair.oracle import ladder_oracle, moment_set_oracle
from ladder_reference import ladder

MOMENT_NAMES = ("xx", "yy", "pp", "qq", "xy", "pq", "xxyy", "ppqq", "xxqq", "yypp")

GRID = [
    SystemParams(1.0, 0.99, 0.5),
    SystemParams(1.0, 0.8, 0.3),
    SystemParams(1.0, 0.8, 0.72),
    SystemParams(1.0, 1.0, 0.9),
    SystemParams(0.8, 1.0, 0.5),  # swapped ordering exercises theta > pi/4
]
STATES = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 2), (3, 3)]


def test_decoupled_moments_are_single_oscillator():
    params = SystemParams(1.2, 0.7, 0.0)
    for n, m in [(0, 0), (2, 1), (3, 3)]:
        ms = second_and_fourth_moments(params, QuantumNumbers(n, m))
        assert ms.xx == pytest.approx((1 + 2 * n) / (2 * 1.2), rel=1e-14)
        assert ms.pp == pytest.approx((1 + 2 * n) * 1.2 / 2, rel=1e-14)
        assert ms.yy == pytest.approx((1 + 2 * m) /(2 * 0.7), rel=1e-14)
        assert ms.xy == 0.0
        assert ms.pq == 0.0


def test_ground_state_covariance_belongs_to_plus_eps_xy():
    # H = (p^2 + q^2)/2 + r.V.r/2 with V = [[wx^2, eps], [eps, wy^2]] is the
    # +eps*x*y Hamiltonian; its ground state has <r r^T> = V^(-1/2)/2 and
    # <pi pi^T> = V^(1/2)/2 for r = (x, y), pi = (p, q)
    for wx, wy, eps in [(1.0, 0.8, 0.5), (1.0, 1.0, 0.9), (0.8, 1.0, 0.3)]:
        evals, evecs = np.linalg.eigh(np.array([[wx * wx, eps], [eps, wy * wy]]))
        pos = evecs @ np.diag(0.5 / np.sqrt(evals)) @ evecs.T
        mom = evecs @ np.diag(0.5 * np.sqrt(evals)) @ evecs.T
        ms = second_and_fourth_moments(SystemParams(wx, wy, eps), QuantumNumbers(0, 0))
        got_pos = [[ms.xx, ms.xy], [ms.xy, ms.yy]]
        got_mom = [[ms.pp, ms.pq], [ms.pq, ms.qq]]
        np.testing.assert_allclose(got_pos, pos, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got_mom, mom, rtol=0.0, atol=1e-12)
    ms = second_and_fourth_moments(SystemParams(1.0, 0.8, 0.5), QuantumNumbers(0, 0))
    assert ms.xy == pytest.approx(-0.2355, abs=1e-4)


def test_symmetric_resonant_state_has_no_position_correlation():
    # n = m at resonance: the (1+2n)/vx - (1+2m)/vy bracket does not cancel
    # unless the normal frequencies coincide, which needs eps -> 0
    params = SystemParams(1.0, 1.0, 1e-9)
    ms = second_and_fourth_moments(params, QuantumNumbers(2, 2))
    assert ms.xy == pytest.approx(0.0, abs=1e-8)
    assert ms.pq == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("params", GRID)
@pytest.mark.parametrize("nm", STATES)
def test_closed_forms_match_quadrature_oracle(params, nm):
    q = QuantumNumbers(*nm)
    ms = second_and_fourth_moments(params, q)
    ref = moment_set_oracle(params, q)
    for name in MOMENT_NAMES:
        assert np.isclose(getattr(ms, name), ref[name], rtol=1e-10, atol=1e-12), name


@pytest.mark.parametrize("params", GRID)
def test_parity_odd_cross_moments_vanish(params):
    ref = moment_set_oracle(params, QuantumNumbers(2, 1))
    assert abs(ref["xq"]) < 1e-12
    assert abs(ref["py"]) < 1e-12


class TestUncertaintyAreas:
    def test_decoupled_values(self):
        params = SystemParams(1.0, 0.7, 0.0)
        for n, m in [(0, 0), (1, 2), (3, 0)]:
            ax, ay = uncertainty_areas(params, QuantumNumbers(n, m))
            assert ax == pytest.approx((2 * n + 1) / 2, rel=1e-14)
            assert ay == pytest.approx((2 * m + 1) / 2, rel=1e-14)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_resonance_makes_areas_equal(self, eps):
        params = SystemParams(1.0, 1.0, eps)
        for n, m in [(0, 0), (1, 0), (3, 2)]:
            ax, ay = uncertainty_areas(params, QuantumNumbers(n, m))
            assert abs(ax - ay) < 1e-12

    def test_weak_coupling_symmetric_state_is_parameter_free(self):
        for mu_frac in (0.3, 0.7):
            # small coupling with matched detuning fixes mu while keeping
            # the normal frequencies nearly equal
            eps = 1e-6
            detune = 2.0 * eps * (1.0 - mu_frac**2) / (2.0 * mu_frac)
            params = SystemParams(1.0, math.sqrt(1.0 - detune), eps)
            ax, ay = uncertainty_areas(params, QuantumNumbers(2, 2))
            assert ax == pytest.approx(2.5, abs=1e-5)
            assert ay == pytest.approx(2.5, abs=1e-5)

    @pytest.mark.parametrize("params", GRID)
    @pytest.mark.parametrize("nm", STATES)
    def test_heisenberg_bound(self, params, nm):
        ax, ay = uncertainty_areas(params, QuantumNumbers(*nm))
        assert ax >= 0.5 - 1e-12
        assert ay >= 0.5 - 1e-12


class TestExcitationNumbers:
    def test_decoupled_counts_are_the_quantum_numbers(self):
        params = SystemParams(1.0, 0.6, 0.0)
        ex = excitation_numbers(params, QuantumNumbers(3, 1))
        assert ex.nx == pytest.approx(3.0, abs=1e-13)
        assert ex.ny == pytest.approx(1.0, abs=1e-13)

    def test_weak_resonant_coupling_shares_excitation_equally(self):
        params = SystemParams(1.0, 1.0, 1e-3)
        for n, m in [(1, 0), (2, 1), (0, 3)]:
            ex = excitation_numbers(params, QuantumNumbers(n, m))
            assert ex.nx == pytest.approx((n + m) / 2, abs=1e-6)
            assert ex.ny == pytest.approx((n + m) / 2, abs=1e-6)

    def test_ultrastrong_ground_state_hosts_virtual_excitations(self):
        params = SystemParams(1.0, 1.0, 0.9)
        ex = excitation_numbers(params, QuantumNumbers(0, 0))
        assert ex.nx == pytest.approx(ex.ny, abs=1e-14)
        assert ex.nx > 0.05
        ref = ladder_oracle(params, QuantumNumbers(0, 0))
        assert ex.nx == pytest.approx(ref.nx, abs=1e-10)
        assert ex.ny == pytest.approx(ref.ny, abs=1e-10)

    @pytest.mark.parametrize("wy", [0.1, 0.8])
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
    def test_ground_state_relative_accuracy_at_weak_coupling(self, wy, eps):
        ex = excitation_numbers(SystemParams(1.0, wy, eps), QuantumNumbers(0, 0))
        want_nx, want_ny, *_ = ladder(1.0, wy, eps, 0, 0)
        assert abs((ex.nx - want_nx) / want_nx) <= 1e-12
        assert abs((ex.ny - want_ny) / want_ny) <= 1e-12

    def test_ground_state_occupations_are_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            wx, wy = np.exp(rng.uniform(-3.0, 3.0, 2))
            eps = 10.0 ** rng.uniform(-12.0, 0.0) * rng.uniform(0.0, 1.0) * wx * wy
            ex = excitation_numbers(SystemParams(float(wx), float(wy), float(eps)),
                                    QuantumNumbers(0, 0))
            assert ex.nx >= 0.0 and ex.ny >= 0.0, (wx, wy, eps)


class TestLadderMoments:
    def test_decoupled_product_state(self):
        params = SystemParams(1.0, 0.6, 0.0)
        for n, m in [(0, 0), (2, 1), (1, 3)]:
            lm = ladder_moments(params, QuantumNumbers(n, m))
            assert lm.cross_mag_sq == pytest.approx(0.0, abs=1e-15)
            assert lm.nxny == pytest.approx(n * m, abs=1e-12)

    @pytest.mark.parametrize("params", GRID)
    @pytest.mark.parametrize("nm", [(0, 0), (1, 0), (2, 1), (3, 3)])
    def test_matches_quadrature_oracle(self, params, nm):
        q = QuantumNumbers(*nm)
        lm = ladder_moments(params, q)
        ref = ladder_oracle(params, q)
        assert lm.nx == pytest.approx(ref.nx, abs=1e-10)
        assert lm.ny == pytest.approx(ref.ny, abs=1e-10)
        assert lm.nxny == pytest.approx(ref.nxny, abs=1e-10)
        assert lm.cross_mag_sq == pytest.approx(ref.cross_mag_sq, abs=1e-10)
