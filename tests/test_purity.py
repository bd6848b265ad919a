import math

import numpy as np
import pytest

from oscpair import (
    QuantumNumbers,
    SystemParams,
    diagonalize,
    entropy_gap,
    makarov_entropy,
    makarov_schmidt,
    purity_exact,
    purity_ground_closed,
)
from oscpair.oracle import marginal_purity_quadrature, schmidt_oracle
from oscpair.specfun import jacobi_negparam

RESONANT_USC = SystemParams(1.0, 1.0, 0.9)

# P(k, k) for k = 0..8 at 60 significant digits, rounded to float64. Weak,
# moderate and near-bound coupling (bound 0.8), and resonance. Regenerate
# with `python tests/purity_reference.py` (a few minutes), which computes
# them with mpmath by a binomial series, checks the 1/sqrt(Q Q') identity
# against the paper's integrand, and imports nothing from oscpair.
PURITY_REFERENCE = {
    (1.0, 0.8, 0.01): (0.9999807081832677, 0.9936885274757719, 0.9812409192695722, 0.9629072226056195, 0.9390811775645391, 0.9102690170041849, 0.8770742610622895, 0.8401797560315675, 0.8003275931699314),
    (1.0, 0.8, 0.7): (0.810050116617045, 0.3323468003263736, 0.22219891821156984, 0.16576871742532187, 0.13786712401183032, 0.11451565375652213, 0.09924199524836848, 0.08804574124359502, 0.07944704200146582),
    (1.0, 0.8, 0.79): (0.5258995190801162, 0.2303405584350025, 0.1520385069759127, 0.11666831029895207, 0.09571527404952225, 0.08092106048272385, 0.06938530959518796, 0.06250754440525164, 0.05599095016180962),
    (1.0, 1.0, 0.5): (0.9634330440022851, 0.4499243652381873, 0.2823293092651319, 0.2027892119087129, 0.16157903441044935, 0.13824691602622916, 0.12200676995643987, 0.10812918273119118, 0.09583152020861484),
}


class TestGroundClosedForm:
    def test_decoupled_is_pure(self):
        assert purity_ground_closed(SystemParams(1.0, 0.7, 0.0)).purity == 1.0
        assert purity_ground_closed(SystemParams(1.0, 1.0, 0.0)).purity == 1.0

    def test_resonant_usc_value(self):
        # (1 + (sqrt(1.9)-sqrt(0.1))^2 / (4 sqrt(0.19)))^{-1/2}
        want = (1.0 + (math.sqrt(1.9) - math.sqrt(0.1)) ** 2 / (4.0 * math.sqrt(0.19))) ** -0.5
        res = purity_ground_closed(RESONANT_USC)
        assert res.purity == pytest.approx(want, abs=1e-15)
        assert round(res.purity, 4) == 0.7792
        assert round(res.linear_entropy, 4) == 0.2208

    def test_monotone_decreasing_in_coupling_at_resonance(self):
        values = [purity_ground_closed(SystemParams(1.0, 1.0, float(e))).purity
                  for e in np.linspace(0.0, 0.97, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestPurityExact:
    def test_ground_state_reduces_to_closed_form(self):
        for wy in (0.6, 0.8, 0.99, 1.0):
            for eps in np.linspace(0.05, 0.9 * wy, 7):
                params = SystemParams(1.0, wy, float(eps))
                got = purity_exact(params, QuantumNumbers(0, 0)).purity
                assert got == pytest.approx(purity_ground_closed(params).purity, abs=1e-12)

    def test_no_coupling_means_unit_purity(self):
        for params in (SystemParams(1.0, 0.7, 0.0), SystemParams(1.0, 0.8, 0.0),
                       SystemParams(0.8, 1.0, 0.0)):
            for n in range(7):
                for m in range(7):
                    res = purity_exact(params, QuantumNumbers(n, m))
                    assert res.purity == pytest.approx(1.0, abs=1e-13)
                    assert res.linear_entropy == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("params", list(PURITY_REFERENCE),
                             ids=lambda p: "wx%g-wy%g-eps%g" % p)
    def test_against_high_precision_reference(self, params):
        for k, want in enumerate(PURITY_REFERENCE[params]):
            got = purity_exact(SystemParams(*params), QuantumNumbers(k, k)).purity
            assert got == pytest.approx(want, abs=1e-12), f"state ({k}, {k})"

    def test_linear_entropy_complements_purity(self):
        res = purity_exact(RESONANT_USC, QuantumNumbers(2, 1))
        assert res.linear_entropy == 1.0 - res.purity
        assert 0.0 < res.purity < 1.0

    @pytest.mark.parametrize("nm", [(1, 0), (1, 1), (2, 2), (3, 1)])
    def test_against_svd_oracle(self, nm):
        for params in (RESONANT_USC, SystemParams(1.0, 0.8, 0.6)):
            got = purity_exact(params, QuantumNumbers(*nm)).purity
            ref = schmidt_oracle(params, QuantumNumbers(*nm), nodes=160).purity
            assert got == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("nm", [(0, 0), (1, 0), (2, 2), (4, 4), (6, 6)])
    def test_against_wigner_marginal_quadrature(self, nm):
        for params in (RESONANT_USC, SystemParams(1.0, 0.8, 0.72)):
            got = purity_exact(params, QuantumNumbers(*nm)).purity
            assert got == pytest.approx(marginal_purity_quadrature(params, QuantumNumbers(*nm)),
                                        abs=1e-12)

    def test_swap_symmetry(self):
        for eps in (0.2, 0.5):
            a = purity_exact(SystemParams(1.0, 0.8, eps), QuantumNumbers(2, 1)).purity
            b = purity_exact(SystemParams(0.8, 1.0, eps), QuantumNumbers(1, 2)).purity
            assert a == pytest.approx(b, abs=1e-10)

    def test_entropy_grows_with_quantum_numbers_at_resonance(self):
        params = SystemParams(1.0, 1.0, 0.5)
        entropy = {}
        for n in range(4):
            for m in range(4):
                entropy[n, m] = purity_exact(params, QuantumNumbers(n, m)).linear_entropy
        for n in range(3):
            for m in range(4):
                assert entropy[n + 1, m] >= entropy[n, m] - 1e-12
                assert entropy[m, n + 1] >= entropy[m, n] - 1e-12


class TestMakarovSchmidt:
    def test_ground_state_is_a_single_mode(self):
        for mu in (0.0, 0.3, 1.0, 2.5):
            spec = makarov_schmidt(QuantumNumbers(0, 0), mu)
            assert spec.lambdas == (1.0,)

    def test_first_excited_spectrum(self):
        mu = 1.0 / math.sqrt(3.0)
        spec = makarov_schmidt(QuantumNumbers(1, 0), mu)
        assert spec.lambdas[0] == pytest.approx(0.25, abs=1e-14)
        assert spec.lambdas[1] == pytest.approx(0.75, abs=1e-14)

    def test_decoupled_limits_are_kronecker(self):
        spec = makarov_schmidt(QuantumNumbers(2, 1), 0.0)
        assert spec.lambdas == (0.0, 0.0, 1.0, 0.0)
        spec = makarov_schmidt(QuantumNumbers(2, 1), math.inf)
        assert spec.lambdas == (0.0, 1.0, 0.0, 0.0)

    def test_negative_mixing_rejected(self):
        with pytest.raises(ValueError):
            makarov_schmidt(QuantumNumbers(1, 0), -0.5)

    @pytest.mark.parametrize("mu", [0.2, 1.0 / math.sqrt(3.0), 0.9, 1.0])
    @pytest.mark.parametrize("nm", [(1, 1), (2, 2), (4, 4), (3, 0), (0, 4)])
    def test_normalization(self, mu, nm):
        spec = makarov_schmidt(QuantumNumbers(*nm), mu)
        assert all(v >= 0.0 for v in spec.lambdas)
        assert math.fsum(spec.lambdas) == pytest.approx(1.0, abs=1e-10)

    def test_weights_sum_to_one_over_the_domain(self):
        for mu in np.logspace(-4.0, 4.0, 33):
            for n in range(13):
                for m in range(13):
                    lam = makarov_schmidt(QuantumNumbers(n, m), float(mu)).lambdas
                    assert min(lam) >= 0.0
                    assert abs(math.fsum(lam) - 1.0) <= 1e-14, (n, m, mu)

    @pytest.mark.parametrize("mu", [0.3, 0.9, 2.0])
    def test_matches_the_jacobi_formula(self, mu):
        # Makarov's explicit form through the negative-parameter Jacobi sum
        mu2 = mu * mu
        for n in range(7):
            for m in range(7):
                want = [
                    math.factorial(m) * math.factorial(n) * mu2 ** (k + n)
                    / ((1.0 + mu2) ** (m + n) * math.factorial(k) * math.factorial(m + n - k))
                    * jacobi_negparam(n, -(1 + m + n), m - k, -(2.0 + mu2) / mu2) ** 2
                    for k in range(n + m + 1)
                ]
                got = makarov_schmidt(QuantumNumbers(n, m), mu).lambdas
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    def test_matches_svd_oracle_at_weak_resonant_coupling(self):
        params = SystemParams(1.0, 1.0, 1e-3)
        oracle = schmidt_oracle(params, QuantumNumbers(1, 0))
        lam_oracle = np.sort(oracle.singular_values[:2] ** 2)[::-1]
        lam = np.sort(makarov_schmidt(QuantumNumbers(1, 0), 1.0).lambdas)[::-1]
        np.testing.assert_allclose(lam_oracle, lam, atol=1e-3)


class TestMakarovEntropy:
    def test_ground_state_always_zero(self):
        for mu in (0.0, 0.4, 1.0, 3.0):
            assert makarov_entropy(QuantumNumbers(0, 0), mu) == 0.0

    def test_first_excited_at_third_mixing(self):
        assert makarov_entropy(QuantumNumbers(1, 0), 1.0 / math.sqrt(3.0)) == pytest.approx(
            3.0 / 8.0, abs=1e-14
        )

    def test_decoupled_entropy_vanishes(self):
        for nm in [(1, 0), (2, 3)]:
            assert makarov_entropy(QuantumNumbers(*nm), 0.0) == 0.0


class TestEntropyGap:
    def test_no_coupling_no_gap(self):
        assert entropy_gap(SystemParams(1.0, 0.7, 0.0), QuantumNumbers(1, 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_resonant_usc_ground_state_gap(self):
        # approximate weights say the ground state is separable; the exact
        # marginal says otherwise
        gap = entropy_gap(RESONANT_USC, QuantumNumbers(0, 0))
        assert gap == pytest.approx(purity_ground_closed(RESONANT_USC).linear_entropy, abs=1e-10)
        assert gap > 0.2

    def test_approximate_entropy_ignores_coupling_at_resonance(self):
        values = {makarov_entropy(QuantumNumbers(2, 1), diagonalize(SystemParams(1.0, 1.0, e)).mu)
                  for e in (0.1, 0.5, 0.9)}
        assert len(values) == 1
