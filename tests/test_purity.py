import itertools
import math
import operator

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from oscpair.purity import _power_nd, _purities
from oscpair.specfun import jacobi_negparam
from power_reference import reference_power_nd

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

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_linear_entropy_relative_accuracy_at_weak_coupling(self, eps):
        # S_L = 1 - (1 + 4z)^(-1/2), 4z = sin^2(2 theta) (vx - vy)^2 / (4 vx vy),
        # in 50-digit arithmetic from the float64 inputs
        with mp.workdps(50):
            wx, wy, e = mp.mpf(1.0), mp.mpf(0.8), mp.mpf(eps)
            disc = mp.sqrt((wx**2 - wy**2) ** 2 + 4 * e**2)
            vxvy = mp.sqrt(wx**2 * wy**2 - e**2)
            sin2_2theta = 4 * e**2 / disc**2
            four_z = sin2_2theta * (wx**2 + wy**2 - 2 * vxvy) / (4 * vxvy)
            want = 1 - 1 / mp.sqrt(1 + four_z)
            got = purity_ground_closed(SystemParams(1.0, 0.8, eps)).linear_entropy
            assert abs((got - want) / want) <= 1e-12

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
                    assert res.purity == pytest.approx(1.0, abs=1e-15)
                    assert res.linear_entropy == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("params", list(PURITY_REFERENCE),
                             ids=lambda p: "wx%g-wy%g-eps%g" % p)
    def test_against_high_precision_reference(self, params):
        # the table holds every (n, m) <= (8, 8) at this coupling, (k, k) at 10 k; both
        # routes read within 1.8e-15 (the table's (5, 5) at eps = 0.01)
        table, = _purities([SystemParams(*params)], [QuantumNumbers(n, m)
                                                     for n in range(9) for m in range(9)])
        for k, want in enumerate(PURITY_REFERENCE[params]):
            state = SystemParams(*params), QuantumNumbers(k, k)
            for route, got in (("exact", purity_exact(*state).purity),
                               ("table", table[10 * k])):
                assert got == pytest.approx(want, abs=3e-15), f"{route}, state ({k}, {k})"

    def test_schmidt_oracle_against_high_precision_reference(self):
        # every pinned value, within the reference's own float64 rounding and a few ulps
        for params, values in PURITY_REFERENCE.items():
            for k, want in enumerate(values):
                got = schmidt_oracle(SystemParams(*params), QuantumNumbers(k, k)).purity
                assert abs(got - want) <= 1e-15, (params, k, got, want)

    def test_linear_entropy_complements_purity(self):
        res = purity_exact(RESONANT_USC, QuantumNumbers(2, 1))
        assert res.linear_entropy == 1.0 - res.purity
        assert 0.0 < res.purity < 1.0

    @pytest.mark.parametrize("nm", [(1, 0), (1, 1), (2, 2), (3, 1)])
    def test_against_svd_oracle(self, nm):
        for params in (RESONANT_USC, SystemParams(1.0, 0.8, 0.6)):
            got = purity_exact(params, QuantumNumbers(*nm)).purity
            ref = schmidt_oracle(params, QuantumNumbers(*nm)).purity
            assert got == pytest.approx(ref, abs=1e-12)

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

    def test_nan_mixing_rejected(self):
        # NaN compares false with everything, so a "mu < 0" guard lets it through
        with pytest.raises(ValueError):
            makarov_schmidt(QuantumNumbers(1, 1), math.nan)
        with pytest.raises(ValueError):
            makarov_entropy(QuantumNumbers(1, 1), math.nan)

    def test_weights_off_unit_sum_raise(self, monkeypatch):
        # a J_x basis 1 % too long, not orthonormal: the weights sum to 1.01^4
        from oscpair import purity

        eigh = purity._jx_eigh
        monkeypatch.setattr(purity, "_jx_eigh", lambda size: (eigh(size)[0], 1.01 * eigh(size)[1]))
        with pytest.raises(RuntimeError, match=r"not 1, for state \(2, 1\) at mu=0\.5$"):
            makarov_schmidt(QuantumNumbers(2, 1), 0.5)

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

    @pytest.mark.parametrize("mu", [1e-4, 1e-6, 1e-8, 0.3, 1.0, 5.0])
    def test_relative_accuracy_against_the_jacobi_sum(self, mu):
        # Makarov's explicit weights at 60 digits; at weak coupling the entropy
        # is O(mu^2) and 1 - sum(lambda_k^2) in float64 lost every digit
        for n in range(7):
            for m in range(7):
                want = _makarov_entropy_jacobi(n, m, mu)
                got = makarov_entropy(QuantumNumbers(n, m), mu)
                assert abs(got - want) <= 1e-12 * abs(want), (n, m)


def _makarov_entropy_jacobi(n, m, mu):
    """``1 - sum(lambda_k^2)`` from Makarov's Jacobi-sum weights, in 60-digit arithmetic."""
    def comb(a, j):  # generalized binomial coefficient, exact for integer a of any sign
        if a >= 0:
            return math.comb(a, j) if j <= a else 0
        return (-1) ** j * math.comb(j - a - 1, j)

    with mp.workdps(60):
        mu2 = mp.mpf(mu) ** 2
        zm, zp = -1 / mu2 - 1, -1 / mu2  # (z -/+ 1)/2 at z = -(2 + mu^2)/mu^2
        lam = []
        for k in range(n + m + 1):
            jacobi = mp.fsum(comb(-1 - m, n - s) * comb(n + m - k, s) * zm**s * zp ** (n - s)
                             for s in range(n + 1))
            lam.append(math.factorial(m) * math.factorial(n) * mu2 ** (k + n) * jacobi**2
                       / ((1 + mu2) ** (m + n) * math.factorial(k) * math.factorial(m + n - k)))
        return 1 - mp.fsum(v * v for v in lam)


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


# --- bit identity with the uncached, one-jet-at-a-time route -----------------
# The functions below, with power_reference.py, compute the purity and the
# approximate entropy one jet at a time and with no cache. They are the
# reference: the cached, batched route must return the same floats, not merely
# close ones.


def _reference_radicand(a, b, orders):
    q = np.zeros((2, 2, 2, 2))
    q[:, 0, :, 0] += a
    q[:, 1, :, 1] -= a
    q[0, :, 0, :] += b
    q[1, :, 1, :] -= b
    coeffs = np.zeros(tuple(o + 1 for o in orders))
    kept = tuple(slice(0, min(o + 1, 2)) for o in orders)
    coeffs[kept] = q[kept]
    return coeffs


def _reference_purity(params, nm):
    modes = diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s2, c2 = modes.s2, modes.c2
    orders = (nm.n, nm.m, nm.n, nm.m)
    pos = reference_power_nd(_reference_radicand(vx * s2, vy * c2, orders), -0.5)
    mom = reference_power_nd(_reference_radicand(s2 / vx, c2 / vy, orders), -0.5)
    p = float(np.dot(pos.ravel(), mom.ravel()[::-1]))
    if not (0.0 < p <= 1.0 + 1e-9):
        return ("raises", RuntimeError)
    return min(p, 1.0)


def _reference_makarov_weights(nm, mu):
    n, m = nm.n, nm.m
    size = n + m + 1
    if mu == 0.0 or math.isinf(mu):
        lam = [0.0] * size
        lam[n if mu == 0.0 else m] = 1.0
        return lam
    k = np.arange(1, size)
    off = 0.5 * np.sqrt(k * (size - k))
    evals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    column = vecs @ (np.exp(-2j * math.atan(mu) * evals) * vecs[n])
    return (column.real**2 + column.imag**2).tolist()


def _reference_makarov_entropy(nm, mu):
    lam = _reference_makarov_weights(nm, mu)
    if abs(math.fsum(lam) - 1.0) > 1e-8:
        return ("raises", RuntimeError)
    return 2.0 * math.fsum(map(operator.mul, lam[1:], itertools.accumulate(lam)))


def _outcome(f, *args):
    try:
        return f(*args)
    except RuntimeError:
        return ("raises", RuntimeError)


# both sides of resonance and resonance itself; eps = 0 changes the radicands'
# zero pattern (a = 0 below resonance, b = 0 above it up to cos(pi/2) roundoff)
BIT_GRID_WY = (0.1, 0.8, 1.0, 1.25, 2.0)
BIT_GRID_EPS = (0.0, 1e-8, 0.01, 0.25, 0.5, 0.95, 0.999)


@pytest.fixture(scope="module")
def bit_grid_reference():
    ref = {}
    for wy in BIT_GRID_WY:
        for frac in BIT_GRID_EPS:
            params = SystemParams(1.0, wy, frac * wy)
            mu = diagonalize(params).mu
            for n in range(9):
                for m in range(9):
                    nm = QuantumNumbers(n, m)
                    ref[wy, frac, n, m] = (_reference_purity(params, nm),
                                           _reference_makarov_entropy(nm, mu))
    return ref


def _bit_grid_mismatches(ref):
    bad = []
    for (wy, frac, n, m), want in ref.items():
        params = SystemParams(1.0, wy, frac * wy)
        nm = QuantumNumbers(n, m)
        got = (_outcome(lambda: purity_exact(params, nm).purity),
               _outcome(makarov_entropy, nm, diagonalize(params).mu))
        if got != want:
            bad.append(((wy, frac, n, m), got, want))
    return bad


def test_cached_route_is_bit_identical_to_the_per_call_route(bit_grid_reference):
    from oscpair.purity import _jx_eigh, _plan

    assert _plan.cache_info().maxsize is not None
    assert _jx_eigh.cache_info().maxsize is not None
    assert _bit_grid_mismatches(bit_grid_reference) == []
    # again with every plan and eigendecomposition built cold
    _plan.cache_clear()
    _jx_eigh.cache_clear()
    assert _bit_grid_mismatches(bit_grid_reference) == []


# the verify mixings, both weak-coupling extremes and a strong mixing on either side of 1
MAKAROV_MIXINGS = (1e-8, 1e-4, 0.2, 1.0 / math.sqrt(3.0), 0.9, 1.0, 3.0, 1e4)


def test_makarov_weights_are_bit_identical_to_the_one_state_gemv():
    from oscpair.purity import _linear_entropy, _makarov_spectra, _makarov_weights

    grid_mus = [diagonalize(SystemParams(1.0, wy, frac * wy)).mu
                for wy in BIT_GRID_WY for frac in BIT_GRID_EPS]
    # eps = 0 gives mu = 0 below resonance and mu = inf above it: the decoupled limits
    assert {0.0, math.inf} <= set(grid_mus)
    mus = list(MAKAROV_MIXINGS) + [mu for mu in grid_mus if 0.0 < mu < math.inf]
    for size in range(1, 18):
        # the stacked product over the whole block, and the gemv of one state at one mu
        block = _makarov_weights(size, mus, range(size)).tolist()
        for mu, row in zip(mus, block):
            for n, lam in enumerate(row):
                want = _reference_makarov_weights(QuantumNumbers(n, size - 1 - n), mu)
                assert lam == want, (size, n, mu)
                assert _makarov_weights(size, [mu], [n]).tolist() == [[want]], (size, n, mu)

    states = [QuantumNumbers(n, m) for n in range(9) for m in range(9)]
    for mu in mus + grid_mus:
        table = _makarov_spectra(states, mu)
        assert table == [_reference_makarov_weights(nm, mu) for nm in states], mu
        assert [_linear_entropy(lam) for lam in table] == [makarov_entropy(nm, mu)
                                                          for nm in states], mu
    for mu in (0.0, math.inf):
        assert [_linear_entropy(lam) for lam in _makarov_spectra(states, mu)] == [0.0] * 81


@pytest.fixture
def per_member_calls(monkeypatch):
    """The shapes of the one-member ``_power_nd`` calls made while the test runs.

    ``_purities`` passes its couplings' radicands as one batch, and a batch
    whose members' zero patterns differ recurses once per member through the
    module global, which the counter replaces; so a one-member call is the
    per-member route.
    """
    from oscpair import purity

    calls = []

    def counted(a, alpha):
        if len(a) == 1:
            calls.append(a.shape)
        return _power_nd(a, alpha)

    monkeypatch.setattr(purity, "_power_nd", counted)
    return calls


def test_every_bit_grid_batch_shares_one_plan(per_member_calls, bit_grid_reference):
    mixed = np.zeros((2, 2, 1, 2, 1))
    mixed[:, 0, 0, 0, 0] = 1.0
    mixed[0, 1, 0, 0, 0] = 0.5
    _power_nd(mixed, -0.5)
    assert len(per_member_calls) == 2  # the counter sees the per-member route
    per_member_calls.clear()
    assert _bit_grid_mismatches(bit_grid_reference) == []
    assert per_member_calls == []


def test_subnormal_coupling_takes_the_per_member_route(per_member_calls):
    # a = vx sin^2(theta) is 1e-323 in Q, and a' = sin^2(theta) / vx rounds to 0.0
    # in Q', so the radicands' zero patterns differ and each runs alone
    params = SystemParams(2.0, 1.0, 4.722627690175157e-162)
    states = [QuantumNumbers(n, m) for n in range(4) for m in range(4)]
    table, = _purities([params], states)
    assert per_member_calls == [(1, 4, 4, 4, 4)] * 2
    assert table == [1.0] * len(states)
    single = [purity_exact(params, nm).purity for nm in states]
    assert table == pytest.approx(single, rel=0, abs=1e-14)


def test_table_cells_match_the_one_state_route():
    # a table's jets are built at its largest state's orders, so its cells round
    # differently from purity_exact's in the last bits, and only there
    states = [QuantumNumbers(n, m) for n in range(9) for m in range(9)]
    for wy in BIT_GRID_WY:
        for frac in BIT_GRID_EPS:
            params = SystemParams(1.0, wy, frac * wy)
            table, = _purities([params], states)
            single = [purity_exact(params, nm).purity for nm in states]
            assert table == pytest.approx(single, rel=0, abs=1e-14), (wy, frac)


class TestCouplingBatch:
    """A table of couplings through ``_purities`` equals one call per coupling, bit for bit."""

    # verify's four couplings, the decoupled (1, 0.8, 0), whose radicands drop their a
    # terms, and the subnormal coupling, whose Q keeps a = 1e-323 while Q' drops a'
    COUPLINGS = [SystemParams(1.0, wy, frac * wy) for wy in (0.8, 1.0) for frac in (0.3, 0.9)]
    COUPLINGS += [SystemParams(1.0, 0.8, 0.0), SystemParams(2.0, 1.0, 4.722627690175157e-162)]
    STATES = [QuantumNumbers(n, m) for n, m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))]

    def test_rows_equal_single_coupling_calls(self):
        table = _purities(self.COUPLINGS, self.STATES)
        assert len(table) == len(self.COUPLINGS)
        for params, row in zip(self.COUPLINGS, table):
            assert row == _purities([params], self.STATES)[0], params


def test_plan_cache_of_the_sweep_cells_stays_small(monkeypatch):
    # the gather plans of every purity_exact cell up to (6, 6), at both zero patterns
    # of the radicands (eps = 0 drops their a terms): the per-degree gathers are the
    # largest arrays the cache keeps, and each must be read-only
    from oscpair import purity

    cached = purity._plan
    cached.cache_clear()
    plans = {}

    def recorded(*key):
        plans[key] = cached(*key)
        return plans[key]

    monkeypatch.setattr(purity, "_plan", recorded)
    for eps in (0.0, 0.4):
        params = SystemParams(1.0, 0.8, eps)
        for n in range(7):
            for m in range(7):
                try:
                    purity_exact(params, QuantumNumbers(n, m))
                except RuntimeError:  # roundoff overshoot at eps = 0, after the plan is built
                    pass
    assert None not in plans.values()
    assert len(plans) == cached.cache_info().currsize
    arrays = [array for plan in plans.values() for field in plan
              for array in (field if isinstance(field, tuple) else (field,))
              if isinstance(array, np.ndarray)]
    assert sum(array.nbytes for array in arrays) <= 4_000_000
    assert not any(array.flags.writeable for array in arrays)


@given(seed=st.integers(0, 10_000), batch=st.integers(1, 3),
       orders=st.tuples(*[st.integers(0, 3)] * 4),
       alpha=st.sampled_from([-1.0, 0.5, -0.5]), shared_zeros=st.booleans())
@settings(max_examples=80, deadline=None)
def test_batched_power_is_bit_identical_per_member(seed, batch, orders, alpha, shared_zeros):
    # multilinear members with random zero terms: with shared_zeros the members
    # share one plan, one gather per degree, otherwise they run one at a time
    rng = np.random.default_rng(seed)
    a = np.zeros((batch,) + tuple(o + 1 for o in orders))
    corner = (slice(None),) + tuple(slice(0, min(o + 1, 2)) for o in orders)
    terms = rng.uniform(-1.0, 1.0, size=a[corner].shape)
    zeros = rng.random(terms.shape[1:] if shared_zeros else terms.shape) < 0.4
    a[corner] = np.where(zeros, 0.0, terms)
    a[:, 0, 0, 0, 0] = rng.uniform(0.25, 2.0, size=batch)

    got = _power_nd(a, alpha)
    assert got.shape == a.shape
    for i in range(batch):
        alone = _power_nd(a[i:i + 1], alpha)[0]
        assert got[i].tobytes() == alone.tobytes()


@given(seed=st.integers(0, 10_000), batch=st.integers(1, 2),
       orders=st.tuples(*[st.integers(0, 3)] * 4), axis=st.integers(0, 3),
       alpha=st.sampled_from([-1.0, 0.5, -0.5]), shared_zeros=st.booleans())
@settings(max_examples=150, deadline=None)
def test_power_matches_the_reference_on_dense_jets(seed, batch, orders, axis, alpha,
                                                   shared_zeros):
    # dense jets as the ring ops make them, with a shift of 2 or more on one axis:
    # there the reference pads by more than one, and a gather reads f_{e - mu}
    # outside the jet wherever e - mu leaves it
    orders = tuple(max(o, 2) if i == axis else o for i, o in enumerate(orders))
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(batch,) + tuple(o + 1 for o in orders))
    zeros = rng.random(a.shape[1:] if shared_zeros else a.shape) < 0.3
    a = np.where(zeros, 0.0, a)
    far = tuple(rng.integers(2, orders[axis] + 1) if i == axis else 0 for i in range(4))
    a[(slice(None),) + far] = rng.uniform(0.5, 1.0, size=batch)
    a[:, 0, 0, 0, 0] = rng.uniform(0.25, 2.0, size=batch)

    got = _power_nd(a, alpha)
    assert got.shape == a.shape
    for i in range(batch):
        assert got[i].tobytes() == reference_power_nd(a[i], alpha).tobytes()
