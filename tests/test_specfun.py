import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscpair.specfun import binomial_general, hermite, hermite_function, jacobi_negparam
from oscpair.wigner import DEGREE_CAP, hermite_functions, laguerre


def jacobi_recurrence(n, alpha, beta, z):
    """Classical three-term recurrence; valid for alpha, beta > -1.

    Independent oracle for the explicit-sum evaluation.
    """
    if n == 0:
        return 1.0
    p_prev = 1.0
    p = 0.5 * (alpha - beta) + (1.0 + 0.5 * (alpha + beta)) * z
    for k in range(1, n):
        a = 2 * (k + 1) * (k + alpha + beta + 1) * (2 * k + alpha + beta)
        b = (2 * k + alpha + beta + 1) * (alpha**2 - beta**2)
        c = (2 * k + alpha + beta) * (2 * k + alpha + beta + 1) * (2 * k + alpha + beta + 2)
        d = 2 * (k + alpha) * (k + beta) * (2 * k + alpha + beta + 2)
        p, p_prev = ((b + c * z) * p - d * p_prev) / a, p
    return p


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 0.37) == 1.0
        assert hermite(1, 0.5) == pytest.approx(1.0)
        assert hermite(3, 1.0) == pytest.approx(-4.0)  # 8x^3 - 12x at x=1

    @pytest.mark.parametrize("n, poly", [
        (2, lambda x: 4 * x**2 - 2),
        (4, lambda x: 16 * x**4 - 48 * x**2 + 12),
        (5, lambda x: 32 * x**5 - 160 * x**3 + 120 * x),
    ])
    def test_matches_monomial_expansion(self, n, poly):
        x = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(hermite(n, x), poly(x), rtol=1e-12)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            hermite(DEGREE_CAP + 1, 0.0)
        with pytest.raises(ValueError):
            hermite(-1, 0.0)


class TestHermiteFunction:
    def test_ground_state(self):
        assert hermite_function(0, 0.0) == pytest.approx(math.pi**-0.25)

    @given(n=st.integers(0, 8), x=st.floats(-4.0, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_bare_polynomial(self, n, x):
        expected = (
            hermite(n, x)
            * math.exp(-0.5 * x * x)
            / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        )
        assert hermite_function(n, x) == pytest.approx(expected, rel=1e-11, abs=1e-13)

    def test_bounded_where_polynomial_overflows_the_gaussian(self):
        assert abs(hermite_function(60, 10.5)) < 1.0

    def test_bits_of_the_two_buffer_recurrence(self):
        # the table's last row is the value the recurrence gave before it kept every row
        def two_buffers(n, x):
            x = np.asarray(x, dtype=float)
            f_prev = np.exp(-0.5 * x * x) * math.pi ** -0.25
            if n == 0:
                return f_prev if f_prev.ndim else float(f_prev)
            f = math.sqrt(2.0) * x * f_prev
            for k in range(1, n):
                f, f_prev = math.sqrt(2.0 / (k + 1)) * x * f - math.sqrt(k / (k + 1.0)) * f_prev, f
            return f if f.ndim else float(f)

        x = np.concatenate([np.linspace(-12.0, 12.0, 241), [-0.0, 5e-324, 1e-300, 37.5, -40.0]])
        for n in range(DEGREE_CAP + 1):
            assert hermite_function(n, x).tobytes() == two_buffers(n, x).tobytes(), n
            assert hermite_function(n, x[:, None]).tobytes() == two_buffers(n, x[:, None]).tobytes()
            for v in (0.0, -0.7, 3.25):
                got = hermite_function(n, v)
                assert type(got) is float and got == two_buffers(n, v), (n, v)
            np.testing.assert_array_equal(hermite_functions(n, x)[n], hermite_function(n, x))
        assert hermite_functions(3, np.zeros((2, 5))).shape == (4, 2, 5)


class TestLaguerre:
    def test_at_zero_always_one(self):
        for n in range(12):
            assert laguerre(n, 0.0) == pytest.approx(1.0)

    def test_low_orders(self):
        assert laguerre(1, 2.0) == pytest.approx(-1.0)
        assert laguerre(2, 2.0) == pytest.approx(-1.0)  # (x^2 - 4x + 2)/2 at x=2

    @pytest.mark.parametrize("n, poly", [
        (3, lambda x: (-x**3 + 9 * x**2 - 18 * x + 6) / 6),
        (4, lambda x: (x**4 - 16 * x**3 + 72 * x**2 - 96 * x + 24) / 24),
    ])
    def test_matches_monomial_expansion(self, n, poly):
        x = np.linspace(0, 8, 33)
        np.testing.assert_allclose(laguerre(n, x), poly(x), rtol=1e-12, atol=1e-12)


class TestBinomial:
    def test_ordinary_cases(self):
        assert binomial_general(5, 2) == 10.0
        assert binomial_general(5, 6) == 0.0
        assert binomial_general(3, 0) == 1.0

    def test_negative_upper_index(self):
        # C(-1, j) = (-1)^j, C(-2, j) = (-1)^j (j+1)
        for j in range(6):
            assert binomial_general(-1, j) == (-1.0) ** j
            assert binomial_general(-2, j) == (-1.0) ** j * (j + 1)

    def test_negative_j_is_zero(self):
        assert binomial_general(4, -1) == 0.0

    @given(a=st.integers(0, 20), j=st.integers(0, 20))
    def test_agrees_with_product_formula(self, a, j):
        prod = 1.0
        for i in range(j):
            prod *= (a - i) / (i + 1)
        assert binomial_general(a, j) == pytest.approx(prod, rel=1e-12, abs=1e-12)


class TestJacobi:
    def test_degree_zero_is_one(self):
        for alpha, beta, z in [(-4, 2, 0.3), (0, 0, -7.0), (-1, -1, 5.0)]:
            assert jacobi_negparam(0, alpha, beta, z) == 1.0

    def test_constant_negative_parameter_case(self):
        # P_1^{(-2,0)} = (alpha-beta)/2 + (1+(alpha+beta)/2) z = -1, z-independent
        for z in (-10.0, -1.0, 0.0, 3.5):
            assert jacobi_negparam(1, -2, 0, z) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("mu2", [0.1, 1.0 / 3.0, 0.9])
    def test_schmidt_weight_building_block(self, mu2):
        z = -(2.0 + mu2) / mu2
        assert jacobi_negparam(1, -2, -1, z) == pytest.approx(1.0 / mu2, rel=1e-13)

    def test_legendre_special_case(self):
        z = np.linspace(-1, 1, 9)
        for zi in z:
            assert jacobi_negparam(2, 0, 0, float(zi)) == pytest.approx(
                (3 * zi**2 - 1) / 2, abs=1e-13
            )

    @given(
        n=st.integers(0, 8),
        alpha=st.integers(0, 4),
        beta=st.integers(0, 4),
        z=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_recurrence_for_classical_parameters(self, n, alpha, beta, z):
        want = jacobi_recurrence(n, alpha, beta, z)
        assert jacobi_negparam(n, alpha, beta, z) == pytest.approx(want, rel=1e-12, abs=1e-12)
