import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscpair.series import (
    Jet4,
    _power_nd,
    coefficient,
    jet_add,
    jet_inv_sqrt,
    jet_mul,
    jet_reciprocal,
    jet_scale,
    jet_sqrt,
)
from power_reference import reference_power_nd

ORDERS = (2, 1, 1, 2)
SHAPE = tuple(o + 1 for o in ORDERS)


def jet(orders, terms):
    """The jet whose only nonzero coefficients are ``terms``, ``{(i, j, k, l): value}``."""
    coeffs = np.zeros(tuple(o + 1 for o in orders))
    for idx, value in terms.items():
        coeffs[idx] = value
    return Jet4(orders, coeffs)


ONE_PLUS_U = jet((2, 0, 0, 0), {(0, 0, 0, 0): 1.0, (1, 0, 0, 0): 1.0})
U = jet(ORDERS, {(1, 0, 0, 0): 1.0})


def random_jet(seed, orders=ORDERS, constant=None):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=tuple(o + 1 for o in orders))
    if constant is not None:
        coeffs[(0, 0, 0, 0)] = constant
    return Jet4(orders, coeffs)


def geometric(axis, orders=ORDERS):
    """Jet of 1 - k along one axis; its reciprocal is the geometric series."""
    return jet(orders, {(0, 0, 0, 0): 1.0, tuple(int(i == axis) for i in range(4)): -1.0})


def test_square_of_one_plus_u():
    sq = jet_mul(ONE_PLUS_U, ONE_PLUS_U)
    np.testing.assert_allclose(sq.coeffs.ravel(), [1.0, 2.0, 1.0])


def test_scalar_multiplication_and_zero():
    a = random_jet(3)
    assert np.all(jet_scale(a, 0.0).coeffs == 0.0)
    np.testing.assert_allclose(jet_scale(a, -2.0).coeffs, -2.0 * a.coeffs)
    np.testing.assert_allclose(jet_scale(a, 2).coeffs, 2.0 * a.coeffs)


def test_order_mismatch_rejected():
    a = random_jet(0, orders=(1, 1, 1, 1))
    b = random_jet(1, orders=(2, 1, 1, 1))
    with pytest.raises(ValueError):
        jet_mul(a, b)
    with pytest.raises(ValueError):
        jet_add(a, b)


def test_truncation_matches_brute_force_product():
    a, b = random_jet(10), random_jet(11)
    want = np.zeros(SHAPE)
    for idx in np.ndindex(*SHAPE):
        for jdx in np.ndindex(*SHAPE):
            tgt = tuple(i + j for i, j in zip(idx, jdx))
            if all(t <= o for t, o in zip(tgt, ORDERS)):
                want[tgt] += a.coeffs[idx] * b.coeffs[jdx]
    np.testing.assert_allclose(jet_mul(a, b).coeffs, want, atol=1e-13)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_ring_laws_on_random_jets(seed):
    a = random_jet(seed)
    b = random_jet(seed + 1)
    c = random_jet(seed + 2)
    comm = jet_mul(a, b).coeffs - jet_mul(b, a).coeffs
    assert np.max(np.abs(comm)) < 1e-12
    assoc = jet_mul(jet_mul(a, b), c).coeffs - jet_mul(a, jet_mul(b, c)).coeffs
    assert np.max(np.abs(assoc)) < 1e-12
    distr = jet_mul(a, jet_add(b, c)).coeffs - jet_add(jet_mul(a, b), jet_mul(a, c)).coeffs
    assert np.max(np.abs(distr)) < 1e-12


class TestReciprocal:
    def test_geometric_series(self):
        inv = jet_reciprocal(geometric(0))
        for i in range(ORDERS[0] + 1):
            assert coefficient(inv, i, 0, 0, 0) == pytest.approx(1.0)
        assert coefficient(inv, 2, 1, 0, 0) == pytest.approx(0.0)

    def test_product_of_two_geometric_series(self):
        inv = jet_reciprocal(jet_mul(geometric(0), geometric(3)))
        for i in range(ORDERS[0] + 1):
            for l in range(ORDERS[3] + 1):
                assert coefficient(inv, i, 0, 0, l) == pytest.approx(1.0)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            jet_reciprocal(U)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_involution_and_inverse_property(self, seed):
        a = random_jet(seed, constant=1.5)
        inv = jet_reciprocal(a)
        one = jet_mul(a, inv).coeffs.copy()
        one[(0, 0, 0, 0)] -= 1.0
        assert np.max(np.abs(one)) < 1e-12
        back = jet_reciprocal(inv)
        assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-12


class TestSqrt:
    def test_binomial_series_of_one_plus_u(self):
        root = jet_sqrt(ONE_PLUS_U)
        np.testing.assert_allclose(root.coeffs.ravel(), [1.0, 0.5, -0.125], atol=1e-14)

    def test_constant_jet(self):
        root = jet_sqrt(jet(ORDERS, {(0, 0, 0, 0): 4.0}))
        assert coefficient(root, 0, 0, 0, 0) == pytest.approx(2.0)
        assert np.max(np.abs(root.coeffs)) == pytest.approx(2.0)

    def test_non_positive_constant_rejected(self):
        with pytest.raises(ValueError):
            jet_sqrt(jet(ORDERS, {(0, 0, 0, 0): -1.0}))
        with pytest.raises(ValueError):
            jet_sqrt(U)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_square_recovers_input(self, seed):
        a = random_jet(seed, constant=2.0)
        root = jet_sqrt(a)
        assert np.max(np.abs(jet_mul(root, root).coeffs - a.coeffs)) < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_inverse_square_root(self, seed):
        a = random_jet(seed, constant=2.0)
        y = jet_inv_sqrt(a)
        prod = jet_mul(a, jet_mul(y, y)).coeffs.copy()
        prod[(0, 0, 0, 0)] -= 1.0
        assert np.max(np.abs(prod)) < 1e-12


class TestCoefficient:
    def test_reads_stored_value(self):
        a = random_jet(5)
        assert coefficient(a, 1, 0, 1, 2) == a.coeffs[1, 0, 1, 2]
        c = jet(ORDERS, {(0, 0, 0, 0): 3.25})
        assert coefficient(c, 0, 0, 0, 0) == 3.25

    def test_out_of_range_index(self):
        a = random_jet(5)
        with pytest.raises(IndexError):
            coefficient(a, 3, 0, 0, 0)
        with pytest.raises(IndexError):
            coefficient(a, 0, 0, 0, -1)


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
