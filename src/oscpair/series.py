"""Truncated four-variable power series (jets).

A :class:`Jet4` stores the dense coefficient array of a polynomial in
four variables truncated at a fixed maximum degree per variable; entry
``[i, j, k, l]`` is the coefficient of ``u^i s^j v^k w^l``. Ring
operations truncate products back to those orders, so a jet carries
exactly the Taylor data needed to read one coefficient of an analytic
function of the four variables.

Reciprocal, square root and inverse square root are one routine for the
power ``a**alpha``: J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2,
section 4.7). Applying the Euler operator ``D = sum_i x_i d/dx_i`` to
``f = a**alpha`` gives ``a D f = alpha f D a``; on the coefficient of a
monomial ``x^e`` of total degree ``D > 0`` this reads

    ``a_0 D f_e = sum_{mu != 0} a_mu ((alpha + 1)|mu| - D) f_{e - mu}``,

which fixes every coefficient of degree ``D`` from those of lower degree.
The sum runs over the nonzero coefficients of ``a`` only, so a sparse
``a`` (a few terms, as the purity generating function has) costs a few
multiply-adds per coefficient, and each total degree is one vectorised
gather. Truncation is exact: ``f_e`` uses only ``f_{e'}`` with ``e' <= e``
in every variable.

Jets are immutable values; orders are small in practice (per-variable
degree below ten), so dense storage is the simple and fast choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

Orders = tuple[int, int, int, int]


@dataclass(frozen=True)
class Jet4:
    """Dense truncated power series in four variables."""

    orders: Orders
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if len(self.orders) != 4 or any(o < 0 for o in self.orders):
            raise ValueError(f"orders must be four non-negative integers, got {self.orders}")
        expected = tuple(o + 1 for o in self.orders)
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match orders {self.orders}"
            )

    @staticmethod
    def constant(value: float, orders: Orders) -> "Jet4":
        coeffs = np.zeros(tuple(o + 1 for o in orders))
        coeffs[(0, 0, 0, 0)] = value
        return Jet4(orders, coeffs)

    @staticmethod
    def variable(axis: int, orders: Orders) -> "Jet4":
        """The jet of the bare variable along ``axis`` (0..3)."""
        if orders[axis] < 1:
            raise ValueError(f"axis {axis} has order {orders[axis]} < 1")
        coeffs = np.zeros(tuple(o + 1 for o in orders))
        idx = [0, 0, 0, 0]
        idx[axis] = 1
        coeffs[tuple(idx)] = 1.0
        return Jet4(orders, coeffs)

    def __add__(self, other):
        if isinstance(other, Real):
            c = self.coeffs.copy()
            c[(0, 0, 0, 0)] += other
            return Jet4(self.orders, c)
        return jet_add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return Jet4(self.orders, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return jet_mul(self, other)

    __rmul__ = __mul__


def _check_orders(a: Jet4, b: Jet4) -> None:
    if a.orders != b.orders:
        raise ValueError(f"order mismatch: {a.orders} vs {b.orders}")


def jet_add(a: Jet4, b: Jet4) -> Jet4:
    _check_orders(a, b)
    return Jet4(a.orders, a.coeffs + b.coeffs)


def jet_scale(a: Jet4, c: float) -> Jet4:
    return Jet4(a.orders, a.coeffs * float(c))


def _mul_nd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated convolution of two coefficient arrays of equal shape.

    Each nonzero coefficient of ``a`` adds a shifted copy of ``b``.
    """
    out = np.zeros(a.shape)
    for idx in zip(*np.nonzero(a)):
        out[tuple(slice(i, None) for i in idx)] += \
            a[idx] * b[tuple(slice(0, n - i) for i, n in zip(idx, a.shape))]
    return out


def _power_nd(a: np.ndarray, alpha: float) -> np.ndarray:
    """Coefficients of ``a**alpha`` truncated to ``a.shape`` (Miller's recurrence).

    The caller checks that the constant term admits the power.
    """
    shape = a.shape
    a0 = float(a.flat[0])
    mus = np.argwhere(a)
    mus = mus[mus.sum(axis=1) > 0]
    a_mu = a[tuple(mus.T)]
    mu_degree = mus.sum(axis=1)

    # f lives in a zero-padded buffer, offset by the largest shift on each
    # axis, so f_{e - mu} with a negative component gathers a zero
    pad = mus.max(axis=0, initial=0)
    buf = np.zeros(np.add(shape, pad))
    strides = np.array(buf.strides) // buf.itemsize
    flat = buf.reshape(-1)
    mu_offset = mus @ strides

    exponents = np.indices(shape).reshape(a.ndim, -1)
    degree = exponents.sum(axis=0)
    position = (exponents + pad[:, None]).T @ strides

    flat[position[0]] = a0 ** alpha
    for d in range(1, degree.max() + 1):
        pos = position[degree == d]
        weights = a_mu * ((alpha + 1.0) * mu_degree - d)
        flat[pos] = weights @ flat[pos - mu_offset[:, None]] / (a0 * d)
    return buf[tuple(slice(p, None) for p in pad)].copy()


def jet_mul(a: Jet4, b) -> Jet4:
    """Truncated product; ``b`` may be a jet of matching orders or a scalar."""
    if isinstance(b, Real):
        return jet_scale(a, b)
    _check_orders(a, b)
    return Jet4(a.orders, _mul_nd(a.coeffs, b.coeffs))


def jet_reciprocal(a: Jet4) -> Jet4:
    """Jet ``b`` with ``a*b = 1`` up to truncation."""
    if float(a.coeffs[(0, 0, 0, 0)]) == 0.0:
        raise ValueError("reciprocal requires a nonzero constant term")
    return Jet4(a.orders, _power_nd(a.coeffs, -1.0))


def _check_positive(a: Jet4) -> None:
    c0 = float(a.coeffs[(0, 0, 0, 0)])
    if c0 <= 0.0:
        raise ValueError(f"square root requires a positive constant term, got {c0}")


def jet_sqrt(a: Jet4) -> Jet4:
    """Jet ``b`` with ``b*b = a`` up to truncation."""
    _check_positive(a)
    return Jet4(a.orders, _power_nd(a.coeffs, 0.5))


def jet_inv_sqrt(a: Jet4) -> Jet4:
    """Jet ``b`` with ``a * b * b = 1`` up to truncation."""
    _check_positive(a)
    return Jet4(a.orders, _power_nd(a.coeffs, -0.5))


def coefficient(a: Jet4, i: int, j: int, k: int, l: int) -> float:
    """Stored coefficient of ``u^i s^j v^k w^l``."""
    idx = (i, j, k, l)
    for axis, (q, o) in enumerate(zip(idx, a.orders)):
        if not (0 <= q <= o):
            raise IndexError(f"index {q} out of range for axis {axis} with order {o}")
    return float(a.coeffs[idx])
