"""Truncated four-variable power series (jets).

A :class:`Jet4` stores the dense coefficient array of a polynomial in
four variables truncated at a fixed maximum degree per variable; entry
``[i, j, k, l]`` is the coefficient of ``u^i s^j v^k w^l``. The ring
operations ``jet_add`` and ``jet_mul`` truncate products back to those
orders, so a jet carries exactly the Taylor data needed to read one
coefficient of an analytic function of the four variables.

Reciprocal, square root and inverse square root call Miller's recurrence,
:func:`oscpair.purity._power_nd`. Only the tests and the benchmark import this module.

Jets are immutable values; orders are small in practice (per-variable
degree below ten), so dense storage is the simple and fast choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .purity import _power_nd

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


def jet_mul(a: Jet4, b: Jet4) -> Jet4:
    """Truncated product of two jets of matching orders."""
    _check_orders(a, b)
    return Jet4(a.orders, _mul_nd(a.coeffs, b.coeffs))


def jet_reciprocal(a: Jet4) -> Jet4:
    """Jet ``b`` with ``a*b = 1`` up to truncation."""
    if float(a.coeffs[(0, 0, 0, 0)]) == 0.0:
        raise ValueError("reciprocal requires a nonzero constant term")
    return Jet4(a.orders, _power_nd(a.coeffs[None], -1.0)[0])


def _check_positive(a: Jet4) -> None:
    c0 = float(a.coeffs[(0, 0, 0, 0)])
    if c0 <= 0.0:
        raise ValueError(f"square root requires a positive constant term, got {c0}")


def jet_sqrt(a: Jet4) -> Jet4:
    """Jet ``b`` with ``b*b = a`` up to truncation."""
    _check_positive(a)
    return Jet4(a.orders, _power_nd(a.coeffs[None], 0.5)[0])


def jet_inv_sqrt(a: Jet4) -> Jet4:
    """Jet ``b`` with ``a * b * b = 1`` up to truncation."""
    _check_positive(a)
    return Jet4(a.orders, _power_nd(a.coeffs[None], -0.5)[0])


def coefficient(a: Jet4, i: int, j: int, k: int, l: int) -> float:
    """Stored coefficient of ``u^i s^j v^k w^l``."""
    idx = (i, j, k, l)
    for axis, (q, o) in enumerate(zip(idx, a.orders)):
        if not (0 <= q <= o):
            raise IndexError(f"index {q} out of range for axis {axis} with order {o}")
    return float(a.coeffs[idx])
