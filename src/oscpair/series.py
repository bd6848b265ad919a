"""Truncated four-variable power series (jets).

A :class:`Jet4` stores the dense coefficient array of a polynomial in
four variables truncated at a fixed maximum degree per variable; entry
``[i, j, k, l]`` is the coefficient of ``u^i s^j v^k w^l``. The ring
operations ``jet_add`` and ``jet_mul`` truncate products back to those
orders, so a jet carries exactly the Taylor data needed to read one
coefficient of an analytic function of the four variables.

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

The recurrence runs on a batch: ``_power_nd`` takes coefficient arrays
stacked along a leading axis and raises each to the same power, so the
two radicands of the purity generating function share one degree loop.
Where it reads and writes depends only on the batch's shape and zero
pattern, not on the coefficient values, so all of its index work is done
once, in a gather plan from a bounded ``functools.lru_cache`` keyed on the
shape, the packed ``a != 0`` mask and ``alpha``; the plan also holds the
factors ``(alpha + 1)|mu| - D``. The recurrence's buffer holds each
member's coefficients degree by degree, with one zero slot at the end, so
each degree's output is one contiguous slice. For every degree the plan
holds the buffer slots of ``f_{e - mu}``, one row per nonzero shift ``mu``,
the zero slot wherever ``e - mu`` leaves the jet; one index set serves
every member. A degree is then one gather, one stacked gemv written into
its slice, and one in-place division, and one gather at the end returns
the dense jets. Keying on the zero pattern keeps vanishing coefficients
(``a = 0`` or ``b = 0`` at zero coupling) out of the sums, so every member
gets exactly the terms, and the bits, it would get alone. A plan serves
members that share one zero pattern; members whose patterns differ run
one at a time.

Jets are immutable values; orders are small in practice (per-variable
degree below ten), so dense storage is the simple and fast choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class _Plan(NamedTuple):
    """Where Miller's recurrence reads and writes, for one batch shape, zero pattern and power.

    A buffer row holds one member's coefficients degree by degree (by total
    degree, C order within a degree), then one zero slot. One set of slots
    serves every member; ``gathers`` and ``dense`` are int32, and every
    array is read-only.
    """

    size: int  # coefficients per member; slot ``size`` is the zero slot
    shifts: np.ndarray  # (K,) flat indices of the nonzero shifts mu in one member's jet
    degrees: np.ndarray  # (D, 1) the total degrees 1 .. D
    factors: np.ndarray  # (D, 1, K) (alpha + 1)|mu| - d: a_mu's weight in degree d, over a_mu
    gathers: tuple[np.ndarray, ...]  # per degree, (K, P_d) slots of f_{e - mu}, zero slot outside
    outputs: tuple[slice, ...]  # per degree, its P_d slots
    dense: np.ndarray  # (size,) slot of each coefficient in C order


@functools.lru_cache(maxsize=256)
def _plan(shape: tuple[int, ...], pattern: bytes, alpha: float) -> _Plan | None:
    """Plan for raising a batch of ``shape`` with packed ``a != 0`` to ``alpha``; ``None``
    if the members' zero patterns differ."""
    batch, jet_shape = shape[0], shape[1:]
    nonzero = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8), count=math.prod(shape))
    nonzero = nonzero.reshape(batch, -1)
    if (nonzero != nonzero[0]).any():
        return None
    nonzero[0, 0] = 0  # the constant term is no shift
    shifts = np.flatnonzero(nonzero[0])
    mus = np.stack(np.unravel_index(shifts, jet_shape), axis=1)

    size = math.prod(jet_shape)
    degree = np.indices(jet_shape).sum(axis=0).ravel()
    order = np.argsort(degree, kind="stable")
    dense = np.empty(size, dtype=np.int32)  # half int64's bytes, and takes as fast
    dense[order] = np.arange(size)
    bounds = np.searchsorted(degree[order], np.arange(1, degree[-1] + 2))

    # the buffer slot of each coefficient, in a grid padded by the largest shift on
    # each axis whose padding holds the zero slot: f_{e - mu} with a negative
    # component reads zero
    pad = mus.max(axis=0, initial=0)
    padded = tuple(np.add(jet_shape, pad).tolist())
    window = tuple(slice(p, None) for p in pad.tolist())
    slot = np.full(padded, size, dtype=np.int32)
    slot[window] = dense.reshape(jet_shape)
    position = np.arange(slot.size).reshape(padded)[window].ravel()[order]
    slots = slot.ravel()[position - np.ravel_multi_index(tuple(mus.T), padded)[:, None]]
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    degrees = np.arange(1, len(bounds))[:, None]
    plan = _Plan(size=size, shifts=shifts, degrees=degrees,
                 factors=((alpha + 1.0) * mus.sum(axis=1) - degrees)[:, None, :],
                 gathers=tuple(slots[:, i:j].copy() for i, j in spans),
                 outputs=tuple(slice(i, j) for i, j in spans), dense=dense)
    for array in (plan.shifts, plan.degrees, plan.factors, plan.dense) + plan.gathers:
        array.flags.writeable = False
    return plan


def _power_nd(a: np.ndarray, alpha: float) -> np.ndarray:
    """Coefficients of ``a[i]**alpha`` truncated to ``a.shape[1:]``, for each ``i``
    (Miller's recurrence).

    ``a`` stacks a batch of coefficient arrays along its leading axis. The
    caller checks that every constant term admits the power.
    """
    plan = _plan(a.shape, np.packbits(a != 0).tobytes(), alpha)
    if plan is None:  # members whose zero patterns differ run one at a time
        return np.concatenate([_power_nd(member[None], alpha) for member in a])
    members = a.reshape(len(a), -1)
    a0 = members[:, 0]
    buf = np.zeros((len(a), 1, plan.size + 1))  # a degree's slots take a (batch, 1, P_d) gemv stack
    flat = buf.reshape(len(a), -1)
    flat[:, 0] = [c ** alpha for c in a0.tolist()]
    # weights[d - 1, i, 0, k] multiplies f_{e - mu_k} in degree d of member i. Each
    # member's weights and gathered block are contiguous, as for a single jet: the layout
    # picks the BLAS kernel, and the kernel sets the bits
    weights = (members.take(plan.shifts, axis=1) * plan.factors)[:, :, None, :]
    divisors = (a0 * plan.degrees)[..., None, None]  # (D, batch, 1, 1): a0 d
    for w, divisor, gather, out in zip(weights, divisors, plan.gathers, plan.outputs):
        # a stack of one gemv per member into the degree's slots; every slot lies in
        # the row, so mode="clip" changes no index and skips the bounds error path
        block = buf[:, :, out]
        np.matmul(w, flat.take(gather, axis=1, mode="clip"), block)
        np.divide(block, divisor, block)
    return flat.take(plan.dense, axis=1).reshape(a.shape)


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
