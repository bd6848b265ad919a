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
pattern, not on the coefficient values, so that gather plan (the nonzero
shifts ``mu``, their degrees, the padded buffer and the positions of
each total degree) comes from a bounded ``functools.lru_cache`` keyed on
the shape and the packed ``a != 0`` mask. Keying on the zero pattern
keeps vanishing coefficients (``a = 0`` or ``b = 0`` at zero coupling) out
of the sums, so every member gets exactly the terms, and the bits, it
would get alone. A plan serves members that share one zero pattern: one
gather and one stacked gemv per degree. Members whose patterns differ
run one at a time.

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
    """Where Miller's recurrence reads and writes, for one batch shape and zero pattern."""

    buffer: tuple[int, ...]  # (batch, *jet shape padded by the largest shift on each axis)
    window: tuple[slice, ...]  # the unpadded jets inside the buffer
    index: np.ndarray  # (batch, K) flat indices of each member's shifted terms in the batch
    mu_degree: np.ndarray  # (K,) total degree |mu| of each shift
    mu_offset: np.ndarray  # (K, 1) flat distance of each shift in one member's buffer
    by_degree: tuple[np.ndarray, ...]  # (batch, 1, P_d) flat buffer positions of degree d


@functools.lru_cache(maxsize=256)
def _plan(shape: tuple[int, ...], pattern: bytes) -> _Plan | None:
    """Gather plan for a batch of ``shape`` and packed ``a != 0``; ``None`` if members differ."""
    batch, jet_shape = shape[0], shape[1:]
    nonzero = np.unpackbits(np.frombuffer(pattern, dtype=np.uint8), count=math.prod(shape))
    nonzero = nonzero.reshape(batch, -1)
    if (nonzero != nonzero[0]).any():
        return None
    nonzero[0, 0] = 0  # the constant term is no shift
    shifts = np.flatnonzero(nonzero[0])
    mus = np.stack(np.unravel_index(shifts, jet_shape), axis=1)

    # f lives in a zero-padded buffer, offset by the largest shift on each
    # axis, so f_{e - mu} with a negative component gathers a zero
    pad = mus.max(axis=0, initial=0)
    padded = tuple(int(n) for n in np.add(jet_shape, pad))
    strides = np.cumprod((1,) + padded[:0:-1])[::-1]

    exponents = np.indices(jet_shape).reshape(len(jet_shape), -1)
    degree = exponents.sum(axis=0)
    order = np.argsort(degree, kind="stable")
    positions = (exponents[:, order] + pad[:, None]).T @ strides
    bounds = np.searchsorted(degree[order], np.arange(degree.max() + 2))

    rows = np.arange(batch)
    base = positions + (rows * math.prod(padded))[:, None, None]
    plan = _Plan(buffer=(batch,) + padded,
                 window=(slice(None),) + tuple(slice(int(p), None) for p in pad),
                 index=shifts + (rows * math.prod(jet_shape))[:, None],
                 mu_degree=mus.sum(axis=1), mu_offset=(mus @ strides)[:, None],
                 by_degree=tuple(base[..., i:j].copy() for i, j in zip(bounds[:-1], bounds[1:])))
    for array in (plan.index, plan.mu_degree, plan.mu_offset) + plan.by_degree:
        array.flags.writeable = False
    return plan


def _power_nd(a: np.ndarray, alpha: float) -> np.ndarray:
    """Coefficients of ``a[i]**alpha`` truncated to ``a.shape[1:]``, for each ``i``
    (Miller's recurrence).

    ``a`` stacks a batch of coefficient arrays along its leading axis. The
    caller checks that every constant term admits the power.
    """
    plan = _plan(a.shape, np.packbits(a != 0).tobytes())
    if plan is None:  # members whose zero patterns differ run one at a time
        return np.concatenate([_power_nd(member[None], alpha) for member in a])
    a0 = a.reshape(len(a), -1)[:, 0]
    buf = np.zeros(plan.buffer)
    flat = buf.reshape(-1)
    flat[plan.by_degree[0].ravel()] = [float(c) ** alpha for c in a0]
    # weights[i, d - 1, k] multiplies f_{e - mu_k} in degree d of member i. Weights and
    # gathered blocks are C-contiguous, fancy-indexed from the flat arrays with per-member
    # offsets: the layout picks the BLAS kernel, and the kernel sets the bits
    degrees = np.arange(1, len(plan.by_degree))[:, None]
    weights = a.reshape(-1)[plan.index][:, None, :] * ((alpha + 1.0) * plan.mu_degree - degrees)
    c = a0[:, None, None].copy()  # contiguous: c * d runs once per degree, slower on a view
    for d, pos in enumerate(plan.by_degree[1:], 1):
        # a stack of one gemv per member, each as for a single jet
        g = weights[:, d - 1:d] @ flat[pos - plan.mu_offset]
        g /= c * d
        flat[pos] = g
    return buf[plan.window].copy()


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
