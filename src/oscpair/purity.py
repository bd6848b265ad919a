"""Exact marginal purity, linear entropy, and the approximate Schmidt weights.

The marginal purity of either oscillator in the pure state
``Psi_(n, m)`` is obtained exactly, at any coupling, as one Taylor
coefficient of a four-variable generating function. Writing each
Laguerre polynomial of the Wigner function through its generating
identity ``L_n(x) = (1/n!) d^n/du^n [exp(-x u/(1-u))/(1-u)]`` at ``u = 0``
turns the purity integral into Gaussian integrals that evaluate in closed
form, leaving

    ``P(n, m) = [u^n s^m v^n w^m]  2 / ((1-u)(1-s)(1-v)(1-w) * R * R')``

where ``R = sqrt(f(u,s) O(v,w) + f(v,w) O(u,s))`` with

    ``f(u, s) = vx vy g(u) g(s)``,
    ``O(u, s) = g(u) vx sin^2(theta) + g(s) vy cos^2(theta)``,
    ``g(k) = (1+k)/(1-k)``,

and ``R'`` is the same radical with both frequencies inverted (it comes
from the momentum half of the integral). The derivative prefactor
``1/(n! m!)^2`` cancels against the factorials of the coefficient
extraction, so no numerical differentiation is involved anywhere.

Every term of the radicand carries three of the four factors
``1/(1-k)``. With ``a = vx sin^2(theta)``, ``b = vy cos^2(theta)`` and
``Pi = (1-u)(1-s)(1-v)(1-w)``, the ``a`` terms of ``Pi R^2 / (vx vy)`` are

    ``a (1+u)(1+v) [(1+s)(1-w) + (1-s)(1+w)] = 2a (1+u)(1+v)(1-sw)``

and the ``b`` terms are ``2b (1+s)(1+w)(1-uv)`` in the same way, so

    ``R^2 = 2 vx vy Q / Pi``,
    ``Q = a (1+u)(1+v)(1-sw) + b (1+s)(1+w)(1-uv)``,

and ``R'^2 = 2 Q' / (vx vy Pi)`` with ``Q'`` the same polynomial at
``(a', b') = (sin^2(theta)/vx, cos^2(theta)/vy)``. The prefactors cancel
and the generating function is

    ``P(n, m) = [u^n s^m v^n w^m]  Q^(-1/2) Q'^(-1/2)``.

``Q`` and ``Q'`` are multilinear (degree at most one in each variable), so
the jets of their inverse square roots come from the power recurrence
below with a handful of terms per coefficient, and each coefficient of
the product is a reversed dot product of their sub-blocks. At
``u = s = v = w = 0`` the product is ``1/sqrt((a + b)(a' + b'))``, the
ground-state closed form, which the test suite asserts at ``1e-12``. At zero
coupling off resonance (``theta = 0``) ``Q Q' = ((1+s)(1+w)(1-uv))^2``,
whose coefficient is exactly 1, and ``theta = pi/2`` swaps the roles.

The power ``a**alpha`` of a jet comes from J. C. P. Miller's recurrence
(Knuth, TAOCP vol. 2, section 4.7). Applying the Euler operator
``D = sum_i x_i d/dx_i`` to ``f = a**alpha`` gives ``a D f = alpha f D a``;
on the coefficient of a monomial ``x^e`` of total degree ``D > 0`` this
reads

    ``a_0 D f_e = sum_{mu != 0} a_mu ((alpha + 1)|mu| - D) f_{e - mu}``,

which fixes every coefficient of degree ``D`` from those of lower degree.
The sum runs over the nonzero coefficients of ``a`` only, so a sparse
``a`` (a few terms, as ``Q`` and ``Q'`` have) costs a few multiply-adds
per coefficient, and each total degree is one vectorised gather.
Truncation is exact: ``f_e`` uses only ``f_{e'}`` with ``e' <= e`` in
every variable, so the jets at a table's largest ``(n, m)`` hold every
cell of the table (``_purities``; ``purity_exact`` is a table of one).

The recurrence runs on a batch: ``_power_nd`` takes coefficient arrays
stacked along a leading axis and raises each to the same power, so ``Q``
and ``Q'`` share one degree loop. Where it reads and writes depends only
on the batch's shape and zero pattern, not on the coefficient values, so
all of its index work is done once, in a gather plan from a bounded
``functools.lru_cache`` keyed on the shape, the packed ``a != 0`` mask and
``alpha``; the plan also holds the factors ``(alpha + 1)|mu| - D``. The
recurrence's buffer holds each member's coefficients degree by degree,
with one zero slot at the end, so each degree's output is one contiguous
slice. For every degree the plan holds the buffer slots of ``f_{e - mu}``,
one row per nonzero shift ``mu``, the zero slot wherever ``e - mu`` leaves
the jet; one index set serves every member. Each call forms every
degree's weights ``a_mu ((alpha + 1)|mu| - D) / (a_0 D)`` in one
vectorised expression, so a degree is one gather and one stacked gemv
written into its slice, and one gather at the end returns the dense jets.
Keying on the zero pattern keeps vanishing coefficients (``a = 0`` or
``b = 0`` at zero coupling) out of the sums, so every member gets exactly
the terms, and the bits, it would get alone. A plan serves members that
share one zero pattern; members whose patterns differ run one at a time.

The weak-coupling Schmidt weights ``lambda_k`` (an approximation that
treats both normal frequencies as equal) are also provided; their linear
entropy depends on the mixing parameter only, not on the coupling
strength, which is exactly where the approximation parts ways with the
exact result. They are squared Wigner d-matrix elements, computed by
exact diagonalisation of ``J_x`` (see :func:`makarov_schmidt`): one state's
weights are the squared moduli of one column of ``V diag(exp(-i beta
lambda)) V^T``, with ``V`` the cached eigenvectors of its block of total
photon number ``n + m``. ``_makarov_spectra`` is the one entry point, and
``makarov_schmidt``, ``makarov_entropy`` and ``purity-scan`` are tables over
it: it checks ``mu``, takes the decoupled limits, makes one
``_makarov_weights`` product per block and checks each state's sum.
``_makarov_weights`` takes one state at one ``mu`` as a plain gemv and a
larger block (``verify``'s: every starting ``n`` at four ``mu``) as one
stacked product, which runs the same gemv per column, so both give a weight
the same bits (a gemm over the block would round differently).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import model
from .model import QuantumNumbers, SystemParams


@dataclass(frozen=True)
class PurityResult:
    """Marginal purity in (0, 1] and linear entropy ``S_L = 1 - purity``."""

    purity: float
    linear_entropy: float


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared Schmidt coefficients ``lambda_0 .. lambda_{n+m}`` (sum to 1)."""

    lambdas: tuple[float, ...]


class _Plan(NamedTuple):
    """Where Miller's recurrence reads and writes, for one batch shape, zero pattern and power.

    A buffer row holds one member's coefficients degree by degree (by total
    degree, C order within a degree), then one zero slot. One set of slots
    serves every member; ``gathers`` and ``dense`` are int32, and every
    array is read-only.
    """

    size: int  # coefficients per member; slot ``size`` is the zero slot
    shifts: np.ndarray  # (K,) flat indices of the nonzero shifts mu in one member's jet
    degrees: np.ndarray  # (D, 1, 1) the total degrees 1 .. D
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
    # int32 for memory: intp plans cost 2.5 MB more peak RSS on a sweep. ``take`` copies a
    # read-only index array on every call whatever its dtype, so intp would save little: an
    # (11, 200) gather reads 7.8 us int32, 6.1 us intp, 5.5 us intp writeable (numpy 2.4)
    dense = np.empty(size, dtype=np.int32)
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
    degrees = np.arange(1, len(bounds))[:, None, None]
    plan = _Plan(size=size, shifts=shifts, degrees=degrees,
                 factors=(alpha + 1.0) * mus.sum(axis=1) - degrees,
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
    # weights[d - 1, i, 0, k] multiplies f_{e - mu_k} in degree d of member i: every
    # degree's a_mu ((alpha + 1)|mu| - d) / (a0 d), rounded as ((a_mu / a0) factor) / d,
    # the order that measured most accurate (at eps = 0 off resonance a_mu / a0 is 1 or
    # -1 exactly). Each member's weights and gathered block are contiguous, as for a
    # single jet: the layout picks the BLAS kernel, and the kernel sets the bits
    weights = (members.take(plan.shifts, axis=1) / a0[:, None] * plan.factors
               / plan.degrees)[:, :, None, :]
    for w, gather, out in zip(weights, plan.gathers, plan.outputs):
        # a stack of one gemv per member into the degree's slots; every slot lies in
        # the row, so mode="clip" changes no index and skips the bounds error path
        np.matmul(w, flat.take(gather, axis=1, mode="clip"), buf[:, :, out])
    return flat.take(plan.dense, axis=1).reshape(a.shape)


@functools.lru_cache(maxsize=64)
def _radicand_slots(batch: int, orders: tuple[int, int, int, int]
                    ) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """The shape of ``batch`` jets truncated at ``orders``, which of ``Q``'s 16
    terms (exponents in ``{0, 1}^4``, C order) they keep, and those terms' flat
    slots in every member, member by member."""
    shape = tuple(o + 1 for o in orders)
    size = math.prod(shape)
    terms = [(i, e) for i, e in enumerate(itertools.product((0, 1), repeat=4))
             if all(k <= o for k, o in zip(e, orders))]
    slots = [int(np.ravel_multi_index(e, shape)) for _, e in terms]
    flat = np.array([member * size + slot for member in range(batch) for slot in slots])
    flat.flags.writeable = False
    return (batch,) + shape, tuple(i for i, _ in terms), flat


def _radicands(ab: list[tuple[float, float]], orders: tuple[int, int, int, int]) -> np.ndarray:
    """Jet coefficients of ``Q = a (1+u)(1+v)(1-sw) + b (1+s)(1+w)(1-uv)``, axes
    ``(u, s, v, w)``, for each ``(a, b)`` in ``ab``, stacked on a leading axis."""
    shape, kept, flat = _radicand_slots(len(ab), orders)
    q = [(a + b, b, a, 0, b, b - a, 0, -a, a, 0, a - b, -b, 0, -a, -b, -a - b) for a, b in ab]
    coeffs = np.zeros(shape)
    coeffs.put(flat, [terms[i] for terms in q for i in kept])
    return coeffs


def _purities(couplings: list[SystemParams], states: list[QuantumNumbers]) -> list[list[float]]:
    """Exact marginal purity of ``Psi_(n, m)`` for each ``(n, m)`` in ``states``, one row
    per coupling; every coupling's radicands go through one ``_power_nd`` call.

    Raises ``RuntimeError``, naming the coupling and the state, if a coefficient
    falls outside ``(0, 1 + 1e-9]``, which would signal a cancellation failure
    rather than a physical value; roundoff-level overshoot above 1 is clamped.
    """
    ab = []  # (a, b) of Q and of Q', coupling by coupling
    for m in map(model.diagonalize, couplings):
        ab += [(m.vartheta_x * m.s2, m.vartheta_y * m.c2),
               (m.s2 / m.vartheta_x, m.c2 / m.vartheta_y)]
    orders = (max(nm.n for nm in states), max(nm.m for nm in states)) * 2  # (n, m, n, m)

    # a + b > 0 for every radicand, so the inverse square roots exist
    jets = _power_nd(_radicands(ab, orders), -0.5)
    rows = [[] for _ in couplings]
    for params, row, pos, mom in zip(couplings, rows, jets[::2], jets[1::2]):
        for nm in states:
            # [u^n s^m v^n w^m] of the product: sum over e <= (n,m,n,m) of pos[e] mom[(n,m,n,m) - e]
            block = (slice(nm.n + 1), slice(nm.m + 1)) * 2
            p = float(np.dot(pos[block].ravel(), mom[block].ravel()[::-1]))
            if not (0.0 < p <= 1.0 + 1e-9):
                raise RuntimeError(f"extracted purity coefficient {p} outside (0, 1]; "
                                   f"params={params}, state=({nm.n}, {nm.m})")
            row.append(min(p, 1.0))
    return rows


def purity_exact(params: SystemParams, nm: QuantumNumbers) -> PurityResult:
    """Exact marginal purity of ``Psi_(n, m)``: ``_purities`` of the one coupling and state."""
    p = _purities([params], [nm])[0][0]
    return PurityResult(purity=p, linear_entropy=1.0 - p)


def purity_ground_closed(params: SystemParams) -> PurityResult:
    """Ground-state marginal purity in closed form.

    ``P(0,0) = (1 + 4z)^{-1/2}`` with ``4z = mu^2 (vx - vy)^2 / ((1+mu^2)^2 vx vy)``,
    evaluated through ``sc^2 = sin^2 cos^2`` so the expression stays finite for
    every admissible parameter set. The linear entropy is
    ``S_L = 4z / (sqrt(1+4z) (1 + sqrt(1+4z)))``, which keeps its relative
    accuracy at weak coupling where ``1 - P`` loses every digit.
    """
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    four_z = modes.sc ** 2 * (vx - vy) ** 2 / (vx * vy)
    root = math.sqrt(1.0 + four_z)
    return PurityResult(purity=1.0 / root, linear_entropy=four_z / (root * (1.0 + root)))


@functools.lru_cache(maxsize=64)
def _jx_eigh(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of ``J_x`` for spin ``j = (size - 1)/2``, both real but
    cast to complex once (an exact cast) for the complex products that use them."""
    # <k| J_x |k-1> = sqrt(k (n+m+1-k)) / 2 in the basis |k> = |j, k-j>
    k = np.arange(1, size)
    off = 0.5 * np.sqrt(k * (size - k))
    evals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    evals, vecs = evals.astype(complex), vecs.astype(complex)
    evals.flags.writeable = vecs.flags.writeable = False
    return evals, vecs


def _makarov_weights(size: int, mus: Sequence[float], starts: Sequence[int]) -> np.ndarray:
    """Makarov's weights of the states ``(n, size - 1 - n)``, ``n`` in ``starts``, at each
    finite positive ``mu`` in ``mus``: ``[i, j]`` holds ``lambda_0 .. lambda_{size-1}`` of
    ``starts[j]`` at ``mus[i]``.

    One state at one ``mu`` takes the plain gemv; any larger block takes one stacked
    product, which runs the same gemv per column, so both give every weight the same bits.
    """
    evals, vecs = _jx_eigh(size)
    if len(mus) == len(starts) == 1:
        column = vecs @ (np.exp(-2j * math.atan(mus[0]) * evals) * vecs[starts[0]])
        return (column.real**2 + column.imag**2)[None, None]
    phases = np.exp(np.array([-2j * math.atan(mu) for mu in mus])[:, None] * evals)
    columns = np.matmul(vecs, (phases[:, None, :] * vecs[list(starts)])[..., None])[..., 0]
    return columns.real**2 + columns.imag**2


def _makarov_spectra(states: Sequence[QuantumNumbers], mu: float) -> list[list[float]]:
    """Makarov's weights ``lambda_0 .. lambda_{n+m}`` of each of ``states`` at ``mu``: one
    ``_makarov_weights`` product per total ``n + m``, and the decoupled limits analytic.

    ``ValueError`` if ``mu`` is negative or NaN; ``RuntimeError``, naming the first state
    in the order of ``states``, unless each state's weights sum to 1 within 1e-8.
    """
    if not mu >= 0:  # also rejects NaN
        raise ValueError(f"mixing parameter must be non-negative, got {mu}")
    if mu == 0.0 or math.isinf(mu):
        return [[float(k == (nm.n if mu == 0.0 else nm.m)) for k in range(nm.n + nm.m + 1)]
                for nm in states]
    starts: dict[int, list[int]] = {}
    for nm in states:
        starts.setdefault(nm.n + nm.m, []).append(nm.n)
    weights = {}
    for total, ns in starts.items():
        for n, lam in zip(ns, _makarov_weights(total + 1, [mu], ns)[0].tolist()):
            weights[n, total - n] = lam
    spectra = []
    for nm in states:
        lam = weights[nm.n, nm.m]
        total = math.fsum(lam)
        if not abs(total - 1.0) <= 1e-8:
            raise RuntimeError(f"Schmidt weights sum to {total}, not 1, "
                               f"for state ({nm.n}, {nm.m}) at mu={mu}")
        spectra.append(lam)
    return spectra


def _linear_entropy(lam: list[float]) -> float:
    """``1 - sum(lambda_k^2)`` of unit-sum weights, summed as ``2 sum_k lambda_k sum_(j<k)
    lambda_j``, with no negative term, so it keeps its relative accuracy at weak coupling."""
    return 2.0 * math.fsum(map(operator.mul, lam[1:], itertools.accumulate(lam)))


def makarov_schmidt(nm: QuantumNumbers, mu: float) -> SchmidtSpectrum:
    """Weak-coupling Schmidt weights ``lambda_k(n, m)`` for mixing ``mu``.

    Makarov's weights (Phys. Rev. E 97, 042203 (2018)),
    ``lambda_k = mu^{2(k+n)} m! n! / ((1+mu^2)^{m+n} k! (m+n-k)!)
    * P_n^{(-(1+m+n), m-k)}(-(2+mu^2)/mu^2)^2``, are the squared Wigner
    d-matrix elements ``|d^j_{k-j, n-j}(beta)|^2`` with ``j = (n+m)/2`` and
    ``beta = 2 arctan(mu)``. They are evaluated as ``|<k| exp(-i beta J_x)
    |n>|^2`` from the eigenvectors of the real tridiagonal ``J_x`` (exact
    diagonalisation, Feng et al., Phys. Rev. E 92, 043307 (2015)), which
    stays accurate at every ``mu``; the explicit Jacobi sum cancels
    catastrophically at weak coupling. The decoupled limits are taken
    analytically: ``mu = 0`` gives a unit weight at ``k = n`` and
    ``mu = inf`` (swapped decoupling) at ``k = m``. A ``_makarov_spectra`` table of one.
    """
    return SchmidtSpectrum(lambdas=tuple(_makarov_spectra([nm], mu)[0]))


def makarov_entropy(nm: QuantumNumbers, mu: float) -> float:
    """Linear entropy ``1 - sum(lambda_k^2)`` of the approximate weights (``_linear_entropy``
    of ``_makarov_spectra`` of the one state)."""
    return _linear_entropy(_makarov_spectra([nm], mu)[0])


def entropy_gap(params: SystemParams, nm: QuantumNumbers) -> float:
    """Exact minus approximate linear entropy at the system's mixing angle."""
    modes = model.diagonalize(params)
    exact = purity_exact(params, nm).linear_entropy
    return exact - makarov_entropy(nm, modes.mu)
