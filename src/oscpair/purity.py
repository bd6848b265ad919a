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
the jets of their inverse square roots come from the power recurrence of
:mod:`oscpair.series` with a handful of terms per coefficient, and the one
coefficient of the product is a single reversed dot product. At ``u = s =
v = w = 0`` the product is ``1/sqrt((a + b)(a' + b'))``, the ground-state
closed form, which the test suite asserts at ``1e-12``. At zero coupling
off resonance (``theta = 0``) ``Q Q' = ((1+s)(1+w)(1-uv))^2``, whose
coefficient is exactly 1, and ``theta = pi/2`` swaps the roles.

The weak-coupling Schmidt weights ``lambda_k`` (an approximation that
treats both normal frequencies as equal) are also provided; their linear
entropy depends on the mixing parameter only, not on the coupling
strength, which is exactly where the approximation parts ways with the
exact result. They are squared Wigner d-matrix elements, computed by
exact diagonalisation of ``J_x`` (see :func:`makarov_schmidt`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import model
from .model import QuantumNumbers, SystemParams
from .series import _power_nd


@dataclass(frozen=True)
class PurityResult:
    """Marginal purity in (0, 1] and linear entropy ``S_L = 1 - purity``."""

    purity: float
    linear_entropy: float


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared Schmidt coefficients ``lambda_0 .. lambda_{n+m}`` (sum to 1)."""

    lambdas: tuple[float, ...]


# Q is linear in (a, b): the rows are the jets of (1+u)(1+v)(1-sw) and
# (1+s)(1+w)(1-uv) on axes (u, s, v, w), flattened. Their entries are 0 or
# +-1, so each coefficient of Q is a signed sum of a and b rounded once,
# whatever order a BLAS product sums in
_Q_TERMS = np.zeros((2, 2, 2, 2, 2))
_Q_TERMS[0, :, 0, :, 0] = 1.0
_Q_TERMS[0, :, 1, :, 1] = -1.0
_Q_TERMS[1, 0, :, 0, :] = 1.0
_Q_TERMS[1, 1, :, 1, :] = -1.0
_Q_TERMS = _Q_TERMS.reshape(2, 16)
_Q_TERMS.flags.writeable = False


def _radicands(ab: list[tuple[float, float]], orders: tuple[int, int, int, int]) -> np.ndarray:
    """Jet coefficients of ``Q = a (1+u)(1+v)(1-sw) + b (1+s)(1+w)(1-uv)``, axes
    ``(u, s, v, w)``, for each ``(a, b)`` in ``ab``, stacked on a leading axis."""
    q = (np.array(ab) @ _Q_TERMS).reshape(-1, 2, 2, 2, 2)
    coeffs = np.zeros((len(ab),) + tuple(o + 1 for o in orders))
    kept = (slice(None),) + tuple(slice(0, min(o + 1, 2)) for o in orders)
    coeffs[kept] = q[kept]
    return coeffs


def purity_exact(params: SystemParams, nm: QuantumNumbers) -> PurityResult:
    """Exact marginal purity of ``Psi_(n, m)`` via coefficient extraction.

    Raises ``RuntimeError`` if the extracted coefficient falls outside
    ``(0, 1 + 1e-9]``, which would signal a cancellation failure rather
    than a physical value; roundoff-level overshoot above 1 is clamped.
    """
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s, c = math.sin(modes.theta), math.cos(modes.theta)
    s2, c2 = s * s, c * c
    orders = (nm.n, nm.m, nm.n, nm.m)

    # a + b > 0 for both radicands, so the inverse square roots exist
    pos, mom = _power_nd(_radicands([(vx * s2, vy * c2), (s2 / vx, c2 / vy)], orders), -0.5)
    # [u^n s^m v^n w^m] of the product: sum over e of pos[e] mom[(n,m,n,m) - e]
    p = float(np.dot(pos.ravel(), mom.ravel()[::-1]))

    if not (0.0 < p <= 1.0 + 1e-9):
        raise RuntimeError(
            f"extracted purity coefficient {p} outside (0, 1]; "
            f"params={params}, state=({nm.n}, {nm.m})"
        )
    p = min(p, 1.0)
    return PurityResult(purity=p, linear_entropy=1.0 - p)


def purity_ground_closed(params: SystemParams) -> PurityResult:
    """Ground-state marginal purity in closed form.

    ``P(0,0) = (1 + 4z)^{-1/2}`` with ``4z = mu^2 (vx - vy)^2 / ((1+mu^2)^2 vx vy)``,
    evaluated through ``sin^2 cos^2`` so the expression stays finite for
    every admissible parameter set. The linear entropy is
    ``S_L = 4z / (sqrt(1+4z) (1 + sqrt(1+4z)))``, which keeps its relative
    accuracy at weak coupling where ``1 - P`` loses every digit.
    """
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s, c = math.sin(modes.theta), math.cos(modes.theta)
    s2c2 = (s * c) ** 2
    four_z = s2c2 * (vx - vy) ** 2 / (vx * vy)
    root = math.sqrt(1.0 + four_z)
    return PurityResult(purity=1.0 / root, linear_entropy=four_z / (root * (1.0 + root)))


@functools.lru_cache(maxsize=64)
def _jx_eigh(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of ``J_x`` for spin ``j = (size - 1)/2``."""
    # <k| J_x |k-1> = sqrt(k (n+m+1-k)) / 2 in the basis |k> = |j, k-j>
    k = np.arange(1, size)
    off = 0.5 * np.sqrt(k * (size - k))
    evals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    evals.flags.writeable = vecs.flags.writeable = False
    return evals, vecs


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
    ``mu = inf`` (swapped decoupling) at ``k = m``.
    """
    if not mu >= 0:  # also rejects NaN
        raise ValueError(f"mixing parameter must be non-negative, got {mu}")
    n, m = nm.n, nm.m
    size = n + m + 1
    if mu == 0.0 or math.isinf(mu):
        lam = [0.0] * size
        lam[n if mu == 0.0 else m] = 1.0
        return SchmidtSpectrum(lambdas=tuple(lam))

    evals, vecs = _jx_eigh(size)
    column = vecs @ (np.exp(-2j * math.atan(mu) * evals) * vecs[n])
    lam = (column.real**2 + column.imag**2).tolist()

    total = math.fsum(lam)
    if not abs(total - 1.0) <= 1e-8:
        raise RuntimeError(
            f"Schmidt weights sum to {total}, not 1, for state ({n}, {m}) at mu={mu}"
        )
    return SchmidtSpectrum(lambdas=tuple(lam))


def makarov_entropy(nm: QuantumNumbers, mu: float) -> float:
    """Linear entropy ``1 - sum(lambda_k^2)`` of the approximate weights.

    Summed as ``2 sum_k lambda_k sum_(j<k) lambda_j``, with no negative term,
    so it keeps its relative accuracy at weak coupling.
    """
    lam = makarov_schmidt(nm, mu).lambdas
    return 2.0 * math.fsum(map(operator.mul, lam[1:], itertools.accumulate(lam)))


def entropy_gap(params: SystemParams, nm: QuantumNumbers) -> float:
    """Exact minus approximate linear entropy at the system's mixing angle."""
    modes = model.diagonalize(params)
    exact = purity_exact(params, nm).linear_entropy
    return exact - makarov_entropy(nm, modes.mu)
