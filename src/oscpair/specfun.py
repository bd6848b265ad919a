"""Orthogonal polynomials: Hermite, Laguerre, and Jacobi with integer parameters.

Hermite and Laguerre values come from the usual three-term recurrences,
which are stable at the moderate degrees used here; both accept scalars
or numpy arrays. Jacobi polynomials are evaluated from the explicit
binomial sum so that negative integer parameters are well defined (the
classical recurrences and most library routines break down there). The
generalized binomial coefficients are computed exactly over the integers.
"""

from __future__ import annotations

import math

import numpy as np

#: Degree cap bounding factorial growth in normalizations and binomials.
DEGREE_CAP = 64


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"polynomial degree must be non-negative, got {n}")
    if n > DEGREE_CAP:
        raise ValueError(f"polynomial degree {n} exceeds the cap {DEGREE_CAP}")


def hermite(n: int, x):
    """Physicists' Hermite polynomial ``H_n(x)``.

    Recurrence ``H_{k+1} = 2x H_k - 2k H_{k-1}`` with ``H_0 = 1``.
    """
    _check_degree(n)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def hermite_functions(top: int, x) -> np.ndarray:
    """Orthonormal Hermite functions ``H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi))``, ``n = 0..top``.

    Row ``n`` of the result holds degree ``n`` over the shape of ``x``. Evaluated
    by the normalized recurrence, which keeps values O(1) even where the bare
    polynomial overflows against the Gaussian tail.
    """
    _check_degree(top)
    x = np.asarray(x, dtype=float)
    f = np.empty((top + 1,) + x.shape)
    f[0] = np.exp(-0.5 * x * x) * math.pi ** -0.25
    if top:
        f[1] = math.sqrt(2.0) * x * f[0]
    for k in range(1, top):
        f[k + 1] = math.sqrt(2.0 / (k + 1)) * x * f[k] - math.sqrt(k / (k + 1.0)) * f[k - 1]
    return f


def hermite_function(n: int, x):
    """Orthonormal Hermite function of degree ``n``: the last row of ``hermite_functions``."""
    f = hermite_functions(n, x)[n]
    return f if f.ndim else float(f)


def laguerre(n: int, x):
    """Laguerre polynomial ``L_n(x)``.

    Recurrence ``(k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}`` with ``L_0 = 1``.
    """
    _check_degree(n)
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = np.subtract(1.0, x, out=np.empty_like(x))
    # three buffers take turns; each step is the recurrence's arithmetic in its order
    new = np.empty_like(x)
    for k in range(1, n):
        np.subtract(2.0 * k + 1.0, x, out=new)
        new *= l_cur
        l_prev *= k
        new -= l_prev
        new /= k + 1.0
        l_prev, l_cur, new = l_cur, new, l_prev
    return l_cur if l_cur.ndim else float(l_cur)


def binomial_general(a: int, j: int) -> float:
    """Generalized binomial coefficient ``C(a, j)`` for integer ``a`` of any sign.

    Exact: for ``a >= 0`` it is the ordinary binomial (zero when ``j > a``),
    and for ``a < 0`` the reflection ``C(a, j) = (-1)^j C(j - a - 1, j)``.
    """
    if j < 0:
        return 0.0
    if a >= 0:
        return float(math.comb(a, j)) if j <= a else 0.0
    return float((-1) ** j * math.comb(j - a - 1, j))


def jacobi_negparam(n: int, alpha: int, beta: int, z: float) -> float:
    """Jacobi polynomial ``P_n^{(alpha, beta)}(z)`` for integer parameters.

    Uses the explicit sum

        ``sum_s C(n+alpha, n-s) C(n+beta, s) ((z-1)/2)^s ((z+1)/2)^{n-s}``

    which remains the correct analytic continuation when ``alpha`` or
    ``beta`` is a negative integer.
    """
    _check_degree(n)
    zm = 0.5 * (z - 1.0)
    zp = 0.5 * (z + 1.0)
    total = 0.0
    for s in range(n + 1):
        c1 = binomial_general(n + alpha, n - s)
        if c1 == 0.0:
            continue
        c2 = binomial_general(n + beta, s)
        if c2 == 0.0:
            continue
        total += c1 * c2 * zm**s * zp ** (n - s)
    return total
