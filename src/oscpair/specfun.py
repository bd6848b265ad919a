"""Reference polynomials: Hermite, and Jacobi with integer parameters.

``hermite`` is the bare three-term recurrence, ``hermite_function`` one row
of :func:`oscpair.wigner.hermite_functions`. Jacobi polynomials are
evaluated from the explicit binomial sum so that negative integer
parameters are well defined (the classical recurrences and most library
routines break down there); the generalized binomial coefficients are
computed exactly over the integers. Only the tests and the benchmark
import this module.
"""

from __future__ import annotations

import math

import numpy as np

# perfbench/spans.py wraps oscpair.specfun.laguerre: the name stays bound here
from .wigner import _check_degree, hermite_functions, laguerre


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


def hermite_function(n: int, x):
    """Orthonormal Hermite function of degree ``n``: the last row of ``hermite_functions``."""
    f = hermite_functions(n, x)[n]
    return f if f.ndim else float(f)


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
