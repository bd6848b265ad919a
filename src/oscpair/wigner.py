"""Stationary eigenfunctions and Wigner functions of the coupled pair.

In normal-mode coordinates the Wigner function separates into two
single-mode factors

    ``W_n(X, P) = ((-1)^n / pi) exp(-(vx X^2 + P^2/vx)) L_n(2 (vx X^2 + P^2/vx))``

and likewise for the second mode with ``(Y, Q, vy)``. Lab-frame values
are obtained by rotating the phase-space point and evaluating the
separable form, so the two paths agree identically by construction; the
explicit lab-frame formula is kept as a cross-check identity in the test
suite. All evaluators broadcast over numpy arrays. The Hermite and Laguerre
recurrences behind them, and the degree cap ``DEGREE_CAP``, live here too.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import NormalModes, QuantumNumbers

#: Degree cap bounding factorial growth in normalizations and binomials.
DEGREE_CAP = 64


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"polynomial degree must be non-negative, got {n}")
    if n > DEGREE_CAP:
        raise ValueError(f"polynomial degree {n} exceeds the cap {DEGREE_CAP}")


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


class PhasePoint(NamedTuple):
    """Lab-frame phase-space point (positions x, y; momenta p, q)."""

    x: float
    p: float
    y: float
    q: float


class RotatedPhasePoint(NamedTuple):
    """Normal-mode phase-space point."""

    X: float
    P: float
    Y: float
    Q: float


def lab_to_normal(modes: NormalModes, pt: PhasePoint) -> RotatedPhasePoint:
    """Rotate lab coordinates into the normal-mode frame.

    Positions and momenta rotate by the same angle, so the map is
    symplectic (unit Jacobian).
    """
    c, s = modes.c, modes.s
    return RotatedPhasePoint(
        X=c * pt.x + s * pt.y,
        P=c * pt.p + s * pt.q,
        Y=-s * pt.x + c * pt.y,
        Q=-s * pt.p + c * pt.q,
    )


def normal_to_lab(modes: NormalModes, pt: RotatedPhasePoint) -> PhasePoint:
    c, s = modes.c, modes.s
    return PhasePoint(
        x=c * pt.X - s * pt.Y,
        p=c * pt.P - s * pt.Q,
        y=s * pt.X + c * pt.Y,
        q=s * pt.P + c * pt.Q,
    )


def eigenfunctions(modes: NormalModes, states: list[QuantumNumbers], X, Y) -> np.ndarray:
    """Normalized stationary wavefunctions of ``states`` in normal-mode coordinates, stacked.

    Each is a product of two harmonic-oscillator eigenfunctions with frequencies
    ``vartheta_x`` and ``vartheta_y``; each mode's Hermite recurrence runs once, up
    to the largest quantum number of that mode among ``states``.
    """
    vx, vy = modes.vartheta_x, modes.vartheta_y
    top_n, top_m = max(q.n for q in states), max(q.m for q in states)
    fx = vx**0.25 * hermite_functions(top_n, np.sqrt(vx) * np.asarray(X, dtype=float))
    fy = vy**0.25 * hermite_functions(top_m, np.sqrt(vy) * np.asarray(Y, dtype=float))
    return np.stack([fx[q.n] * fy[q.m] for q in states])


def eigenfunction(modes: NormalModes, nm: QuantumNumbers, X, Y):
    """``eigenfunctions`` of one state; at the origin the ground state is ``(vx*vy/pi^2)**0.25``."""
    out = eigenfunctions(modes, [nm], X, Y)[0]
    return out if np.ndim(out) else float(out)


def wigner_mode(n: int, vartheta: float, X, P):
    """Single-mode Wigner factor; normalized to 1 over its phase plane.

    It is exactly 0 wherever ``exp(-arg)`` underflows, even where ``arg`` overflows.
    """
    with np.errstate(over="ignore"):  # an infinite arg is clamped below
        out = np.asarray(vartheta * np.asarray(X, dtype=float) ** 2
                         + np.asarray(P, dtype=float) ** 2 / vartheta)
    # one full-grid buffer holds the clamped arg, 2 arg, then -arg (scaling by 2 and 1/2
    # is exact), then W; exp(-746) is 0 and L_n(2 * 746) finite up to the degree cap
    np.minimum(out, 746.0, out=out)
    out *= 2.0
    lag = laguerre(n, out)
    out *= 0.5
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= (-1.0) ** n / np.pi
    out *= lag
    return out if out.ndim else float(out)


def wigner_rotated(modes: NormalModes, nm: QuantumNumbers, pt: RotatedPhasePoint):
    """Joint Wigner function in normal-mode coordinates (separable form)."""
    return wigner_mode(nm.n, modes.vartheta_x, pt.X, pt.P) * wigner_mode(
        nm.m, modes.vartheta_y, pt.Y, pt.Q
    )


def wigner_lab(modes: NormalModes, nm: QuantumNumbers, pt: PhasePoint):
    """Joint Wigner function at a lab-frame point.

    Implemented by rotating the point and delegating to the separable
    normal-mode form: a single source of truth for both frames.
    """
    return wigner_rotated(modes, nm, lab_to_normal(modes, pt))
