"""High-precision reference values for the marginal purity of ``Psi_(k, k)``.

Run from the repository root to print the table pinned in
``tests/test_purity.py``:

    python tests/purity_reference.py

Everything here is 60-digit mpmath arithmetic and nothing is imported from
``oscpair``: the normal modes are recomputed from ``(wx, wy, eps)`` by
``ladder_reference.normal_modes`` (weights from the discriminant), and
the coefficient ``[u^k s^k v^k w^k] (Q Q')^(-1/2)`` comes from the binomial
series ``Q^(-1/2) = Q_0^(-1/2) sum_j C(-1/2, j) X^j`` with ``X = Q/Q_0 - 1``,
not from the power recurrence the package uses. Before any coefficient is
taken, the script checks the identity ``2/((1-u)(1-s)(1-v)(1-w) R R') =
(Q Q')^(-1/2)`` against the paper's integrand at sample points.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import numpy as np

from ladder_reference import normal_modes

mp.mp.dps = 60

# (wx, wy, eps): weak, moderate and near-bound coupling (bound 0.8), and resonance
PARAMS = ((1.0, 0.8, 0.01), (1.0, 0.8, 0.7), (1.0, 0.8, 0.79), (1.0, 1.0, 0.5))
K_MAX = 8


def paper_integrand(s2, c2, vx, vy, u, s, v, w):
    """``2 / ((1-u)(1-s)(1-v)(1-w) R R')`` as written with ``g(k) = (1+k)/(1-k)``."""
    def g(k):
        return (1 + k) / (1 - k)

    def radical(fx, fy):
        f_us, f_vw = fx * fy * g(u) * g(s), fx * fy * g(v) * g(w)
        o_us, o_vw = g(u) * fx * s2 + g(s) * fy * c2, g(v) * fx * s2 + g(w) * fy * c2
        return mp.sqrt(f_us * o_vw + f_vw * o_us)

    return 2 / ((1 - u) * (1 - s) * (1 - v) * (1 - w) * radical(vx, vy) * radical(1 / vx, 1 / vy))


def q_terms(a, b) -> dict[tuple[int, int, int, int], mp.mpf]:
    """Monomials of ``Q = a (1+u)(1+v)(1-sw) + b (1+s)(1+w)(1-uv)``, axes ``(u, s, v, w)``."""
    terms: dict[tuple[int, int, int, int], mp.mpf] = {}
    for e in itertools.product((0, 1), repeat=4):
        i, j, k, l = e
        coef = 0
        if j == l:
            coef += a * (-1) ** j
        if i == k:
            coef += b * (-1) ** i
        if coef != 0:
            terms[e] = mp.mpf(coef)
    return terms


def q_value(a, b, u, s, v, w):
    return a * (1 + u) * (1 + v) * (1 - s * w) + b * (1 + s) * (1 + w) * (1 - u * v)


def inv_sqrt_jet(a, b, k: int) -> np.ndarray:
    """Coefficients of ``Q^(-1/2)`` up to degree ``k`` in each variable."""
    shape = (k + 1,) * 4
    terms = q_terms(a, b)
    q0 = terms.pop((0, 0, 0, 0))
    x = {e: c / q0 for e, c in terms.items() if all(i <= k for i in e)}

    def zeros():
        out = np.empty(shape, dtype=object)
        out.fill(mp.mpf(0))
        return out

    total, power = zeros(), zeros()
    power[0, 0, 0, 0] = mp.mpf(1)
    for j in range(4 * k + 1):          # X^j starts at total degree j
        total += mp.binomial(-mp.mpf(1) / 2, j) * power
        nxt = zeros()
        for e, c in x.items():
            dst = tuple(slice(i, None) for i in e)
            src = tuple(slice(0, k + 1 - i) for i in e)
            nxt[dst] += c * power[src]
        power = nxt
    return total / mp.sqrt(q0)


def check_identity(s2, c2, vx, vy) -> None:
    a, b, a_m, b_m = vx * s2, vy * c2, s2 / vx, c2 / vy
    for point in ((0.1, -0.2, 0.05, 0.3), (-0.25, 0.15, 0.2, -0.1), (0.3, 0.3, -0.3, 0.1)):
        z = [mp.mpf(t) for t in point]
        lhs = paper_integrand(s2, c2, vx, vy, *z)
        rhs = 1 / mp.sqrt(q_value(a, b, *z) * q_value(a_m, b_m, *z))
        if abs(lhs - rhs) > mp.mpf(10) ** -50 * abs(rhs):
            raise AssertionError(f"identity fails at {point}: {lhs} vs {rhs}")


def purity(wx: float, wy: float, eps: float, k: int) -> mp.mpf:
    s2, c2, _, vx, vy = normal_modes(mp.mpf(wx), mp.mpf(wy), mp.mpf(eps))
    check_identity(s2, c2, vx, vy)
    pos = inv_sqrt_jet(vx * s2, vy * c2, k)
    mom = inv_sqrt_jet(s2 / vx, c2 / vy, k)
    return mp.fsum(pos.ravel() * mom.ravel()[::-1])


def main() -> None:
    print("PURITY_REFERENCE = {")
    for params in PARAMS:
        values = ", ".join(repr(float(purity(*params, k))) for k in range(K_MAX + 1))
        print(f"    {params}: ({values}),")
    print("}")


if __name__ == "__main__":
    main()
