"""Independent brute-force verification of every closed form in the package.

Two oracles, deliberately built on different machinery than the code they
check:

* Gauss-Hermite quadrature of Wigner-space integrals, carried out in
  normal-mode coordinates where every integrand is a polynomial times the
  Gaussian weight, so a sufficient-order rule is exact up to roundoff.
  Lab-frame monomials are evaluated through the rotation on the rotated
  tensor grid, never sampled on lab grids, which removes convergence
  questions from the comparisons.
* The singular values of the exact Fock amplitudes of ``Psi_(n, m)`` in
  lab-local bases (Bloch-Messiah, Braunstein, Phys. Rev. A 71, 055801
  (2005)): the Schmidt coefficients, with their truncation residual.

``run_verification`` sweeps a built-in parameter grid through all checks
and returns a machine-readable report; the CLI ``verify`` command wraps
it. Both oracles above run once per coupling of the grid, batched over its
six states (``_schmidt``: one Fock support and one stacked SVD;
``_moment_sets``: one quadrature rule).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import model, moments, purity, wigner
from .model import NormalModes, QuantumNumbers, SystemParams
from .moments import LadderMoments
from .specfun import laguerre
from .steering import steering as compute_steering
from .steering import steering_weak_general
from .wigner import PhasePoint, RotatedPhasePoint


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for the weight ``exp(-t^2)``.

    A rule with ``order`` nodes integrates polynomials of degree up to
    ``2*order - 1`` against the Gaussian weight exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    if order < 1:
        raise ValueError(f"rule order must be positive, got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


# exponents (a, b, c, d) of <x^a p^b y^c q^d>: the ten table moments, <xq> and <py>
_MOMENT_EXPONENTS = {
    "xx": (2, 0, 0, 0), "yy": (0, 0, 2, 0), "pp": (0, 2, 0, 0), "qq": (0, 0, 0, 2),
    "xy": (1, 0, 1, 0), "pq": (0, 1, 0, 1),
    "xxyy": (2, 0, 2, 0), "ppqq": (0, 2, 0, 2), "xxqq": (2, 0, 0, 2), "yypp": (0, 2, 2, 0),
    "xq": (1, 0, 0, 1), "py": (0, 1, 1, 0),
}


def _quadrature_moments(params: SystemParams, states: list[QuantumNumbers],
                        exponents: list[tuple[int, int, int, int]]) -> np.ndarray:
    """``<x^a p^b y^c q^d>`` by exact quadrature: row ``s`` for ``states[s]``, column per exponent.

    The Wigner integral is taken in scaled normal-mode coordinates where
    the Gaussian weight is ``exp(-t^2)`` on each axis; the monomial and
    Laguerre factors are polynomials, so one rule whose order is chosen
    from the largest total degree and the largest state is analytically
    sufficient for every monomial of every state.
    """
    if any(min(e) < 0 or sum(e) > 8 for e in exponents):
        raise ValueError(f"monomial exponents must be non-negative with total <= 8, got {exponents}")

    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    needed = (max(map(sum, exponents)) + 2 * max(max(q.n, q.m) for q in states)) // 2 + 2
    rule = gauss_hermite(needed)
    t, w = rule.nodes, rule.weights

    big_x = t / math.sqrt(vx)      # axis i
    big_p = t * math.sqrt(vx)      # axis j
    big_y = t / math.sqrt(vy)      # axis k
    big_q = t * math.sqrt(vy)      # axis l

    # x and y on axes (i, k), p and q on axes (j, l)
    lab = wigner.normal_to_lab(modes, RotatedPhasePoint(big_x[:, None], big_p[:, None],
                                                        big_y[None, :], big_q[None, :]))

    t2 = t * t
    r2 = 2.0 * (t2[:, None] + t2[None, :])
    ww = w[:, None] * w[None, :]
    lag = {k: ww * laguerre(k, r2) for k in sorted({q.n for q in states} | {q.m for q in states})}
    a_ij = np.stack([lag[q.n] for q in states])[:, None]
    b_kl = np.stack([lag[q.m] for q in states])[:, None]

    # sum_ijkl a_ij b_kl c_ik d_jl = sum_ij a_ij (c b d^T)_ij, c = x^a y^c, d = p^b q^d,
    # for every exponent of every state in one batched product; row e of ``exps`` holds (a, b, c, d)
    exps = np.array(exponents)
    powers = [z ** np.arange(top + 1)[:, None, None]
              for z, top in zip(lab, exps.max(axis=0))]
    cs = powers[0][exps[:, 0]] * powers[2][exps[:, 2]]
    ds = powers[1][exps[:, 1]] * powers[3][exps[:, 3]]
    scale = np.array([(-1.0) ** (q.n + q.m) for q in states]) / math.pi**2
    return scale[:, None] * np.sum(a_ij * (cs @ b_kl @ ds.transpose(0, 2, 1)), axis=(2, 3))


def moment_oracle(params: SystemParams, nm: QuantumNumbers,
                  exponents: tuple[int, int, int, int]) -> float:
    """Expectation value ``<x^a p^b y^c q^d>`` by exact quadrature."""
    return float(_quadrature_moments(params, [nm], [exponents])[0, 0])


def _moment_sets(params: SystemParams, states: list[QuantumNumbers]) -> list[dict[str, float]]:
    """``moment_set_oracle`` for each state, all on one rule sized for the largest."""
    table = _quadrature_moments(params, states, list(_MOMENT_EXPONENTS.values()))
    return [dict(zip(_MOMENT_EXPONENTS, row)) for row in table.tolist()]


def moment_set_oracle(params: SystemParams, nm: QuantumNumbers) -> dict[str, float]:
    """All ten table moments plus the parity-odd ``<xq>`` and ``<py>``, on one rule."""
    return _moment_sets(params, [nm])[0]


def _ladder(params: SystemParams, ms: dict[str, float]) -> LadderMoments:
    wx, wy = params.omega_x, params.omega_y
    nx = 0.5 * (wx * ms["xx"] + ms["pp"] / wx) - 0.5
    ny = 0.5 * (wy * ms["yy"] + ms["qq"] / wy) - 0.5
    ab = 0.25 * (wx * wy * ms["xxyy"] + (wx / wy) * ms["xxqq"]
                 + (wy / wx) * ms["yypp"] + ms["ppqq"] / (wx * wy))
    nxny = ab - 0.5 * (nx + ny) - 0.25
    root = math.sqrt(wx * wy)
    cross = 0.5 * root * ms["xy"] + 0.5 * ms["pq"] / root
    return LadderMoments(nx=nx, ny=ny, nxny=nxny, cross_mag_sq=cross * cross)


def ladder_oracle(params: SystemParams, nm: QuantumNumbers) -> LadderMoments:
    """Ladder-operator correlators rebuilt from quadrature moments only."""
    return _ladder(params, moment_set_oracle(params, nm))


def global_purity_check(params: SystemParams, nm: QuantumNumbers) -> float:
    """``4 pi^2`` times the phase-space integral of ``W^2``; must be 1.

    The squared Laguerre factors double the polynomial degree, so the rule
    order is ``2*max(n, m) + 4``. ``wigner.wigner_rotated`` is looked up at
    call time, so a rebound evaluator is the one integrated.
    """
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    rule = gauss_hermite(2 * max(nm.n, nm.m) + 4)
    v, w = rule.nodes, rule.weights

    pt = RotatedPhasePoint(
        X=(v / math.sqrt(2.0 * vx))[:, None, None, None],
        P=(v * math.sqrt(0.5 * vx))[None, :, None, None],
        Y=(v / math.sqrt(2.0 * vy))[None, None, :, None],
        Q=(v * math.sqrt(0.5 * vy))[None, None, None, :],
    )
    w_vals = wigner.wigner_rotated(modes, nm, pt)
    rw = w * np.exp(v * v)
    # each product contracts the last remaining axis: l, k, j, then i
    return math.pi**2 * float((w_vals * w_vals) @ rw @ rw @ rw @ rw)


@dataclass(frozen=True)
class SchmidtOracleResult:
    """Schmidt data of a state's Fock amplitudes; ``norm_deficit`` is their truncation residual."""

    singular_values: np.ndarray  # rescaled so that the Schmidt weights, their squares, sum to 1
    purity: float
    linear_entropy: float
    von_neumann: float
    norm_deficit: float


# ground-state supports tried; at 1024 each state's amplitude matrix stays below 10 MB
_SUPPORTS = tuple(16 << k for k in range(7))


def _ladder_step(amp: np.ndarray, up: list[float], dn: list[float], k: int,
                 root: np.ndarray) -> np.ndarray:
    """``(up_x a_x^dag + dn_x a_x + up_y a_y^dag + dn_y a_y) C / sqrt(k)``; rows of ``C`` are x.

    The ``1/sqrt(k)`` rides in the scalar coefficients, so it costs no pass over ``C``.
    """
    scale = math.sqrt(k)
    new = np.zeros_like(amp)
    new[1:] += up[0] / scale * root[:, None] * amp[:-1]
    new[:-1] += dn[0] / scale * root[:, None] * amp[1:]
    new[:, 1:] += up[1] / scale * root * amp[:, :-1]
    new[:, :-1] += dn[1] / scale * root * amp[:, 1:]
    return new


def _fock_stack(modes: NormalModes,
                states: list[QuantumNumbers]) -> tuple[np.ndarray, list[float]]:
    """Every state's ``C_jk = <j_x k_y | Psi_(n, m)>``, stacked on one support, and its deficit.

    From the ground state ``C0`` (README, Numerical conventions), ``Psi_(n, 0) = b_x^dag
    Psi_(n-1, 0) / sqrt(n)`` and ``Psi_(n, m) = b_y^dag Psi_(n, m-1) / sqrt(m)``: each state is
    one ladder step from a state already built, and only the requested states are kept. The
    buffer is ``max(n + m)`` wider than ``C0``'s support, which grows until every deficit is
    ``| ||C||_F^2 - 1 | < 1e-14``.
    """
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s, c, s2, c2, sc = modes.s, modes.c, modes.s2, modes.c2, modes.sc
    om_x = math.sqrt((vx * c2 + vy * s2) / (c2 / vx + s2 / vy))  # sqrt(<p^2>/<x^2>)
    om_y = math.sqrt((vx * s2 + vy * c2) / (s2 / vx + c2 / vy))  # sqrt(<q^2>/<y^2>)
    z = (sc * (vx - vy)) ** 2 / (4.0 * vx * vy)  # nbar (nbar+1) = <x^2><p^2> - 1/4
    nbar = 2.0 * z / (1.0 + math.sqrt(1.0 + 4.0 * z))
    ratio = math.copysign(math.sqrt(nbar / (nbar + 1.0)), sc * (vy - vx))  # sign of <xy>
    rot = np.array([[c, s], [-s, c]])  # [i, j], i = X, Y and j = x, y: X = c x + s y, ...
    r = np.sqrt(np.outer([vx, vy], [1.0 / om_x, 1.0 / om_y]))  # sqrt(vartheta_i / Omega_j)
    up, dn = 0.5 * rot * (r + 1.0 / r), 0.5 * rot * (r - 1.0 / r)  # a_j^dag, a_j in b_i^dag
    up, dn = up.tolist(), dn.tolist()
    width = max(q.n + q.m for q in states)
    for support in _SUPPORTS:
        root = np.sqrt(np.arange(1, support + width))  # sqrt(k) for k >= 1 in the buffer
        c0 = np.zeros((root.size + 1, root.size + 1))
        c0[range(support), range(support)] = ratio ** np.arange(support) / math.sqrt(1.0 + nbar)
        psi = {}
        col, n_col, amp, m_amp = c0, 0, c0, 0  # Psi_(n_col, 0) and Psi_(n_col, m_amp)
        for n, m in sorted({(q.n, q.m) for q in states}):
            if n > n_col:
                for k in range(n_col + 1, n + 1):
                    col = _ladder_step(col, up[0], dn[0], k, root)
                n_col, amp, m_amp = n, col, 0
            for k in range(m_amp + 1, m + 1):
                amp = _ladder_step(amp, up[1], dn[1], k, root)
            psi[n, m], m_amp = amp, m
        amps = np.stack([psi[q.n, q.m] for q in states])
        deficits = np.abs(np.sum(amps * amps, axis=(1, 2)) - 1.0).tolist()
        if max(deficits) < 1e-14:
            return amps, deficits
    q, deficit = next((q, d) for q, d in zip(states, deficits) if not d < 1e-14)
    raise RuntimeError(f"({q.n}, {q.m}) unresolved at support {support}: deficit {deficit:.3e}")


def _schmidt(params: SystemParams, states: list[QuantumNumbers]) -> list[SchmidtOracleResult]:
    """``schmidt_oracle`` for each state: one Fock stack and one stacked SVD."""
    amps, deficits = _fock_stack(model.diagonalize(params), states)
    svs = np.linalg.svd(amps, compute_uv=False)
    svs /= np.sqrt(np.sum(svs * svs, axis=1, keepdims=True))
    results = []
    for sv, deficit in zip(svs, deficits):
        lam = sv[sv > 1e-9] ** 2
        pur = float(np.sum(lam**2))
        vn = float(-np.sum(lam * np.log(lam)))
        results.append(SchmidtOracleResult(singular_values=sv, purity=pur, linear_entropy=1.0 - pur,
                                           von_neumann=vn, norm_deficit=deficit))
    return results


def schmidt_oracle(params: SystemParams, nm: QuantumNumbers) -> SchmidtOracleResult:
    """Schmidt coefficients of ``Psi_(n, m)``; ``RuntimeError`` very near the bound (unresolved)."""
    return _schmidt(params, [nm])[0]


def marginal_purity_quadrature(params: SystemParams, nm: QuantumNumbers) -> float:
    """Marginal purity through the Wigner function itself (slow path).

    The marginal ``W(x, p)`` is a Gaussian envelope times a polynomial, so
    both the inner ``(y, q)`` integral (after completing the square) and
    the outer ``2 pi int W^2`` are exact Gauss-Hermite sums. Entirely
    independent of the generating-function route.
    """
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s2, c2, sc = modes.s2, modes.c2, modes.sc

    a_y = vx * s2 + vy * c2
    a_q = s2 / vx + c2 / vy
    gam_x = vx * vy / a_y
    gam_p = 1.0 / (s2 * vy + c2 * vx)

    inner = gauss_hermite(nm.n + nm.m + 2)
    outer = gauss_hermite(2 * (nm.n + nm.m) + 3)
    ti, wi = inner.nodes, inner.weights
    to, wo = outer.nodes, outer.weights

    x = to / math.sqrt(2.0 * gam_x)              # axis k
    p = to / math.sqrt(2.0 * gam_p)              # axis l
    y0 = -x * sc * (vx - vy) / a_y
    q0 = -p * sc * (1.0 / vx - 1.0 / vy) / a_q
    y_ki = y0[:, None] + ti[None, :] / math.sqrt(a_y)
    q_lj = q0[:, None] + ti[None, :] / math.sqrt(a_q)

    # X and Y on axes (k, i), P and Q on axes (l, j)
    big = wigner.lab_to_normal(modes, PhasePoint(x[:, None], p[:, None], y_ki, q_lj))

    arg_n = 2.0 * (vx * big.X[:, None, :, None] ** 2
                   + big.P[None, :, None, :] ** 2 / vx)   # (k, l, i, j)
    arg_m = 2.0 * (vy * big.Y[:, None, :, None] ** 2
                   + big.Q[None, :, None, :] ** 2 / vy)
    # contract j, then i; then l and k of the squared inner sum
    inner_sum = laguerre(nm.n, arg_n) * laguerre(nm.m, arg_m) @ wi @ wi
    total = float(wo @ inner_sum**2 @ wo)
    return total * math.pi / math.sqrt(gam_x * gam_p) / (math.pi**4 * a_y * a_q)


# --------------------------------------------------------------------------
# verification suite


@dataclass
class CheckResult:
    """One named check; ``worst`` is the first point where ``max_deviation`` was reached."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""
    worst: str = ""


@dataclass
class VerificationReport:
    """The checks of one run; ``stage_seconds`` is its wall time summed per stage (``_STAGES``)."""

    elapsed_seconds: float
    checks: list[CheckResult]
    stage_seconds: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"passed": self.passed, **asdict(self)}


# check name -> (tolerance, detail), in report order
_CHECKS = {
    "ground-purity-closed-form": (1e-10, "coefficient extraction vs ground-state closed form"),
    "marginal-purity-svd": (1e-12, "coefficient extraction vs Schmidt-oracle purity"),
    "global-purity": (1e-8, "4*pi^2 * integral of W^2 == 1"),
    "moment-table": (1e-10, "closed-form moments vs quadrature; <xq>=<py>=0"),
    "resonance-steering-null": (0.0, "steering vanishes at resonance, post clamp"),
    "weak-coupling-steering": (1e-6, "full quantifier vs weak-coupling closed form"),
    "schmidt-normalization": (1e-10, "approximate Schmidt weights sum to 1"),
    "uncertainty-areas": (1e-12, "Heisenberg bound and resonance equality"),
    "excitation-oracle": (1e-10, "ladder correlators vs quadrature moments"),
}


# stages timed in the report: the purity routes (exact, ground-state closed form, Makarov
# weights), the Schmidt oracle, the quadrature oracles, and the closed-form moments and steering
_STAGES = ("purity", "schmidt-oracle", "quadrature-oracles", "closed-forms")


def _point(p: SystemParams, q: QuantumNumbers) -> str:
    return f"omega_x={p.omega_x} omega_y={p.omega_y} epsilon={p.epsilon} n={q.n} m={q.m}"


def run_verification() -> VerificationReport:
    """Run the oracle suite over the built-in reference grid.

    The exact purity and both oracles run once per coupling over its six states
    (``_purities``, ``_schmidt``, ``_moment_sets``); every other routine runs
    once per reference point, and each result feeds every check that needs it.
    Module-level functions under test are resolved at call time, so a fault
    injected by rebinding (for instance a corrupted moment formula) surfaces as
    a named failing check, at the point where it is largest.
    """
    start = time.perf_counter()
    grid = [SystemParams(1.0, wy, frac * wy) for wy in (0.8, 1.0) for frac in (0.3, 0.9)]
    states = [QuantumNumbers(n, m) for n, m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))]
    checks = {name: CheckResult(name, False, -math.inf, tol, detail)
              for name, (tol, detail) in _CHECKS.items()}
    stage_seconds = dict.fromkeys(_STAGES, 0.0)

    @contextlib.contextmanager
    def stage(name: str):
        begin = time.perf_counter()
        try:
            yield
        finally:
            stage_seconds[name] += time.perf_counter() - begin

    def record(name: str, dev: float, at: str) -> None:
        check = checks[name]
        # a NaN deviation is kept, so that it fails its check
        if not (dev <= check.max_deviation or math.isnan(check.max_deviation)):
            check.max_deviation, check.worst = float(dev), at

    for p in grid:
        with stage("schmidt-oracle"):
            svds = _schmidt(p, states)
        with stage("quadrature-oracles"):
            refs = _moment_sets(p, states)
        with stage("purity"):
            exacts = purity._purities(p, states)  # states[0] is the ground state
            ground = purity.purity_ground_closed(p).purity
        record("ground-purity-closed-form", abs(exacts[0] - ground), _point(p, states[0]))
        for q, exact, svd, ref in zip(states, exacts, svds, refs):
            at = _point(p, q)
            with stage("quadrature-oracles"):
                norm = global_purity_check(p, q)
                lad = _ladder(p, ref)
            with stage("closed-forms"):
                ms = moments.second_and_fourth_moments(p, q)
                ax, ay = moments.uncertainty_areas(p, q)
                ex = moments.excitation_numbers(p, q)
                lm = moments.ladder_moments(p, q)

            record("marginal-purity-svd", abs(exact - svd.purity), at)
            record("global-purity", abs(norm - 1.0), at)
            record("moment-table", max(abs(ref["xq"]), abs(ref["py"]),
                                       *(abs(got - ref[name]) / max(abs(ref[name]), 1e-2)
                                         for name, got in vars(ms).items())), at)
            record("uncertainty-areas", max(0.5 - ax, 0.5 - ay), at)
            record("excitation-oracle", max(abs(ex.nx - lad.nx), abs(ex.ny - lad.ny),
                                            abs(lm.nxny - lad.nxny),
                                            abs(lm.cross_mag_sq - lad.cross_mag_sq)), at)

    # the remaining loops are cheap; each is timed whole, its bookkeeping included
    with stage("closed-forms"):
        for frac in (0.3, 0.9):
            p = SystemParams(1.0, 1.0, frac)
            for q in states:
                ax, ay = moments.uncertainty_areas(p, q)
                record("uncertainty-areas", abs(ax - ay), _point(p, q))

        for frac in (0.1, 0.5, 0.9):
            p = SystemParams(1.0, 1.0, frac)
            for q in states:
                res = compute_steering(p, q)
                record("resonance-steering-null", max(abs(res.s_xy), abs(res.s_yx)),
                       _point(p, q))

        eps = 1e-4
        for mu_target in (0.3, 0.6):
            detune = 2.0 * eps * (1.0 - mu_target**2) / (2.0 * mu_target)
            p = SystemParams(1.0, math.sqrt(1.0 - detune), eps)
            mu = model.diagonalize(p).mu
            for q in (QuantumNumbers(n, 0) for n in (1, 3, 5)):
                weak = steering_weak_general(q, mu)
                record("weak-coupling-steering",
                       abs(compute_steering(p, q).s_xy - weak) / weak, _point(p, q))

    with stage("purity"):
        for n in range(4):
            for m in range(4):
                for mu in (0.2, 1.0 / math.sqrt(3.0), 0.9, 1.0):
                    lam = purity.makarov_schmidt(QuantumNumbers(n, m), mu).lambdas
                    record("schmidt-normalization", abs(math.fsum(lam) - 1.0),
                           f"n={n} m={m} mu={mu}")

    for check in checks.values():
        check.passed = bool(check.max_deviation <= check.tolerance)
    return VerificationReport(time.perf_counter() - start, list(checks.values()), stage_seconds)
