"""Independent brute-force verification of every closed form in the package.

Two oracles, deliberately built on different machinery than the code they
check:

* Gauss-Hermite quadrature of phase-space integrals of the package's own
  Wigner function, on grids where every integrand is a polynomial times
  W's Gaussian, so a sufficient-order rule is exact up to roundoff.
  Lab-frame monomials are evaluated through the rotation on the rotated
  tensor grid, never sampled on lab grids, which removes convergence
  questions from the comparisons.
* The singular values of ``Psi_(n, m)`` sampled on one Gauss-Hermite grid
  in lab coordinates, weighted so that the samples are an orthogonal image
  of the state's Hermite amplitudes in lab-local bases: the Schmidt
  coefficients, with their truncation residual. It shares the rule with
  the quadrature oracles, evaluates the states with
  ``wigner.eigenfunctions``, and shares nothing with the generating function.

``run_verification`` sweeps a built-in parameter grid through all checks
and returns a machine-readable report; the CLI ``verify`` command wraps
it. The quadrature oracles and the exact purity run once per run, over the
whole 4 couplings x 6 states table, and the Schmidt oracle once per coupling
(``_gram_purities``: one lab grid, each state's purity from the Gram matrix
of its samples, no SVD; ``_moment_sets``: one rule, one set of mode
factors, one batched contraction; ``_global_purities``: one rule, one 2-D
integral of ``wigner_mode`` squared per mode and quantum number for all
couplings).
``schmidt_oracle`` keeps the SVD, for the spectrum and the entropies. On
``X = v / sqrt(2 vx)``, ``P = v sqrt(vx / 2)`` the global-purity integrand
no longer depends on the coupling (its argument is ``(v_i^2 + v_j^2) / 2``),
so that check tests ``wigner_mode``'s normalization for each quantum number.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import model, moments, purity, wigner
from .model import NormalModes, QuantumNumbers, SystemParams
from .moments import LadderMoments
from .steering import steering as compute_steering
from .steering import steering_weak_general
from .wigner import PhasePoint, RotatedPhasePoint


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for the weight ``exp(-t^2)``.

    A rule with ``len(nodes)`` nodes integrates polynomials of degree up to
    ``2*len(nodes) - 1`` against the Gaussian weight exactly. ``flat_weights``,
    ``w exp(t^2)``, do the same for an integrand that carries the Gaussian
    itself, as the Wigner function does; they overflow above about 350 nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @cached_property
    def flat_weights(self) -> np.ndarray:
        return self.weights * np.exp(self.nodes * self.nodes)


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    if order < 1:
        raise ValueError(f"rule order must be positive, got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(nodes=nodes, weights=weights)


# exponents (a, b, c, d) of <x^a p^b y^c q^d>: the ten table moments, <xq> and <py>
_MOMENT_EXPONENTS = {
    "xx": (2, 0, 0, 0), "yy": (0, 0, 2, 0), "pp": (0, 2, 0, 0), "qq": (0, 0, 0, 2),
    "xy": (1, 0, 1, 0), "pq": (0, 1, 0, 1),
    "xxyy": (2, 0, 2, 0), "ppqq": (0, 2, 0, 2), "xxqq": (2, 0, 0, 2), "yypp": (0, 2, 2, 0),
    "xq": (1, 0, 0, 1), "py": (0, 1, 1, 0),
}


def _quadrature_moments(couplings: list[SystemParams], states: list[QuantumNumbers],
                        exponents: list[tuple[int, int, int, int]]) -> np.ndarray:
    """``<x^a p^b y^c q^d>`` by exact quadrature: ``[c, s, e]`` for ``couplings[c]``,
    ``states[s]`` and ``exponents[e]``.

    The Wigner integral is taken in scaled normal-mode coordinates, where each
    mode's factor is ``wigner.wigner_mode`` at unit frequency on the node grid
    and the monomial is a polynomial, so one rule whose order is chosen from
    the largest total degree and the largest state is analytically sufficient
    for every monomial of every state, and of every coupling.
    """
    if any(min(e) < 0 or sum(e) > 8 for e in exponents):
        raise ValueError(f"monomial exponents must be non-negative with total <= 8, got {exponents}")

    needed = (max(map(sum, exponents)) + 2 * max(max(q.n, q.m) for q in states)) // 2 + 2
    rule = gauss_hermite(needed)
    t, rw = rule.nodes, rule.flat_weights

    # per coupling X = t / sqrt(vx) on axis i, P = t sqrt(vx) on j, Y = t / sqrt(vy) on k and
    # Q = t sqrt(vy) on l: x and y land on axes (i, k), p and q on (j, l)
    grids = []
    for modes in map(model.diagonalize, couplings):
        rx, ry = math.sqrt(modes.vartheta_x), math.sqrt(modes.vartheta_y)
        grids.append(wigner.normal_to_lab(modes, RotatedPhasePoint(
            (t / rx)[:, None], (t * rx)[:, None], (t / ry)[None, :], (t * ry)[None, :])))
    lab = [np.stack(z) for z in zip(*grids)]  # x, p, y and q, each over the couplings

    # vx X^2 + P^2/vx = t_i^2 + t_j^2 = vy Y^2 + Q^2/vy: one factor serves both modes
    ww = rw[:, None] * rw[None, :]
    factor = {k: ww * wigner.wigner_mode(k, 1.0, t[:, None], t[None, :])
              for k in sorted({q.n for q in states} | {q.m for q in states})}
    a_ij = np.stack([factor[q.n] for q in states])[:, None]
    b_kl = np.stack([factor[q.m] for q in states])[:, None]

    # sum_ijkl a_ij b_kl c_ik d_jl = sum_ij a_ij (c b d^T)_ij, c = x^a y^c, d = p^b q^d, in one
    # product over (coupling, state, exponent); row e of ``exps`` holds (a, b, c, d)
    exps = np.array(exponents)
    powers = [z ** np.arange(top + 1)[:, None, None, None]
              for z, top in zip(lab, exps.max(axis=0))]
    cs = (powers[0][exps[:, 0]] * powers[2][exps[:, 2]]).swapaxes(0, 1)[:, None]
    ds = (powers[1][exps[:, 1]] * powers[3][exps[:, 3]]).swapaxes(0, 1)[:, None]
    return np.sum(a_ij * (cs @ b_kl @ ds.swapaxes(-1, -2)), axis=(-2, -1))


def moment_oracle(params: SystemParams, nm: QuantumNumbers,
                  exponents: tuple[int, int, int, int]) -> float:
    """Expectation value ``<x^a p^b y^c q^d>`` by exact quadrature."""
    return float(_quadrature_moments([params], [nm], [exponents])[0, 0, 0])


def _moment_sets(couplings: list[SystemParams],
                 states: list[QuantumNumbers]) -> list[list[dict[str, float]]]:
    """``moment_set_oracle`` for each state, one row per coupling, all on one rule."""
    table = _quadrature_moments(couplings, states, list(_MOMENT_EXPONENTS.values()))
    return [[dict(zip(_MOMENT_EXPONENTS, row)) for row in block] for block in table.tolist()]


def moment_set_oracle(params: SystemParams, nm: QuantumNumbers) -> dict[str, float]:
    """All ten table moments plus the parity-odd ``<xq>`` and ``<py>``, on one rule."""
    return _moment_sets([params], [nm])[0][0]


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


def _global_purities(couplings: list[SystemParams],
                     states: list[QuantumNumbers]) -> list[list[float]]:
    """``global_purity_check`` for each state, one row per coupling, all on one rule."""
    rule = gauss_hermite(2 * max(max(q.n, q.m) for q in states) + 4)
    v, rw = rule.nodes, rule.flat_weights
    frequencies = [(m.vartheta_x, m.vartheta_y) for m in map(model.diagonalize, couplings)]
    integrals = []  # per normal mode and quantum number, its squared factor's integral per coupling
    for vt, ks in zip(np.array(frequencies).T[:, :, None, None],
                      ({q.n for q in states}, {q.m for q in states})):
        big, small = v[:, None] / np.sqrt(2.0 * vt), v[None, :] * np.sqrt(0.5 * vt)
        integrals.append({k: (wigner.wigner_mode(k, vt, big, small) ** 2 @ rw @ rw).tolist()
                          for k in ks})
    return [[math.pi**2 * integrals[0][q.n][c] * integrals[1][q.m][c] for q in states]
            for c in range(len(couplings))]


def global_purity_check(params: SystemParams, nm: QuantumNumbers) -> float:
    """``4 pi^2`` times the phase-space integral of ``W^2``; must be 1.

    W is a product of ``wigner.wigner_mode`` factors, so the integral is one 2-D
    Gauss-Hermite sum per normal mode, with ``2*max(n, m) + 4`` nodes on ``X = v /
    sqrt(2 vx)``, ``P = v sqrt(vx / 2)`` (``Y``, ``Q`` likewise) and flat weights.
    """
    return _global_purities([params], [nm])[0][0]


@dataclass(frozen=True)
class SchmidtOracleResult:
    """Schmidt data of a state's lab-grid samples ``A``; ``norm_deficit = | ||A||_F^2 - 1 |``."""

    singular_values: np.ndarray  # rescaled so that the Schmidt weights, their squares, sum to 1
    purity: float
    linear_entropy: float
    von_neumann: float
    norm_deficit: float


# Gauss-Hermite orders tried per axis, up to the limit of ``QuadratureRule.flat_weights``
_ORDERS = (24, 48, 96, 192, 320)


def _lab_samples(modes: NormalModes,
                 states: list[QuantumNumbers]) -> tuple[np.ndarray, list[float]]:
    """Every state's weighted lab-grid samples ``A_ij``, stacked, and its norm deficit.

    Nodes ``t`` of one rule give ``x_i = t_i / sqrt(Omega_x)`` and ``y_j = t_j /
    sqrt(Omega_y)``, with ``Omega_x = sqrt(<p^2>/<x^2>)`` of the ground state (likewise
    ``Omega_y``), and ``A_ij = sqrt(W_i) Psi_(n, m)(x_i, y_j) sqrt(V_j)`` with ``W_i = w_i
    exp(t_i^2) / sqrt(Omega_x)``. ``A`` is an orthogonal image of the state's Hermite
    amplitudes in the lab-local bases of frequency ``Omega``, so its singular values are
    the Schmidt coefficients. The order grows until every deficit is ``| ||A||_F^2 - 1 |
    < 1e-14``. Each grid runs each mode's Hermite recurrence once, up to the largest
    ``n`` or ``m`` of ``states`` (``wigner.eigenfunctions``, which caps them at 64).
    """
    vx, vy, s2, c2 = modes.vartheta_x, modes.vartheta_y, modes.s2, modes.c2
    om_x = math.sqrt((vx * c2 + vy * s2) / (c2 / vx + s2 / vy))  # sqrt(<p^2>/<x^2>)
    om_y = math.sqrt((vx * s2 + vy * c2) / (s2 / vx + c2 / vy))  # sqrt(<q^2>/<y^2>)
    for order in _ORDERS:
        rule = gauss_hermite(order)
        t, root_w = rule.nodes, np.sqrt(rule.flat_weights)
        big = wigner.lab_to_normal(modes, PhasePoint(t[:, None] / math.sqrt(om_x), 0.0,
                                                     t[None, :] / math.sqrt(om_y), 0.0))
        weight = np.outer(root_w, root_w) / (om_x * om_y) ** 0.25
        amps = weight * wigner.eigenfunctions(modes, states, big.X, big.Y)
        deficits = np.abs(np.sum(amps * amps, axis=(1, 2)) - 1.0).tolist()
        if max(deficits) < 1e-14:
            return amps, deficits
    q, deficit = next((q, d) for q, d in zip(states, deficits) if not d < 1e-14)
    raise RuntimeError(f"({q.n}, {q.m}) unresolved at order {order}: deficit {deficit:.3e}")


def _schmidt(params: SystemParams, states: list[QuantumNumbers]) -> list[SchmidtOracleResult]:
    """``schmidt_oracle`` for each state: one lab grid and one stacked SVD."""
    amps, deficits = _lab_samples(model.diagonalize(params), states)
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
    """Schmidt coefficients of ``Psi_(n, m)`` for ``n, m <= 64``; ``RuntimeError`` if unresolved."""
    return _schmidt(params, [nm])[0]


def _gram_purities(params: SystemParams, states: list[QuantumNumbers]) -> list[float]:
    """The Schmidt oracle's purity of each state, without an SVD.

    ``Tr rho^2 = ||A A^T||_F^2 / ||A||_F^4`` of the state's ``_lab_samples`` matrix
    ``A`` is the ``sum sigma^4 / (sum sigma^2)^2`` of its singular values.
    """
    amps, _ = _lab_samples(model.diagonalize(params), states)
    gram = amps @ amps.transpose(0, 2, 1)
    return (np.sum(gram * gram, axis=(1, 2)) / np.sum(amps * amps, axis=(1, 2)) ** 2).tolist()


def marginal_purity_quadrature(params: SystemParams, nm: QuantumNumbers) -> float:
    """Marginal purity ``2 pi int W_A^2`` through ``wigner.wigner_lab`` (slow path).

    The marginal ``W_A(x, p)`` is a Gaussian envelope times a polynomial, so
    both the inner ``(y, q)`` integral (after completing the square) and
    the outer one of ``W_A^2`` are exact Gauss-Hermite sums. Entirely
    independent of the generating-function route.
    """
    modes = model.diagonalize(params)
    vx, vy = modes.vartheta_x, modes.vartheta_y
    s2, c2, sc = modes.s2, modes.c2, modes.sc

    # W's exponent is a_y (y - y0)^2 + a_q (q - q0)^2 + (sx^2 x^2 + sp^2 p^2) / 2,
    # so each lab axis holds nodes over its scale and takes the flat weights over it
    a_y = vx * s2 + vy * c2
    a_q = s2 / vx + c2 / vy
    sx, sp = math.sqrt(2.0 * vx * vy / a_y), math.sqrt(2.0 / (s2 * vy + c2 * vx))
    sy, sq = math.sqrt(a_y), math.sqrt(a_q)

    inner = gauss_hermite(nm.n + nm.m + 2)
    outer = gauss_hermite(2 * (nm.n + nm.m) + 3)
    ti, wi = inner.nodes, inner.flat_weights
    to, wo = outer.nodes, outer.flat_weights

    x = to / sx                                  # axis k
    p = to / sp                                  # axis l
    y_ki = (-x * sc * (vx - vy) / a_y)[:, None] + ti[None, :] / sy
    q_lj = (-p * sc * (1.0 / vx - 1.0 / vy) / a_q)[:, None] + ti[None, :] / sq

    w_vals = wigner.wigner_lab(modes, nm, PhasePoint(x[:, None, None, None], p[None, :, None, None],
                                                     y_ki[:, None, :, None], q_lj[None, :, None, :]))
    # contract j, then i, to W_A on (k, l); then k and l of its square
    marginal = w_vals @ (wi / sq) @ (wi / sy)
    return 2.0 * math.pi * float((wo / sx) @ marginal**2 @ (wo / sp))


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

    The exact purity and the quadrature oracles run once over the table of couplings
    and states (``_purities``, ``_moment_sets``, ``_global_purities``), the Schmidt oracle
    once per coupling (``_gram_purities``), the rest once per reference point; each
    result feeds every check that needs it.
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

    def record(name: str, dev: float, *point, where=_point) -> None:
        check = checks[name]
        # a NaN deviation is kept, so that it fails its check; a new worst formats its point
        if not (dev <= check.max_deviation or math.isnan(check.max_deviation)):
            check.max_deviation, check.worst = float(dev), where(*point)

    with stage("schmidt-oracle"):
        schmidts = [_gram_purities(p, states) for p in grid]
    with stage("quadrature-oracles"):
        refs = _moment_sets(grid, states)
        lads = [[_ladder(p, ref) for ref in row] for p, row in zip(grid, refs)]
        norms = _global_purities(grid, states)
    with stage("purity"):
        exacts = purity._purities(grid, states)  # states[0] is the ground state
        grounds = [purity.purity_ground_closed(p).purity for p in grid]
    for p, ground, exact_row, *rows in zip(grid, grounds, exacts, schmidts, refs, lads, norms):
        record("ground-purity-closed-form", abs(exact_row[0] - ground), p, states[0])
        for q, exact, schmidt, ref, lad, norm in zip(states, exact_row, *rows):
            with stage("closed-forms"):
                ms = moments.second_and_fourth_moments(p, q)
                ax, ay = moments.uncertainty_areas(p, q)
                ex = moments.excitation_numbers(p, q)
                lm = moments.ladder_moments(p, q)

            record("marginal-purity-svd", abs(exact - schmidt), p, q)
            record("global-purity", abs(norm - 1.0), p, q)
            record("moment-table", max(abs(ref["xq"]), abs(ref["py"]),
                                       *(abs(got - ref[name]) / max(abs(ref[name]), 1e-2)
                                         for name, got in vars(ms).items())), p, q)
            record("uncertainty-areas", max(0.5 - ax, 0.5 - ay), p, q)
            record("excitation-oracle", max(abs(ex.nx - lad.nx), abs(ex.ny - lad.ny),
                                            abs(lm.nxny - lad.nxny),
                                            abs(lm.cross_mag_sq - lad.cross_mag_sq)), p, q)

    # the remaining loops are cheap; each is timed whole, its bookkeeping included
    with stage("closed-forms"):
        for frac in (0.3, 0.9):
            p = SystemParams(1.0, 1.0, frac)
            for q in states:
                ax, ay = moments.uncertainty_areas(p, q)
                record("uncertainty-areas", abs(ax - ay), p, q)

        for frac in (0.1, 0.5, 0.9):
            p = SystemParams(1.0, 1.0, frac)
            for q in states:
                res = compute_steering(p, q)
                record("resonance-steering-null", max(abs(res.s_xy), abs(res.s_yx)), p, q)

        eps = 1e-4
        for mu_target in (0.3, 0.6):
            detune = 2.0 * eps * (1.0 - mu_target**2) / (2.0 * mu_target)
            p = SystemParams(1.0, math.sqrt(1.0 - detune), eps)
            mu = model.diagonalize(p).mu
            for q in (QuantumNumbers(n, 0) for n in (1, 3, 5)):
                weak = steering_weak_general(q, mu)
                record("weak-coupling-steering",
                       abs(compute_steering(p, q).s_xy - weak) / weak, p, q)

    with stage("purity"):
        for n in range(4):
            for m in range(4):
                for mu in (0.2, 1.0 / math.sqrt(3.0), 0.9, 1.0):
                    lam = purity.makarov_schmidt(QuantumNumbers(n, m), mu).lambdas
                    record("schmidt-normalization", abs(math.fsum(lam) - 1.0), n, m, mu,
                           where="n={} m={} mu={}".format)

    for check in checks.values():
        check.passed = bool(check.max_deviation <= check.tolerance)
    return VerificationReport(time.perf_counter() - start, list(checks.values()), stage_seconds)
