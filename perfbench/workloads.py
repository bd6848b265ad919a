"""The four benchmark workloads, their inputs, and the checks on their outputs.

Every workload is a fixed list of operations; one pass runs each once.
The seed only shuffles the order of the operations and picks the sampled
check points, so every pass of every run does the same work and fails
the same operations. Checks compare the program's outputs with values
computed here by other means (mpmath closed forms, ``numpy.linalg.eigh``
for the normal modes, ``numpy.polynomial.laguerre.lagval``, the Wigner
quadrature oracle) or with properties the outputs must have. They run
after the timed passes.

Package functions are always looked up through their module at call time
(``purity.purity_exact``), so the tracer's and the self-test's rebinding
reaches every call made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
from numpy.polynomial import laguerre as npl

import oscpair.cli as cli
import oscpair.model as model
import oscpair.oracle as oracle
import oscpair.purity as purity

PI2 = math.pi ** 2

# ---------------------------------------------------------------------------
# independent references


def normal_modes_eigh(wx: float, wy: float, eps: float) -> tuple[float, float, float, float]:
    """``(cos, sin, vartheta_x, vartheta_y)`` from an eigendecomposition of the
    potential matrix, not from ``model.diagonalize``'s closed form.

    The potential of ``H = ... - eps*x*y`` has the larger-frequency
    eigenvector ``(cos, -sin)``. The package's documented rotation
    (``X = cos x + sin y`` with ``theta = atan2(2 eps, wx^2 - wy^2)/2``, see
    ``oscpair.model``) uses ``(cos, +sin)``, which belongs to ``+eps*x*y``;
    lab-frame values are checked against the package's convention, and the
    sign mismatch is recorded in CHANGES.md.
    """
    vals, vecs = np.linalg.eigh(np.array([[wx * wx, -eps], [-eps, wy * wy]]))
    c, s = vecs[0, 1], -vecs[1, 1]
    if c < 0:
        c, s = -c, -s
    return float(c), float(s), math.sqrt(vals[1]), math.sqrt(vals[0])


def ground_purity_mp(wx: float, wy: float, eps: float) -> float:
    """Ground-state marginal purity ``(1 + mu^2 (vx-vy)^2 / ((1+mu^2)^2 vx vy))^(-1/2)``
    in 30-digit arithmetic.

    ``mu^2/(1+mu^2)^2 = sin^2 cos^2 = eps^2 / D^2`` with
    ``D^2 = (wx^2 - wy^2)^2 + 4 eps^2``, and ``vx^2, vy^2 = (wx^2 + wy^2 +- D)/2``.
    """
    with mpmath.workdps(30):
        wx, wy, eps = mpmath.mpf(wx), mpmath.mpf(wy), mpmath.mpf(eps)
        d = mpmath.sqrt((wx**2 - wy**2) ** 2 + 4 * eps**2)
        vx = mpmath.sqrt((wx**2 + wy**2 + d) / 2)
        vy = mpmath.sqrt((wx**2 + wy**2 - d) / 2)
        s2c2 = eps**2 / d**2 if d else mpmath.mpf(0)
        return float(1 / mpmath.sqrt(1 + s2c2 * (vx - vy) ** 2 / (vx * vy)))


def weak_steering_n0(n: int, mu: float) -> float:
    """Weak-coupling ``S_xy`` of ``(n, 0)``: ``n mu^2 (1 - mu^2) / (2 (1 + mu^2)^2)``."""
    mu2 = mu * mu
    return n * mu2 * (1.0 - mu2) / (2.0 * (1.0 + mu2) ** 2)


def wigner_mode_lagval(n: int, vartheta: float, X, P):
    """Single-mode Wigner factor ``(-1)^n/pi exp(-a) L_n(2a)``, Laguerre by ``lagval``."""
    a = vartheta * X * X + P * P / vartheta
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    return (-1.0) ** n / math.pi * np.exp(-a) * npl.lagval(2.0 * a, coef)


# ---------------------------------------------------------------------------
# common machinery


@dataclass
class OpResult:
    """What one operation produced; ``error`` is set when it failed."""

    value: object
    error: str | None = None


def _run_cli(argv: list[str]) -> OpResult:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return OpResult(value=(code, err.getvalue()), error=None if code == 0 else err.getvalue())


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Workload:
    """A fixed operation list, a cold CLI command, and output checks."""

    name = ""
    cold_argv: list[str] = []
    cold_rows: int | None = None   # CSV rows the cold command writes to ``--output``

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops = self.make_ops()
        random.Random(seed).shuffle(self.ops)

    def make_ops(self) -> list:
        raise NotImplementedError

    def run_op(self, index: int, op) -> OpResult:
        raise NotImplementedError

    def fingerprint(self, results: list[OpResult]) -> str:
        """Digest of one pass's outputs; every pass must give the same."""
        return repr([(r.value, r.error) for r in results])

    def capture(self, results: list[OpResult]) -> object:
        """Keep what the checks need from the first pass."""
        return results

    def check(self, captured) -> list[str]:
        raise NotImplementedError

    def rows(self, results: list[OpResult]) -> int:
        """Result rows one pass produced (the base of ``calls_per_row``)."""
        return len(results)

    def cli_output(self, results: list[OpResult]) -> tuple[int, int]:
        """``(rows, bytes)`` written by ``oscpair.cli`` in one pass."""
        return 0, 0

    def check_cold(self, code: int, stdout: str, out_path: Path) -> list[str]:
        if code != 0:
            return [f"cold command exited {code}"]
        if self.cold_rows is None:
            return []
        got = out_path.read_bytes().count(b"\n") - 1
        return [] if got == self.cold_rows else [
            f"cold command wrote {got} rows, expected {self.cold_rows}"]


class _CsvWorkload(Workload):
    """Operations are real ``oscpair`` subcommands writing CSV to a file each."""

    def out_path(self, index: int) -> Path:
        return self.workdir / f"op{index:02d}.csv"

    def run_op(self, index: int, op) -> OpResult:
        return _run_cli(op.argv + ["--output", str(self.out_path(index))])

    def fingerprint(self, results):
        return _digest(self.out_path(i) for i in range(len(results))) + repr(
            [r.value for r in results])

    def capture(self, results):
        return [(op, np.loadtxt(self.out_path(i), delimiter=",", skiprows=1, ndmin=2), r)
                for i, (op, r) in enumerate(zip(self.ops, results))]

    def cli_output(self, results):
        rows = size = 0
        for i in range(len(results)):
            data = self.out_path(i).read_bytes()
            rows += data.count(b"\n") - 1
            size += len(data)
        return rows, size

    def rows(self, results):
        return self.cli_output(results)[0]


# ---------------------------------------------------------------------------
# purity-sweep

PURITY_WX, PURITY_WY = 1.0, 0.8
# exactly 0, the weak-coupling value, and up to 0.95 of the bound wx*wy = 0.8
PURITY_EPS = (0.0, 0.01, 0.2, 0.4, 0.6, 0.76)
PURITY_NMAX = 6
# F1: roundoff overshoot of the jet at eps = 0 trips the (0, 1 + 1e-9] guard
F1_STATES = {(2, 5), (3, 6), (4, 6), (5, 5), (5, 6), (6, 3), (6, 4)}
# F2: cancellation in jacobi_negparam breaks the sum-to-1 check at weak coupling
F2_STATES = {(6, 5), (6, 6)}
PURITY_TOL = 1e-6
PURITY_QUAD_SAMPLES = 98      # seeded rows checked against the quadrature route


@dataclass(frozen=True)
class PurityOp:
    eps: float
    n: int
    m: int
    params: model.SystemParams
    mu: float       # computed once per epsilon, as purity-scan does


class PuritySweep(Workload):
    name = "purity-sweep"
    cold_argv = ["purity-scan", "--omega-y", "1", "--epsilon", "0:0.95:20",
                 "--n-max", "3", "--m-max", "3"]
    cold_rows = 20 * 16

    def make_ops(self):
        ops = []
        for eps in PURITY_EPS:
            params = model.SystemParams(PURITY_WX, PURITY_WY, eps)
            mu = model.diagonalize(params).mu
            ops += [PurityOp(eps, n, m, params, mu)
                    for n in range(PURITY_NMAX + 1) for m in range(PURITY_NMAX + 1)]
        return ops

    def run_op(self, index, op):
        nm = model.QuantumNumbers(op.n, op.m)
        errors = []
        p = s_mak = None
        try:
            p = purity.purity_exact(op.params, nm).purity
        except (RuntimeError, ValueError) as exc:
            errors.append(f"purity_exact: {exc}")
        try:
            s_mak = purity.makarov_entropy(nm, op.mu)
        except (RuntimeError, ValueError) as exc:
            errors.append(f"makarov_entropy: {exc}")
        return OpResult(value=(p, s_mak), error="; ".join(errors) or None)

    def check(self, captured):
        errors = []
        quad_rows = set(random.Random(self.seed).sample(range(len(self.ops)),
                                                        PURITY_QUAD_SAMPLES))
        for index, (op, res) in enumerate(zip(self.ops, captured)):
            where = f"eps={op.eps} ({op.n},{op.m})"
            p, s_mak = res.value
            expect_f1 = op.eps == 0.0 and (op.n, op.m) in F1_STATES
            expect_f2 = op.eps == 0.01 and (op.n, op.m) in F2_STATES
            # a fix of F1 or F2 shows as fewer failures; any other failure is an error
            if (p is None and not expect_f1) or (s_mak is None and not expect_f2):
                errors.append(f"{where}: unexpected failure: {res.error}")
            if p is None:
                if "outside (0, 1]" not in res.error:
                    errors.append(f"{where}: purity failed for another reason: {res.error}")
            else:
                if not 0.0 < p <= 1.0:
                    errors.append(f"{where}: purity {p} outside (0, 1]")
                if op.eps == 0.0 and abs(p - 1.0) > PURITY_TOL:
                    errors.append(f"{where}: purity {p} != 1 at zero coupling")
                if index in quad_rows:
                    quad = oracle.marginal_purity_quadrature(op.params,
                                                             model.QuantumNumbers(op.n, op.m))
                    if abs(p - quad) > PURITY_TOL:
                        errors.append(f"{where}: purity {p} vs quadrature {quad}")
                if (op.n, op.m) == (0, 0):
                    ref = ground_purity_mp(PURITY_WX, PURITY_WY, op.eps)
                    if abs(p - ref) > 1e-12:
                        errors.append(f"{where}: ground purity {p} vs mpmath {ref}")
            if s_mak is None:
                if "sum to" not in res.error:
                    errors.append(f"{where}: Schmidt weights failed for another reason: "
                                  f"{res.error}")
            elif not 0.0 <= s_mak <= 1.0:
                errors.append(f"{where}: approximate linear entropy {s_mak} outside [0, 1]")
        return errors


# ---------------------------------------------------------------------------
# steering-sweep


@dataclass(frozen=True)
class SteeringOp:
    argv: list
    omega_y: float
    eps_values: tuple          # the epsilon grid before boundary rows are dropped
    states: tuple
    warns: bool                # explicit sweeps warn once per skipped epsilon


def _steering_preset(wy: float) -> SteeringOp:
    states = tuple([(n, 0) for n in range(1, 7)] + [(0, m) for m in range(1, 7)])
    return SteeringOp(["steering-scan", "--preset", str(wy)], wy,
                      tuple(np.linspace(0.0, wy, 161)), states, False)


def _steering_explicit(wy: float, eps_stop: float, steps: int = 40) -> SteeringOp:
    states = tuple((n, m) for n in range(7) for m in range(7))
    argv = ["steering-scan", "--omega-y", repr(wy), "--epsilon", f"0.0:{eps_stop!r}:{steps}",
            "--n-max", "6", "--m-max", "6"]
    return SteeringOp(argv, wy, tuple(np.linspace(0.0, eps_stop, steps)), states, True)


# rows whose weak-coupling closed form is checked: near resonance and small coupling
WEAK_EPS_MAX = 1e-3
WEAK_DETUNE_MAX = 1e-3
WEAK_REL_TOL = 1e-3


class SteeringSweep(_CsvWorkload):
    name = "steering-sweep"
    cold_argv = ["steering-scan", "--preset", "0.8"]
    cold_rows = 160 * 12

    def make_ops(self):
        # presets, then n, m <= 6 sweeps up to the bound on both sides of resonance
        # (the last epsilon equals the bound and is skipped), then a weak-coupling
        # sweep next to resonance; every invocation writes 1,900-1,960 rows
        ops = [_steering_preset(wy) for wy in (0.99, 0.8, 0.6)]
        ops += [_steering_explicit(wy, wy) for wy in (0.7, 0.9, 1.0, 1.2, 1.6)]
        ops.append(_steering_explicit(0.9999, WEAK_EPS_MAX))
        return ops

    def check(self, captured):
        errors = []
        n_weak = 0
        for op, data, res in captured:
            code, stderr = res.value
            tag = " ".join(op.argv)
            kept = [e for e in op.eps_values if 0.0 <= e < op.omega_y]
            skipped = len(op.eps_values) - len(kept)
            if code != 0:
                errors.append(f"{tag}: exit {code}")
                continue
            if len(data) != len(kept) * len(op.states):
                errors.append(f"{tag}: {len(data)} rows, expected {len(kept) * len(op.states)}")
                continue
            if op.warns and stderr.count("warning: skipping epsilon") != skipped:
                errors.append(f"{tag}: expected {skipped} skip warnings")
            wy, eps, n, m = data[:, 1], data[:, 2], data[:, 3], data[:, 4]
            s_xy, s_yx, delta = data[:, 5], data[:, 6], data[:, 7]
            if np.any(wy != op.omega_y) or not np.array_equal(np.unique(eps), np.unique(kept)):
                errors.append(f"{tag}: parameter columns differ from the request")
            if np.any(s_xy < 0) or np.any(s_yx < 0):
                errors.append(f"{tag}: negative steering value")
            if np.any(np.minimum(s_xy, s_yx) > 1e-12):
                errors.append(f"{tag}: both directions steer (max min "
                              f"{np.max(np.minimum(s_xy, s_yx)):.3e})")
            if np.any(delta != np.abs(s_xy - s_yx)):
                errors.append(f"{tag}: delta != |s_xy - s_yx|")
            null = ((n == 0) & (m == 0)) | (op.omega_y == 1.0)
            if np.any(np.maximum(s_xy, s_yx)[null] > 1e-12):
                errors.append(f"{tag}: steering at resonance or in the ground state")
            if 0.0 < abs(1.0 - op.omega_y) <= WEAK_DETUNE_MAX:
                for row in data[(m == 0) & (n > 0) & (eps <= WEAK_EPS_MAX)]:
                    c, s, _, _ = normal_modes_eigh(1.0, op.omega_y, row[2])
                    want = weak_steering_n0(int(row[3]), abs(s / c))
                    n_weak += 1
                    if want == 0.0:
                        bad = row[5] > 1e-12
                    else:
                        bad = abs(row[5] - want) > WEAK_REL_TOL * want
                    if bad:
                        errors.append(f"{tag}: eps={row[2]} n={int(row[3])} s_xy={row[5]} "
                                      f"vs weak-coupling {want}")
        if n_weak == 0:
            errors.append("no weak-coupling rows were checked")
        return errors


# ---------------------------------------------------------------------------
# wigner-grid


@dataclass(frozen=True)
class WignerOp:
    argv: list
    omega_y: float
    eps: float
    n: int
    m: int
    points: int


def _wigner_op(wy: float, eps: float, n: int, m: int, axes: dict[str, str]) -> WignerOp:
    argv = ["wigner-eval", "--omega-y", repr(wy), "--epsilon", repr(eps),
            "--n", str(n), "--m", str(m)] + [f"--{k}={v}" for k, v in axes.items()]
    points = math.prod(int(v.rsplit(":", 1)[1]) for v in axes.values())
    return WignerOp(argv, wy, eps, n, m, points)


GRID_AXES = {a: "-2:2:11" for a in "xpyq"}                 # 11^4 = 14,641 points
PLANE_AXES = {"x": "-2:2:41", "p": "-2:2:41"}             # 41 x 41 at y = q = 0
WIGNER_SAMPLES = 64
WIGNER_TOL = 1e-12


class WignerGrid(_CsvWorkload):
    name = "wigner-grid"
    cold_argv = ["wigner-eval", "--omega-y", "1", "--epsilon", "0.5", "--n", "1",
                 "--m", "0", "--x=-2:2:41", "--p=-2:2:41"]
    cold_rows = 41 * 41

    def make_ops(self):
        # more 4-D grids than planes, so the median operation is always a grid
        ops = [_wigner_op(0.8, eps, n, m, GRID_AXES)
               for eps in (0.01, 0.76) for n, m in ((1, 0), (3, 2), (6, 6))]
        ops += [_wigner_op(1.0, eps, n, m, PLANE_AXES)
                for eps in (0.01, 0.95) for n, m in ((1, 0), (6, 6))]
        return ops

    def check(self, captured):
        errors = []
        rng = np.random.default_rng(self.seed)
        for op, data, res in captured:
            tag = " ".join(op.argv)
            if res.value[0] != 0 or len(data) != op.points:
                errors.append(f"{tag}: exit {res.value[0]}, {len(data)} of {op.points} rows")
                continue
            pts, w = data[:, :4], data[:, 4]
            if np.any(np.abs(w) > (1.0 + 1e-12) / PI2):
                errors.append(f"{tag}: |W| exceeds 1/pi^2")
            origin = np.all(pts == 0.0, axis=1)
            if not origin.any():
                errors.append(f"{tag}: origin missing from the grid")
            elif np.any(np.abs(w[origin] - (-1.0) ** (op.n + op.m) / PI2) > WIGNER_TOL):
                errors.append(f"{tag}: W(0) = {w[origin][0]}, expected "
                              f"{(-1.0) ** (op.n + op.m) / PI2}")
            c, s, vx, vy = normal_modes_eigh(1.0, op.omega_y, op.eps)
            pick = rng.choice(len(data), size=min(WIGNER_SAMPLES, len(data)), replace=False)
            x, p, y, q = pts[pick].T
            want = (wigner_mode_lagval(op.n, vx, c * x + s * y, c * p + s * q)
                    * wigner_mode_lagval(op.m, vy, -s * x + c * y, -s * p + c * q))
            gap = np.max(np.abs(w[pick] - want))
            if gap > WIGNER_TOL:
                errors.append(f"{tag}: sampled W differs from the separable form by {gap:.3e}")
        return errors


# ---------------------------------------------------------------------------
# verify

VERIFY_CHECKS = {
    "ground-purity-closed-form", "marginal-purity-svd", "global-purity", "moment-table",
    "resonance-steering-null", "weak-coupling-steering", "schmidt-normalization",
    "uncertainty-areas", "excitation-oracle",
}


class Verify(Workload):
    name = "verify"
    cold_argv = ["verify"]
    cold_rows = None

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # held before any rebinding, so the cache can be cleared while traced
        self._rule_cache = oracle.gauss_hermite

    def make_ops(self):
        return ["run_verification"]

    def run_op(self, index, op):
        # a fresh `oscpair verify` builds every quadrature rule; so does each operation
        self._rule_cache.cache_clear()
        return OpResult(value=oracle.run_verification())

    def fingerprint(self, results):
        return repr([[(c.name, c.passed, c.max_deviation) for c in r.value.checks]
                     for r in results])

    def rows(self, results):
        return sum(len(r.value.checks) for r in results)

    def check(self, captured):
        errors = []
        for res in captured:
            report = res.value
            names = [c.name for c in report.checks]
            if set(names) != VERIFY_CHECKS or len(names) != len(VERIFY_CHECKS):
                errors.append(f"verification checks {sorted(names)} differ from the expected 9")
            errors += [f"verification check {c.name} failed: deviation {c.max_deviation:.3e}"
                       for c in report.checks if not c.passed]
        return errors

    def check_cold(self, code, stdout, out_path):
        errors = super().check_cold(code, stdout, out_path)
        if "all checks passed" not in stdout:
            errors.append("cold verify did not report success")
        return errors


WORKLOADS = {w.name: w for w in (PuritySweep, SteeringSweep, WignerGrid, Verify)}
