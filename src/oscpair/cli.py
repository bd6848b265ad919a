"""Command-line interface: spectra, moments, Wigner grids, scans, verification.

Sweep output is deterministic and byte-stable: rows are generated in
sorted order, ``n`` and ``m`` are printed with ``%d`` and floats with ``%.17g``. Rows
whose coupling violates ``epsilon < omega_x*omega_y`` are skipped with a
warning on stderr instead of aborting the sweep.

Exit codes: 0 success, 1 validation or output error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from dataclasses import asdict, astuple, fields
from typing import Callable, Sequence, TextIO

import numpy as np

from .model import QuantumNumbers, SystemParams, cutoff_angle, diagonalize, energy
from .moments import second_and_fourth_moments
from .oracle import run_verification
from .purity import makarov_entropy, purity_exact
from .steering import SteeringResult, steering
from .wigner import PhasePoint, wigner_lab

STEERING_PRESETS = ("0.99", "0.8", "0.6")
_EPSILON_FIELDS = ["omega_x", "omega_y", "epsilon"]
_STATE_FIELDS = ["n", "m"]
_STEERING_FIELDS = [f.name for f in fields(SteeringResult)]
_Axis = tuple[Sequence[str], Sequence[tuple]]  # field names, one tuple per point
_Values = Callable[[SystemParams, QuantumNumbers], tuple]
_BLOCK = 1024  # rows per formatted block: one whole-table string costs memory


def _parse_range(text: str) -> np.ndarray:
    """Parse ``start:stop:steps`` into a linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like start:stop:steps, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if steps < 1:
        raise ValueError(f"range needs at least one step, got {steps}")
    return np.linspace(start, stop, steps)


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for an integer option that must be ``>= low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


def _opened(output: str | None):
    return open(output, "w", newline="") if output else contextlib.nullcontext(sys.stdout)


def _write_json(payload, out: TextIO) -> None:
    out.write(json.dumps(payload, indent=2) + "\n")


def _template(fieldnames: Sequence[str]) -> str:
    return ",".join("%d" if name in ("n", "m") else "%.17g" for name in fieldnames)


def _write_table(keys: list[_Axis], names: list[str], columns: Sequence[Sequence], fmt: str,
                 out: TextIO) -> None:
    """Write a table as CSV or JSON rows.

    ``keys`` are the key axes, each ``(fieldnames, points)`` with one tuple
    per point; the rows run over their product, the last axis fastest, and
    continue with the value ``columns`` named ``names``. Each key point is
    formatted once.
    """
    fieldnames = [name for axis, _ in keys for name in axis] + names
    if fmt == "json":
        points = itertools.product(*(points for _, points in keys))
        _write_json([dict(zip(fieldnames, (*sum(key, ()), *values)))
                     for key, *values in zip(points, *columns)], out)
        return
    key_text = [[_template(axis) % point + "," for point in points] for axis, points in keys]
    rows = zip(map("".join, itertools.product(*key_text)), *columns)
    template = "%s" + _template(names) + "\n"
    out.write(",".join(fieldnames) + "\n")
    while block := list(itertools.islice(rows, _BLOCK)):
        out.write(template * len(block) % tuple(itertools.chain.from_iterable(block)))


def _sweep(omega_x: float, omega_y: float, eps_values: list[float],
           states: list[QuantumNumbers], values: _Values) -> tuple[list[_Axis], list[tuple]]:
    """Key axes and value columns of ``values(params, nm)`` per epsilon, then state."""
    rows = []
    for eps in eps_values:
        params = SystemParams(omega_x, omega_y, eps)
        rows += [values(params, nm) for nm in states]
    keys = [(_EPSILON_FIELDS, [(omega_x, omega_y, eps) for eps in eps_values]),
            (_STATE_FIELDS, [(nm.n, nm.m) for nm in states])]
    return keys, list(zip(*rows))


def _scan(args, out: TextIO, values: _Values, names: list[str]) -> int:
    """Write the sweep over ``--epsilon`` and the ``--n-max`` x ``--m-max`` grid."""
    bound = args.omega_x * args.omega_y
    eps_values = []
    for eps in _parse_range(args.epsilon):
        if 0.0 <= eps < bound:
            eps_values.append(float(eps))
        else:
            print(f"warning: skipping epsilon={eps:g} "
                  f"(requires 0 <= epsilon < omega_x*omega_y = {bound:g})", file=sys.stderr)
    states = [QuantumNumbers(n, m) for n in range(args.n_max + 1)
              for m in range(args.m_max + 1)]
    keys, columns = _sweep(args.omega_x, args.omega_y, eps_values, states, values)
    _write_table(keys, names, columns, args.format, out)
    return 0


def _purity_values(params: SystemParams, nm: QuantumNumbers) -> tuple:
    res = purity_exact(params, nm)
    slm = makarov_entropy(nm, diagonalize(params).mu)
    return res.purity, res.linear_entropy, slm, res.linear_entropy - slm


def _steering_values(params: SystemParams, nm: QuantumNumbers) -> tuple:
    return astuple(steering(params, nm))


def cmd_spectrum(args, out: TextIO) -> int:
    if args.r_scan:
        rates = []
        for r in _parse_range(args.r_scan):
            if r > 0:
                rates.append(float(r))
            else:
                print(f"warning: skipping r={r:g} (resonance rate must be positive)",
                      file=sys.stderr)
        _write_table([(["r"], [(r,) for r in rates])], ["theta_c"],
                     [[cutoff_angle(r) for r in rates]], args.format, out)
        return 0
    return _scan(args, out, lambda params, nm: (energy(params, nm),), ["energy"])


def cmd_moments(args, out: TextIO) -> int:
    params = SystemParams(args.omega_x, args.omega_y, args.epsilon)
    ms = second_and_fourth_moments(params, QuantumNumbers(args.n, args.m))
    _write_json({"omega_x": args.omega_x, "omega_y": args.omega_y, "epsilon": args.epsilon,
                 "n": args.n, "m": args.m, **asdict(ms)}, out)
    return 0


def cmd_wigner_eval(args, out: TextIO) -> int:
    modes = diagonalize(SystemParams(args.omega_x, args.omega_y, args.epsilon))
    nm = QuantumNumbers(args.n, args.m)
    axes = [_parse_range(r) for r in (args.x, args.p, args.y, args.q)]
    w = wigner_lab(modes, nm, PhasePoint(*np.meshgrid(*axes, indexing="ij")))
    keys = [([name], list(zip(axis.tolist()))) for name, axis in zip("xpyq", axes)]
    _write_table(keys, ["W"], [w.ravel().tolist()], args.format, out)
    return 0


def cmd_purity_scan(args, out: TextIO) -> int:
    return _scan(args, out, _purity_values, ["purity", "S_L", "S_L_makarov", "delta_S_L"])


def cmd_steering_scan(args, out: TextIO) -> int:
    if not args.preset:
        return _scan(args, out, _steering_values, _STEERING_FIELDS)
    # the detuned sweep over the (n, 0) and (0, m) families: omega_x = 1 and
    # epsilon over [0, omega_y], without the rows at or beyond the stability bound
    omega_y = float(args.preset)
    eps_values = [float(e) for e in np.linspace(0.0, omega_y, args.steps) if 0.0 <= e < omega_y]
    states = [QuantumNumbers(n, 0) for n in range(1, args.n_max + 1)]
    states += [QuantumNumbers(0, m) for m in range(1, args.n_max + 1)]
    keys, columns = _sweep(1.0, omega_y, eps_values, states, _steering_values)
    _write_table(keys, _STEERING_FIELDS, columns, args.format, out)
    return 0


def cmd_verify(args, out: TextIO) -> int:
    report = run_verification()
    if args.json:
        _write_json(report.as_dict(), out)
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {check.name}: max deviation {check.max_deviation:.3e} "
                  f"(tolerance {check.tolerance:.1e}) - {check.detail}", file=out)
        print(f"{'all checks passed' if report.passed else 'VERIFICATION FAILED'} "
              f"in {report.elapsed_seconds:.1f} s", file=out)
    return 0 if report.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscpair",
        description="Spectra, Wigner functions, moments, purity and steering "
                    "of two bilinearly coupled harmonic oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sweep: bool = True) -> None:
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        if sweep:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    def physical(p: argparse.ArgumentParser) -> None:
        p.add_argument("--omega-x", type=float, default=1.0)
        p.add_argument("--omega-y", type=float, default=1.0)

    def grid(p: argparse.ArgumentParser, epsilon: str, n_max: int) -> None:
        p.add_argument("--epsilon", default=epsilon, metavar="A:B:STEPS")
        p.add_argument("--n-max", type=_int_at_least(0), default=n_max)
        p.add_argument("--m-max", type=_int_at_least(0), default=n_max)

    p = sub.add_parser("spectrum", help="cutoff-angle scan or eigenenergy table")
    physical(p)
    p.add_argument("--r-scan", default=None, metavar="A:B:STEPS",
                   help="emit (r, theta_c) rows over this resonance-rate range")
    grid(p, "0:0:1", 2)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("moments", help="moment table of one state as JSON")
    physical(p)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    common(p, sweep=False)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("wigner-eval", help="Wigner function on a phase-space grid")
    physical(p)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    for axis in ("x", "p", "y", "q"):
        p.add_argument(f"--{axis}", default="0:0:1", metavar="A:B:STEPS")
    common(p)
    p.set_defaults(func=cmd_wigner_eval)

    p = sub.add_parser("purity-scan", help="purity / linear entropy sweep")
    physical(p)
    grid(p, "0:0.9:10", 3)
    common(p)
    p.set_defaults(func=cmd_purity_scan)

    p = sub.add_parser("steering-scan", help="directional steering sweep")
    physical(p)
    grid(p, "0:0.9:10", 6)
    p.add_argument("--preset", choices=STEERING_PRESETS, default=None,
                   help="detuned sweep with omega_x=1, omega_y=PRESET over the "
                        "(n,0) and (0,m) families")
    p.add_argument("--steps", type=_int_at_least(1), default=161,
                   help="epsilon steps for --preset sweeps")
    common(p)
    p.set_defaults(func=cmd_steering_scan)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # opened before the command runs, so an unwritable path fails before any sweep
        with _opened(getattr(args, "output", None)) as out:
            return args.func(args, out)
    except BrokenPipeError:  # the reader has gone, as under `| head`: nothing to tell it
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
