"""Command-line interface: spectra, moments, Wigner grids, scans, verification.

Sweep output is deterministic and byte-stable: rows are generated in
sorted order and floats are printed with 17 significant digits. Rows
whose coupling violates ``epsilon < omega_x*omega_y`` are skipped with a
warning on stderr instead of aborting the sweep.

Exit codes: 0 success, 1 validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import asdict, fields
from typing import Callable, Iterable

import numpy as np

from .model import QuantumNumbers, SystemParams, cutoff_angle, diagonalize, energy
from .moments import second_and_fourth_moments
from .oracle import run_verification
from .purity import makarov_entropy, purity_exact
from .steering import SteeringResult, steering
from .wigner import PhasePoint, wigner_lab

STEERING_PRESETS = ("0.99", "0.8", "0.6")
_SWEEP_FIELDS = ["omega_x", "omega_y", "epsilon", "n", "m"]
_STEERING_FIELDS = [f.name for f in fields(SteeringResult)]
_Columns = Callable[[SystemParams, QuantumNumbers], dict]


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


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _opened(output: str | None):
    return open(output, "w", newline="") if output else contextlib.nullcontext(sys.stdout)


def _write_json(payload, output: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    with _opened(output) as fh:
        fh.write(text)


def _write_rows(rows: Iterable[dict], fieldnames: list[str], fmt: str,
                output: str | None) -> None:
    if fmt == "json":
        _write_json(list(rows), output)
        return
    with _opened(output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([_fmt(row[name]) for name in fieldnames] for row in rows)


def _sweep_rows(omega_x: float, omega_y: float, eps_values: list[float],
                states: list[QuantumNumbers], columns: _Columns) -> list[dict]:
    """Rows of the sweep keys and ``columns(params, nm)`` per epsilon, then state."""
    rows = []
    for eps in eps_values:
        params = SystemParams(omega_x, omega_y, eps)
        rows += [{"omega_x": omega_x, "omega_y": omega_y, "epsilon": eps,
                  "n": nm.n, "m": nm.m, **columns(params, nm)} for nm in states]
    return rows


def _scan(args, columns: _Columns, fieldnames: list[str]) -> int:
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
    rows = _sweep_rows(args.omega_x, args.omega_y, eps_values, states, columns)
    _write_rows(rows, _SWEEP_FIELDS + fieldnames, args.format, args.output)
    return 0


def _purity_columns(params: SystemParams, nm: QuantumNumbers) -> dict:
    res = purity_exact(params, nm)
    slm = makarov_entropy(nm, diagonalize(params).mu)
    return {"purity": res.purity, "S_L": res.linear_entropy,
            "S_L_makarov": slm, "delta_S_L": res.linear_entropy - slm}


def _steering_columns(params: SystemParams, nm: QuantumNumbers) -> dict:
    return asdict(steering(params, nm))


def cmd_spectrum(args) -> int:
    if args.r_scan:
        rows = []
        for r in _parse_range(args.r_scan):
            if r <= 0:
                print(f"warning: skipping r={r:g} (resonance rate must be positive)",
                      file=sys.stderr)
                continue
            rows.append({"r": float(r), "theta_c": cutoff_angle(float(r))})
        _write_rows(rows, ["r", "theta_c"], args.format, args.output)
        return 0
    return _scan(args, lambda params, nm: {"energy": energy(params, nm)}, ["energy"])


def cmd_moments(args) -> int:
    params = SystemParams(args.omega_x, args.omega_y, args.epsilon)
    ms = second_and_fourth_moments(params, QuantumNumbers(args.n, args.m))
    _write_json({"omega_x": args.omega_x, "omega_y": args.omega_y, "epsilon": args.epsilon,
                 "n": args.n, "m": args.m, **asdict(ms)}, args.output)
    return 0


def cmd_wigner_eval(args) -> int:
    modes = diagonalize(SystemParams(args.omega_x, args.omega_y, args.epsilon))
    nm = QuantumNumbers(args.n, args.m)
    axes = np.meshgrid(*(_parse_range(r) for r in (args.x, args.p, args.y, args.q)),
                       indexing="ij")
    w = wigner_lab(modes, nm, PhasePoint(*axes))
    columns = [a.ravel().tolist() for a in (*axes, w)]
    fieldnames = ["x", "p", "y", "q", "W"]
    rows = (dict(zip(fieldnames, values)) for values in zip(*columns))
    _write_rows(rows, fieldnames, args.format, args.output)
    return 0


def cmd_purity_scan(args) -> int:
    return _scan(args, _purity_columns, ["purity", "S_L", "S_L_makarov", "delta_S_L"])


def steering_preset_rows(omega_y: float, n_max: int = 6, steps: int = 161) -> list[dict]:
    """Detuned steering sweep over the ``(n, 0)`` and ``(0, m)`` families.

    ``omega_x = 1`` and ``epsilon`` runs over ``[0, omega_y]``; rows at or
    beyond the stability bound are dropped.
    """
    eps_values = [float(e) for e in np.linspace(0.0, omega_y, steps) if 0.0 <= e < omega_y]
    states = [QuantumNumbers(n, 0) for n in range(1, n_max + 1)]
    states += [QuantumNumbers(0, m) for m in range(1, n_max + 1)]
    return _sweep_rows(1.0, omega_y, eps_values, states, _steering_columns)


def cmd_steering_scan(args) -> int:
    if args.preset:
        rows = steering_preset_rows(float(args.preset), n_max=args.n_max, steps=args.steps)
        _write_rows(rows, _SWEEP_FIELDS + _STEERING_FIELDS, args.format, args.output)
        return 0
    return _scan(args, _steering_columns, _STEERING_FIELDS)


def cmd_verify(args) -> int:
    report = run_verification()
    if args.json:
        sys.stdout.write(json.dumps(report.as_dict(), indent=2) + "\n")
    else:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {check.name}: max deviation {check.max_deviation:.3e} "
                  f"(tolerance {check.tolerance:.1e}) - {check.detail}")
        print(f"{'all checks passed' if report.passed else 'VERIFICATION FAILED'} "
              f"in {report.elapsed_seconds:.1f} s")
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
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
