"""Command-line interface: spectra, moments, Wigner grids, scans, verification.

Sweep output is deterministic and byte-stable: rows are generated in sorted
order, each coupling's states from one call, ``n`` and ``m`` are printed with
``%d`` and floats with ``%.17g``. Rows whose coupling violates ``epsilon <
omega_x*omega_y`` are skipped with a warning on stderr instead of aborting the
sweep; a frequency outside ``SystemParams``'s domain fails before any row.
``--format json`` writes exactly the bytes of ``json.dumps(rows, indent=2)``.
Both formats come from one table writer: each key point's text is formatted
once, and the float values become Python floats one block of at most
``_BLOCK`` rows at a time.

``main`` builds its parser on the first call and reuses it for every later
call in the process (the tests, a notebook, the benchmark): a build takes
1–2 ms, about a third of a ``wigner-eval`` call on a 41×41 plane.

Exit codes: 0 success, 1 validation or output error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import asdict, fields
from typing import Callable, Sequence, TextIO

import numpy as np

from .model import QuantumNumbers, SystemParams, cutoff_angle, diagonalize, energy
from .moments import second_and_fourth_moments
from .oracle import run_verification
from .purity import _purities, makarov_entropy
from .steering import SteeringResult, steering
from .wigner import PhasePoint, wigner_lab

STEERING_PRESETS = ("0.99", "0.8", "0.6")
_EPSILON_FIELDS = ["omega_x", "omega_y", "epsilon"]
_STATE_FIELDS = ["n", "m"]
_STEERING_FIELDS = [f.name for f in fields(SteeringResult)]
_steering_row = operator.attrgetter(*_STEERING_FIELDS)  # astuple would deep-copy each result
_Axis = tuple[Sequence[str], Sequence[tuple]]  # field names, one tuple per point
_Values = Callable[[SystemParams, list[QuantumNumbers]], list[tuple]]  # one row per state
_BLOCK = 512  # rows per write at most: one whole-table string costs memory


def _parse_range(text: str) -> np.ndarray:
    """Parse ``start:stop:steps`` into a linspace of finite points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like start:stop:steps, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if steps < 1:
        raise ValueError(f"range needs at least one step, got {steps}")
    with np.errstate(all="ignore"):  # inf, nan or an overflowing span: rejected below
        points = np.linspace(start, stop, steps)
    if not np.isfinite(points).all():
        raise ValueError(f"range has a point that is not finite: {text!r}")
    return points


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


def _json_values(column: Sequence) -> list[str]:
    """Each value of ``column`` as ``json.dumps`` writes it (``NaN``, ``Infinity`` included)."""
    return json.dumps(column)[1:-1].split(", ") if len(column) else []


def _write_table(keys: list[_Axis], names: list[str], values: np.ndarray | Sequence, fmt: str,
                 out: TextIO) -> None:
    """Write a table as CSV or JSON rows.

    ``keys`` are the key axes, each ``(fieldnames, points)`` with one tuple
    per point; the rows run over their product, the last axis fastest, and
    continue with the float fields ``names``, whose ``values`` are one array
    of rows x fields. Each key point's text is formatted once. The trailing
    axes whose product fits in a block, and the value fields, make one row
    template per table; a block splices a few leading points' text in front
    of every row of it, is filled by one ``%`` and written at once. Field
    names must hold no ``%``.
    """
    to_json = fmt == "json"
    values = np.asarray(values, dtype=float).reshape(-1, len(names))
    if to_json:
        # the bytes of json.dumps(rows, indent=2): every row opens with ",", and "["
        # takes the first one's place
        def key_template(fieldnames):
            return "".join(f"    {json.dumps(name)}: %s,\n" for name in fieldnames)

        # the value fields close the record: the last one without its ",\n"
        opening, row, cut = ",\n  {\n", key_template(names)[:-2] + "\n  }", 1
        empty = not math.prod(len(points) for _, points in keys)
        head, tail = "[", "]\n" if empty else "\n]\n"
    else:
        def key_template(fieldnames):
            return _template(fieldnames) + ","

        opening, row, cut = "", _template(names) + "\n", 0
        head = ",".join([name for axis, _ in keys for name in axis] + names) + "\n"
        tail = ""
    texts = []
    for axis, points in keys:
        if to_json:  # each field's values through one json.dumps call
            points = zip(*map(_json_values, zip(*points)))
        template = key_template(axis)
        texts.append([template % point for point in points])
    split = len(keys)  # the axes keys[split:] go into the row template
    while split and math.prod(map(len, texts[split - 1:])) <= _BLOCK:
        split -= 1
    # joined by a leading point's text, this puts that text in front of every row
    inner = [""] + list(map("".join, itertools.product(*texts[split:], [row])))
    per_lead = len(inner) - 1
    leads = map("".join, itertools.product([opening], *texts[:split]))
    out.write(head)
    start = 0
    # an empty table has no rows per lead, and one lead
    while group := list(itertools.islice(leads, _BLOCK // max(per_lead, 1))):
        stop = start + len(group) * per_lead
        cells = values[start:stop].ravel().tolist()
        if to_json:
            cells = _json_values(cells)
        block = "".join(lead.join(inner) for lead in group) % tuple(cells)
        out.write(block[cut:])
        cut, start = 0, stop
    out.write(tail)


def _sweep(omega_x: float, omega_y: float, eps_values: list[float], states: list[QuantumNumbers],
           values: _Values, names: list[str], fmt: str, out: TextIO) -> int:
    """Write the table of ``values(params, states)``: one call, one row per state, per epsilon."""
    rows = []
    for eps in eps_values:
        rows += values(SystemParams(omega_x, omega_y, eps), states)
    keys = [(_EPSILON_FIELDS, [(omega_x, omega_y, eps) for eps in eps_values]),
            (_STATE_FIELDS, [(nm.n, nm.m) for nm in states])]
    _write_table(keys, names, rows, fmt, out)
    return 0


def _scan(args, out: TextIO, values: _Values, names: list[str]) -> int:
    """Write the sweep over ``--epsilon`` and the ``--n-max`` x ``--m-max`` grid."""
    SystemParams(args.omega_x, args.omega_y)  # invalid frequencies fail here, not row by row
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
    return _sweep(args.omega_x, args.omega_y, eps_values, states, values, names, args.format, out)


def _purity_values(params: SystemParams, states: list[QuantumNumbers]) -> list[tuple]:
    mu = diagonalize(params).mu
    makarov = [makarov_entropy(nm, mu) for nm in states]
    return [(p, 1.0 - p, slm, 1.0 - p - slm) for p, slm in zip(_purities(params, states), makarov)]


def _steering_values(params: SystemParams, states: list[QuantumNumbers]) -> list[tuple]:
    return [_steering_row(steering(params, nm)) for nm in states]


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
                     [cutoff_angle(r) for r in rates], args.format, out)
        return 0
    return _scan(args, out, lambda p, states: [(energy(p, nm),) for nm in states], ["energy"])


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
    # on the sparse grid the rotated X, Y take (x, y) and P, Q take (p, q): W comes out full
    w = wigner_lab(modes, nm, PhasePoint(*np.meshgrid(*axes, indexing="ij", sparse=True)))
    keys = [([name], list(zip(axis.tolist()))) for name, axis in zip("xpyq", axes)]
    _write_table(keys, ["W"], w, args.format, out)
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
    return _sweep(1.0, omega_y, eps_values, states, _steering_values, _STEERING_FIELDS,
                  args.format, out)


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
              f"in {report.elapsed_seconds * 1e3:.0f} ms", file=out)
    return 0 if report.passed else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``oscpair`` parser, built on the first call and shared by every later one.

    Parsing leaves the parser unchanged, so one per process serves every
    ``main`` call. It holds the ``cmd_*`` functions bound by ``set_defaults``
    at the first call; each looks up the layer functions it calls (and
    ``_BLOCK``) at call time.
    """
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
                   help="detuned sweep: omega_x=1, omega_y=PRESET, the (n,0) and (0,n) families "
                        "up to --n-max; ignores --omega-x, --omega-y, --epsilon, --m-max")
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
