"""Command-line interface: spectra, moments, Wigner grids, scans, verification.

Sweep output is deterministic and byte-stable: rows are generated in sorted
order, each coupling's states from one call, ``n`` and ``m`` are printed with
``%d`` and floats with ``%.17g``. Rows whose coupling violates ``epsilon <
omega_x*omega_y`` are skipped with a warning on stderr instead of aborting the
sweep; a frequency outside ``SystemParams``'s domain fails before any row.
``--format json`` writes exactly the bytes of ``json.dumps(rows, indent=2)``.
Both formats come from one table writer, ``_write_table``, and an array's
CSV text from ``_g17``.

Only the commands that compute with numpy import it: ``wigner-eval``,
``purity-scan`` and ``verify`` import ``wigner``, ``purity`` or ``oracle``
(and numpy with them) when they run, and ``json`` is imported where JSON is
written. ``spectrum``, ``moments`` and ``steering-scan`` run on the
numpy-free ``model``, ``moments`` and ``steering`` alone; their ranges come
from ``_linspace``, which gives ``numpy.linspace``'s points bit for bit.

``main`` builds its parser on the first call and reuses it for every later
call in the process (the tests, a notebook, the benchmark): a build takes
1–2 ms, about a third of a ``wigner-eval`` call on a 41×41 plane. Called
before numpy is loaded, it sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 where they are unset; ``verify --json`` reports
their values as ``blas_threads``.

Exit codes: 0 success, 1 validation or output error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import operator
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import asdict, fields
from typing import TYPE_CHECKING, TextIO

from .model import QuantumNumbers, SystemParams, _two_product, cutoff_angle, diagonalize, energy
from .moments import second_and_fourth_moments
from .steering import SteeringResult, steering

if TYPE_CHECKING:
    import numpy as np

STEERING_PRESETS = ("0.99", "0.8", "0.6")
_EPSILON_FIELDS = ["omega_x", "omega_y", "epsilon"]
_STATE_FIELDS = ["n", "m"]
_STEERING_FIELDS = [f.name for f in fields(SteeringResult)]
_steering_row = operator.attrgetter(*_STEERING_FIELDS)  # astuple would deep-copy each result
_Axis = tuple[Sequence[str], Sequence[tuple]]  # field names, one tuple per point
_Values = Callable[[SystemParams, list[QuantumNumbers]], list[tuple]]  # one row per state
_BLOCK = 512  # rows per write at most: one whole-table string costs memory
_CHUNK = 4096  # array values per _g17 call: a few numpy passes each, never the whole table


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.linspace(start, stop, num).tolist()`` for ``num >= 1``, bit for bit.

    The same float operations in the same order: ``i*step + start``, or
    ``i/div*delta + start`` where the step underflows to zero (numpy's branch
    for subnormal steps), and ``stop`` as the last point. An overflowing
    span gives points that are not finite, as numpy's do, with no exception.
    """
    div = num - 1
    delta = stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _parse_range(text: str) -> list[float]:
    """Parse ``start:stop:steps`` into a linspace of finite points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like start:stop:steps, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if steps < 1:
        raise ValueError(f"range needs at least one step, got {steps}")
    points = _linspace(start, stop, steps)  # inf, nan or an overflowing span: rejected below
    if not all(map(math.isfinite, points)):
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
    import json

    out.write(json.dumps(payload, indent=2) + "\n")


def _template(fieldnames: Sequence[str]) -> str:
    return ",".join("%d" if name in ("n", "m") else "%.17g" for name in fieldnames)


def _json_values(column: Sequence) -> list[str]:
    """Each value of ``column`` as ``json.dumps`` writes it (``NaN``, ``Infinity`` included)."""
    import json

    return json.dumps(column)[1:-1].split(", ") if len(column) else []


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """``_g17``'s tables, built on first use, as uint64 words in ``"<u8"`` byte order:
    ``0000``..``9999`` (then with trailing zeros as NUL) in the low half and in the high half;
    the sign and ``0.000`` lead at ``2k + sign``, the exponent and ``\n`` at ``k``, and
    ``5**(16-k) = hi + lo`` (to 2**-106) at ``k``, for every ``k = floor(log10|x|)`` below 0."""
    import numpy as np

    quad = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy() + 48  # "0000".."9999"
    kept = np.logical_or.accumulate(quad[:, ::-1] != 48, 1)[:, ::-1]
    digits = np.concatenate([quad, quad * kept]).view("<u4").ravel().astype(np.uint64)
    leads, exps, scales = "", "", []
    for k in range(-324, 0):
        lead, exp = ("", f"e{k:03d}") if k < -4 else ("0." + "0" * (-k - 1), "")
        leads += "".join((sign + lead).ljust(8, "\0") for sign in "\0-")
        exps += (exp + "\n").ljust(8, "\0")
        five = 5 ** (16 - k)
        scales.append((float(five), float(five - int(float(five)))))
    words = [np.frombuffer(text.encode(), "<u8").astype(np.uint64) for text in (leads, exps)]
    return digits, digits << np.uint64(32), *words, *np.array(scales).T


def _g17(x: np.ndarray) -> list[str]:
    """``["%.17g" % v for v in x.tolist()]`` for a 1-d float64 array, with numpy.

    With ``k = floor(log10|x|)``, ``|x| 10**(16-k) = (|x| 2**(16-k)) (hi + lo) = p + r``
    (``p`` exact by ``_two_product``) to about 1e-14: its 17 digits are ``floor`` and a
    rounding bit, laid out as ``d.ddde-XX`` for ``k < -4``, else ``0.000ddd``, in four
    words a value (sign, lead, digit and point; 8 digits; 8 digits; exponent and ``\n``).
    """
    import numpy as np

    digits, digits_hi, leads, exps, his, los = _g17_tables()
    ok = (x != 0) & (abs(x) < 1)
    a = np.where(ok, abs(x), 0.5)
    k = np.floor(np.log10(a)).astype(np.intp)  # a k of 0 would index junk, and fails below
    y = np.ldexp(a, 16 - k)
    p, err = _two_product(y, his[k])
    r = err + y * los[k]
    low = p.astype(np.int64) + np.floor(r).astype(np.int64)
    frac = r - np.floor(r)
    d = low + (frac > 0.5)
    ok &= (abs(frac - 0.5) > 1e-9) & (low >= 10**16) & (d < 10**17) & (k < 0)
    h = (d := np.where(ok, d, 10**16)) // 10**8  # the first digit and the next 8
    first, bottom = h // 10**8, d - h * 10**8
    top = h - first * 10**8
    q0, q2 = top // 10**4, bottom // 10**4
    q1, q3 = top - q0 * 10**4, bottom - q2 * 10**4
    # the first digit, and "." (256 * 46) after it in d.ddde-XX, but not in de-XX
    lead = (first + 48 + 11776 * ((k < -4) & (top + bottom != 0))).astype(np.uint64)
    text = np.empty((len(x), 4), "<u8")  # NULs are dropped, "\n" ends each value
    text[:, 0] = leads[2 * k + np.signbit(x)] | lead << np.uint64(48)
    # a group's trailing zeros go (the second half of a table) where every later group is 0
    text[:, 1] = digits[q0 + 10000 * (q1 + bottom == 0)] | digits_hi[q1 + 10000 * (bottom == 0)]
    text[:, 2] = digits[q2 + 10000 * (q3 == 0)] | digits_hi[q3 + 10000]
    text[:, 3] = exps[k]
    out = text.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    for j in np.flatnonzero(~ok).tolist():
        out[j] = "%.17g" % x[j]
    return out


def _write_table(keys: list[_Axis], names: list[str], values: Sequence[Sequence] | np.ndarray,
                 fmt: str, out: TextIO) -> None:
    """Write a table as CSV or JSON rows.

    ``keys`` are the key axes, each ``(fieldnames, points)`` with one tuple
    per point; the rows run over their product, the last axis fastest, and
    continue with the float fields ``names``, whose ``values`` are rows x
    fields: a sequence of rows, each holding one number per field, or an
    array whose size is the row count times ``len(names)``. Each key point's
    text is formatted once; the trailing axes whose product fits in a block
    give each leading point its rows' key text, and a block of a few leading
    points goes out in one write. A sequence's values become Python floats
    through ``float()``, and one ``%`` fills the block's row templates. An
    array's values become text ``_CHUNK`` at a time, by ``_g17`` (as 64-bit
    words) or ``json.dumps``, and ``str.join`` puts each row together from its
    key text, its values' text and the row template's text around the fields,
    with no ``%s`` fields. Field names must hold no ``%``.
    """
    to_json = fmt == "json"
    if to_json:
        import json

        # the bytes of json.dumps(rows, indent=2): every row opens with ",", and "["
        # takes the first one's place
        def key_template(fieldnames):
            return "".join(f"    {json.dumps(name)}: %s,\n" for name in fieldnames)

        # the value fields close the record: the last one without its ",\n"
        opening, row, mark, cut = ",\n  {\n", key_template(names)[:-2] + "\n  }", "%s", 1
        empty = not math.prod(len(points) for _, points in keys)
        head, tail = "[", "]\n" if empty else "\n]\n"
    else:
        def key_template(fieldnames):
            return _template(fieldnames) + ","

        opening, row, mark, cut = "", _template(names) + "\n", "%.17g", 0
        head = ",".join([name for axis, _ in keys for name in axis] + names) + "\n"
        tail = ""
    texts = []
    for axis, points in keys:
        if to_json:  # each field's values through one json.dumps call
            points = zip(*map(_json_values, zip(*points)))
        template = key_template(axis)
        texts.append([template % point for point in points])
    split = len(keys)  # the axes keys[split:] give each leading point its rows
    while split and math.prod(map(len, texts[split - 1:])) <= _BLOCK:
        split -= 1
    inner = list(map("".join, itertools.product(*texts[split:])))
    per_lead = len(inner)
    leads = map("".join, itertools.product([opening], *texts[:split]))
    if isinstance(values, Sequence):
        inner = [key + row for key in inner]
    else:  # the values' text, _CHUNK values at a time
        step, rows = max(_CHUNK // len(names), 1), values.reshape(-1, len(names))
        text = (lambda chunk: _json_values(chunk.tolist())) if to_json else _g17
        cells = itertools.chain.from_iterable(
            text(rows[i:i + step].ravel()) for i in range(0, len(rows), step))
        before, *between, after = row.split(mark)
        inner = [key + before for key in inner]
        # zip takes a row's fields from the one iterator in turn, the text between them
        # in their places
        seps = [part for sep in between for part in (itertools.repeat(sep), cells)]
        strings = map("".join, zip(cells, *seps)) if seps else cells
    out.write(head)
    start = 0
    # an empty table has no rows per lead, or no leads
    while per_lead and (group := list(itertools.islice(leads, _BLOCK // per_lead))):
        if isinstance(values, Sequence):  # one % fills the fields of the block's rows
            stop = start + len(group) * per_lead
            cells = [float(v) for each in values[start:stop] for v in each]
            block = "".join(lead + lead.join(inner) for lead in group) % tuple(
                _json_values(cells) if to_json else cells)
            start = stop
        else:  # map stops at the end of inner, before it takes the next lead's row
            block = "".join(lead + (after + lead).join(map(operator.add, inner, strings)) + after
                            for lead in group)
        out.write(block[cut:])
        cut = 0
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
            eps_values.append(eps)
        else:
            print(f"warning: skipping epsilon={eps:g} "
                  f"(requires 0 <= epsilon < omega_x*omega_y = {bound:g})", file=sys.stderr)
    states = [QuantumNumbers(n, m) for n in range(args.n_max + 1)
              for m in range(args.m_max + 1)]
    return _sweep(args.omega_x, args.omega_y, eps_values, states, values, names, args.format, out)


def _purity_values(params: SystemParams, states: list[QuantumNumbers]) -> list[tuple]:
    from . import purity

    mu = diagonalize(params).mu
    makarov = [purity.makarov_entropy(nm, mu) for nm in states]
    return [(p, 1.0 - p, slm, 1.0 - p - slm)
            for p, slm in zip(purity._purities([params], states)[0], makarov)]


def _steering_values(params: SystemParams, states: list[QuantumNumbers]) -> list[tuple]:
    return [_steering_row(steering(params, nm)) for nm in states]


def cmd_spectrum(args, out: TextIO) -> int:
    if args.r_scan:
        rates = []
        for r in _parse_range(args.r_scan):
            if r > 0:
                rates.append(r)
            else:
                print(f"warning: skipping r={r:g} (resonance rate must be positive)",
                      file=sys.stderr)
        _write_table([(["r"], [(r,) for r in rates])], ["theta_c"],
                     [(cutoff_angle(r),) for r in rates], args.format, out)
        return 0
    return _scan(args, out, lambda p, states: [(energy(p, nm),) for nm in states], ["energy"])


def cmd_moments(args, out: TextIO) -> int:
    params = SystemParams(args.omega_x, args.omega_y, args.epsilon)
    ms = second_and_fourth_moments(params, QuantumNumbers(args.n, args.m))
    _write_json({"omega_x": args.omega_x, "omega_y": args.omega_y, "epsilon": args.epsilon,
                 "n": args.n, "m": args.m, **asdict(ms)}, out)
    return 0


def cmd_wigner_eval(args, out: TextIO) -> int:
    import numpy as np

    from . import wigner

    modes = diagonalize(SystemParams(args.omega_x, args.omega_y, args.epsilon))
    nm = QuantumNumbers(args.n, args.m)
    axes = [_parse_range(r) for r in (args.x, args.p, args.y, args.q)]
    # on the sparse grid the rotated X, Y take (x, y) and P, Q take (p, q): W comes out full
    grid = wigner.PhasePoint(*np.meshgrid(*axes, indexing="ij", sparse=True))
    w = wigner.wigner_lab(modes, nm, grid)
    keys = [([name], list(zip(axis))) for name, axis in zip("xpyq", axes)]
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
    eps_values = [e for e in _linspace(0.0, omega_y, args.steps) if 0.0 <= e < omega_y]
    states = [QuantumNumbers(n, 0) for n in range(1, args.n_max + 1)]
    states += [QuantumNumbers(0, m) for m in range(1, args.n_max + 1)]
    return _sweep(1.0, omega_y, eps_values, states, _steering_values, _STEERING_FIELDS,
                  args.format, out)


def cmd_verify(args, out: TextIO) -> int:
    from .oracle import run_verification

    report = run_verification()
    if args.json:
        threads = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
        _write_json({**report.as_dict(), "blas_threads": threads}, out)
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


# read once, when numpy loads its BLAS: under OpenBLAS's default threading some fresh
# processes spent about 80 ms in the Schmidt oracle's small SVDs, against about 2 ms
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:  # a user's value wins; a loaded BLAS is left as it is
        for var in _BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
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
