"""Run one oscpair benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
``src/`` next to this directory, and scratch output goes to ``.perfbench/``
at the checkout root. With ``--trace 0`` the result holds the end-to-end
metrics (set-up and cold-CLI times from fresh interpreters, then in-process
passes over the workload); with ``--trace 1`` it holds the per-layer
metrics of a traced run. The last line of standard output is the result;
progress and diagnostics go to standard error. See README.md for the
workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread here and in every interpreter started from here, set
# before numpy loads: the runs stay steady on a small shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
# fresh interpreters timed per run: 3 for setup_s, 7 for cold_cli_s
FRESH_SCHEDULE = ("cold", "setup", "cold") * 3 + ("cold",)
# an end-to-end run times at least this many passes, however long they take
MIN_TIMED_PASSES = 4
# in-process seconds between two samples of the calibration kernel
CAL_EVERY_S = 0.1
IMPORTTIME_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 120
PURITY_PROBE_REPEATS = 5
PURITY_PROBE_PARAMS = (1.0, 0.8, 0.7)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_fresh(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Start-to-exit time of ``python <args>``, run from the checkout root in a
    fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def _run_passes(wl, seconds: float, tracer=None, between=None, warm_up: bool = False,
                min_timed: int = 1):
    """At least ``min_timed`` whole passes over ``wl.ops``, and more until
    their summed time reaches ``seconds``, after an untimed warm-up pass if
    ``warm_up``.

    A pass's time is the sum of its operations' times; fingerprints, counts,
    the calibration kernel and ``between(timed_so_far)``, called before
    every pass, are not timed. The kernel runs before the first operation,
    before any later one once ``CAL_EVERY_S`` has passed since it last ran,
    and after the last, so every operation lies between two kernel samples;
    its time at reference speed, rescaled by the mean of those two, goes to
    the pass's ``"ref"`` list (see calib.py).
    """
    passes = []

    def timed() -> float:
        return sum(p["wall"] for p in passes[int(warm_up):])

    while len(passes) < int(warm_up) + min_timed or timed() < seconds:
        if between:
            between(timed())
        cals = [calib.sample()]
        last_cal = time.perf_counter()
        if tracer:
            tracer.begin_pass()
        lat, results, cal_before = [], [], []
        for index, op in enumerate(wl.ops):
            if index and time.perf_counter() - last_cal >= CAL_EVERY_S:
                cals.append(calib.sample())
                last_cal = time.perf_counter()
            cal_before.append(len(cals) - 1)
            t0 = time.perf_counter()
            res = wl.run_op(index, op)
            lat.append(time.perf_counter() - t0)
            results.append(res)
        if tracer:
            tracer.end_pass()
        cals.append(calib.sample())
        ref = [t * calib.REF_S / ((cals[i] + cals[i + 1]) / 2) for t, i in zip(lat, cal_before)]
        passes.append({"wall": sum(lat), "ref": ref, "results": results,
                       "fingerprint": wl.fingerprint(results)})
        if len(passes) == 1:
            passes[0]["captured"] = wl.capture(results)
            passes[0]["cli"] = wl.cli_output(results)
            passes[0]["rows"] = wl.rows(results)
    return passes


def _op_times(passes) -> list[float]:
    """Each operation's median time at reference speed over the passes."""
    return [statistics.median(times) for times in zip(*(p["ref"] for p in passes))]


def _counts(passes) -> tuple[int, int]:
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p["results"])
    return attempted, failed


def _check_passes(wl, passes) -> list[str]:
    """Check the first pass's outputs; every later pass must reproduce them."""
    errors = wl.check(passes[0]["captured"])
    if any(p["fingerprint"] != passes[0]["fingerprint"] for p in passes):
        errors.append("outputs differ between passes")
    return errors


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _start_ref() -> float:
    """Time of one fresh interpreter running ``calib.START_ARGV``."""
    elapsed, proc = _run_fresh(calib.START_ARGV)
    if proc.returncode != 0:
        raise RuntimeError(f"start-up reference failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def end_to_end(wl, seconds: float) -> dict:
    """End-to-end metrics of one run.

    The fresh interpreters are spread evenly between the passes. Each is
    timed between two runs of the start-up reference and rescaled by their
    mean (see calib.py); the measured times go to standard error.
    """
    fresh = {"setup": [], "cold": []}      # (measured, at reference speed)
    errors = []
    cold_out = wl.workdir / "cold.csv"
    cold_argv = ["-m", "oscpair", *wl.cold_argv]
    if wl.cold_rows is not None:
        cold_argv += ["--output", str(cold_out)]

    def fresh_samples(pass_time: float) -> None:
        before = None
        while sum(map(len, fresh.values())) < len(FRESH_SCHEDULE) and (
                pass_time >= sum(map(len, fresh.values())) * seconds / len(FRESH_SCHEDULE)):
            kind = FRESH_SCHEDULE[sum(map(len, fresh.values()))]
            if before is None:
                before = _start_ref()
            elapsed, proc = _run_fresh(["-c", "import oscpair"] if kind == "setup"
                                       else cold_argv)
            after = _start_ref()
            fresh[kind].append((elapsed, elapsed * calib.REF_START_S / ((before + after) / 2)))
            before = after
            if kind == "cold":
                errors.extend(wl.check_cold(proc.returncode, proc.stdout, cold_out))
            elif proc.returncode != 0:
                errors.append(f"import oscpair failed: {proc.stderr.strip()[-500:]}")

    passes = _run_passes(wl, seconds, between=fresh_samples, warm_up=True,
                         min_timed=MIN_TIMED_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fresh_samples(seconds)
    errors += _check_passes(wl, passes)
    attempted, failed = _counts(passes)
    op_s = _op_times(passes[1:])
    metrics = {
        "setup_s": _metric(statistics.median(ref for _, ref in fresh["setup"]), "s"),
        "cold_cli_s": _metric(statistics.median(ref for _, ref in fresh["cold"]), "s"),
        "wall_s": _metric(sum(op_s), "s"),
        "op_p50_ms": _metric(1e3 * statistics.median(op_s), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    measured = {k: " ".join(f"{t:.3f}" for t, _ in v) for k, v in fresh.items()}
    print(f"{wl.name}: {len(passes)} passes of {len(wl.ops)} operations, the first untimed; "
          f"measured: median pass {statistics.median(p['wall'] for p in passes[1:]):.4g} s, "
          f"set-up {measured['setup']} s, cold {measured['cold']} s", file=sys.stderr)
    return {"errors": errors, "attempted": attempted, "failed": failed, "metrics": metrics}


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times() -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of numpy and scipy under ``import oscpair``.

    A package's time is the cumulative time of its outermost imports, those
    not nested in another import of the same package.
    """
    samples: dict[str, list[float]] = {"numpy": [], "scipy": []}
    for _ in range(IMPORTTIME_SAMPLES):
        _, proc = _run_fresh(["-X", "importtime", "-c", "import oscpair"])
        if proc.returncode != 0:
            raise RuntimeError(f"import oscpair failed: {proc.stderr.strip()[-500:]}")
        lines = [m.groups() for m in map(_IMPORTTIME.match, proc.stderr.splitlines()) if m]
        # importtime prints children before their parent, so walk it reversed
        for pkg in samples:
            total, depth_open = 0, None
            for _self_us, cum_us, indent, name in reversed(lines):
                depth = len(indent)
                if depth_open is not None and depth <= depth_open:
                    depth_open = None
                if depth_open is None and (name == pkg or name.startswith(pkg + ".")):
                    total += int(cum_us)
                    depth_open = depth
            samples[pkg].append(total * 1e-6)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


def purity_probe() -> tuple[list[float], float]:
    """Median ms of ``purity_exact`` at ``n = m = k`` for k = 0..6, and its
    largest gap to the Wigner-quadrature route over those states."""
    import oscpair.model as model
    import oscpair.oracle as oracle
    import oscpair.purity as purity

    params = model.SystemParams(*PURITY_PROBE_PARAMS)
    medians, gap = [], 0.0
    for k in range(7):
        nm = model.QuantumNumbers(k, k)
        value = purity.purity_exact(params, nm).purity
        times = []
        for _ in range(PURITY_PROBE_REPEATS):
            t0 = time.perf_counter()
            purity.purity_exact(params, nm)
            times.append(time.perf_counter() - t0)
        medians.append(1e3 * statistics.median(times))
        gap = max(gap, abs(value - oracle.marginal_purity_quadrature(params, nm)))
    return medians, gap


def per_layer(wl, seconds: float, seed: int) -> dict:
    from spans import Tracer

    imports = import_times()
    probe_ms, abs_err = purity_probe()
    plain = _run_passes(wl, seconds / 2, warm_up=True)
    tracer = Tracer()
    t0 = time.perf_counter()
    tracer.install()
    try:
        traced = _run_passes(wl, seconds / 2, tracer, warm_up=True)
    finally:
        tracer.uninstall()
    errors = _check_passes(wl, plain + traced)
    attempted, failed = _counts(plain + traced)

    spans_path = SCRATCH / f"spans-{wl.name}-seed{seed}.tsv"
    n_spans = tracer.write_spans(spans_path, t0)
    print(f"{wl.name}: {len(plain)} untraced and {len(traced)} traced passes; "
          f"{n_spans} spans of the first traced pass in {spans_path}", file=sys.stderr)

    stats = tracer.per_pass()

    def med(fn) -> float:
        return statistics.median(fn(s) for s in stats)

    def self_s(*names) -> float:
        return med(lambda s: sum(s[n]["self_s"] for n in names))

    first = stats[0]
    calls = {n: first[n]["calls"] for n in tracer.names}
    points = first["counters"].get("wigner.points", 0)
    cli_rows, cli_bytes = traced[0]["cli"]
    rows = traced[0]["rows"]
    specfun = [n for n in tracer.names if n.startswith("specfun.")]
    metrics = {
        "import.scipy_s": _metric(imports["scipy"], "s"),
        "import.numpy_s": _metric(imports["numpy"], "s"),
        "model.calls": _metric(calls["model"], "count"),
        "model.self_s": _metric(self_s("model"), "s"),
        "model.calls_per_row": _metric(calls["model"] / rows if rows else 0.0, "calls/row"),
        "moments.calls": _metric(calls["moments"], "count"),
        "moments.self_s": _metric(self_s("moments"), "s"),
        "steering.calls": _metric(calls["steering"], "count"),
        "steering.self_s": _metric(self_s("steering"), "s"),
        "purity.exact.calls": _metric(calls["purity.exact"], "count"),
        "purity.exact.self_s": _metric(self_s("purity.exact"), "s"),
        "purity.makarov.self_s": _metric(self_s("purity.makarov"), "s"),
        **{f"purity.exact_ms.k{k}": _metric(ms, "ms") for k, ms in enumerate(probe_ms)},
        "purity.abs_err_max": _metric(abs_err, "1"),
        "series.calls": _metric(calls["series"], "count"),
        "series.self_s": _metric(self_s("series"), "s"),
        "specfun.laguerre.calls": _metric(calls["specfun.laguerre"], "count"),
        "specfun.self_s": _metric(self_s(*specfun), "s"),
        "specfun.jacobi.self_s": _metric(self_s("specfun.jacobi"), "s"),
        "wigner.calls": _metric(calls["wigner"], "count"),
        "wigner.points": _metric(points, "count"),
        "wigner.points_per_call": _metric(points / calls["wigner"] if calls["wigner"] else 0.0,
                                          "points/call"),
        "wigner.self_s": _metric(self_s("wigner"), "s"),
        "oracle.schmidt.self_s": _metric(self_s("oracle.schmidt"), "s"),
        "oracle.moment.self_s": _metric(self_s("oracle.moment"), "s"),
        "oracle.global_purity.self_s": _metric(self_s("oracle.global_purity"), "s"),
        "oracle.gauss_hermite.self_s": _metric(self_s("oracle.gauss_hermite"), "s"),
        "cli.self_s": _metric(self_s("cli"), "s"),
        "cli.rows": _metric(cli_rows, "count"),
        "cli.bytes": _metric(cli_bytes, "B"),
        "trace.overhead_s": _metric(sum(_op_times(traced[1:])) - sum(_op_times(plain[1:])),
                                    "s"),
    }
    return {"errors": errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oscpair" / "__init__.py").is_file():
        print(f"error: no oscpair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        run = (per_layer(wl, args.seconds, args.seed) if args.trace
               else end_to_end(wl, args.seconds))
    for err in run["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": not run["errors"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": run["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
