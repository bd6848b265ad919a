"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, one pass of the unmodified program must pass the
workload's checks, and one pass with a fault injected into the program
(rebound in every module that holds the function, as the tracer does)
must fail the check named for that fault. Exits 1 if either does not
hold. Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import SCRATCH, _check_passes, _run_passes  # noqa: E402
from spans import rebind, restore  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _offset_purity(orig):
    def faulty(params, nm):
        res = orig(params, nm)
        return dataclasses.replace(res, purity=res.purity + 1e-5,
                                   linear_entropy=res.linear_entropy - 1e-5)
    return faulty


def _swap_steering(orig):
    def faulty(params, nm):
        res = orig(params, nm)
        return dataclasses.replace(res, s_xy=res.s_yx, s_yx=res.s_xy,
                                   s_xy_raw=res.s_yx_raw, s_yx_raw=res.s_xy_raw)
    return faulty


def _flip_wigner(orig):
    def faulty(modes, nm, pt):
        return -orig(modes, nm, pt)
    return faulty


def _skew_moments(orig):
    def faulty(params, nm):
        res = orig(params, nm)
        return dataclasses.replace(res, xx=res.xx * (1.0 + 1e-6))
    return faulty


# workload -> (module, function, fault, text the failing check must contain)
FAULTS = {
    "purity-sweep": ("oscpair.purity", "purity_exact", _offset_purity, "vs quadrature"),
    "steering-sweep": ("oscpair.steering", "steering", _swap_steering, "vs weak-coupling"),
    "wigner-grid": ("oscpair.wigner", "wigner_lab", _flip_wigner, "W(0)"),
    "verify": ("oscpair.moments", "second_and_fourth_moments", _skew_moments,
               "check moment-table failed"),
}


def _one_pass_errors(name: str, workdir: Path) -> list[str]:
    wl = WORKLOADS[name](0, workdir)
    return _check_passes(wl, _run_passes(wl, 0.0))


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    ok = True
    for name, (module, attr, fault, marker) in FAULTS.items():
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            clean = _one_pass_errors(name, Path(tmp))
            original = getattr(sys.modules[module], attr)
            changed = rebind(module, attr, fault(original))
            try:
                faulty = _one_pass_errors(name, Path(tmp))
            finally:
                restore(changed)
        caught = any(marker in err for err in faulty)
        status = "ok" if not clean and caught else "FAIL"
        ok &= status == "ok"
        print(f"{status} {name}: clean pass {len(clean)} errors; "
              f"{attr} fault {len(faulty)} errors, {'caught' if caught else 'missed'} "
              f"by '{marker}'")
        for err in (clean + ([] if caught else faulty))[:5]:
            print(f"    {err}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
