"""In-memory span tracer that wraps the public entry points of each oscpair layer.

A layer's functions are rebound to wrappers in the module that defines
them and in every other ``oscpair`` module that imported them by name
(``oscpair.cli.purity_exact`` and ``oscpair.purity.purity_exact`` are
separate bindings, and ``oscpair.oracle.compute_steering`` is an alias).
Each wrapper records a span ``(name, start, end, parent)``; a call made
while the innermost open span already belongs to the same name runs
unwrapped, so a span is one call *into* a layer and nested helpers of
the same layer (``wigner_lab`` -> ``wigner_rotated``) are its self time.

Spans live in flat arrays while the workload runs; self time (a span's
duration minus its children's) and per-pass totals are derived after
the traced passes end. Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> (module, public functions, counter fed by the result size).
# Every public function has a span, reported or not, so that no layer's time
# is counted in its caller's self time.
LAYERS = {
    "model": ("oscpair.model", ("diagonalize", "energy", "cutoff_angle"), None),
    "moments": ("oscpair.moments", ("second_and_fourth_moments", "uncertainty_areas",
                                    "excitation_numbers", "ladder_moments"), None),
    "steering": ("oscpair.steering", ("steering", "steering_weak_general",
                                      "selection_rules"), None),
    "purity.exact": ("oscpair.purity", ("purity_exact",), None),
    "purity.makarov": ("oscpair.purity", ("makarov_schmidt", "makarov_entropy"), None),
    "purity.other": ("oscpair.purity", ("purity_ground_closed", "entropy_gap"), None),
    "series": ("oscpair.series", ("jet_add", "jet_scale", "jet_mul", "jet_reciprocal",
                                  "jet_sqrt", "jet_inv_sqrt", "coefficient"), None),
    "specfun.laguerre": ("oscpair.specfun", ("laguerre",), None),
    "specfun.jacobi": ("oscpair.specfun", ("jacobi_negparam", "binomial_general"), None),
    "specfun.hermite": ("oscpair.specfun", ("hermite", "hermite_function"), None),
    "wigner": ("oscpair.wigner", ("wigner_lab", "wigner_rotated", "wigner_mode",
                                  "eigenfunction", "lab_to_normal", "normal_to_lab"),
               "wigner.points"),
    "oracle.schmidt": ("oscpair.oracle", ("schmidt_oracle",), None),
    "oracle.moment": ("oscpair.oracle", ("moment_oracle", "moment_set_oracle",
                                         "ladder_oracle"), None),
    "oracle.global_purity": ("oscpair.oracle", ("global_purity_check",), None),
    "oracle.gauss_hermite": ("oscpair.oracle", ("gauss_hermite",), None),
    "oracle.marginal": ("oscpair.oracle", ("marginal_purity_quadrature",), None),
    "oracle.verify": ("oscpair.oracle", ("run_verification",), None),
    "cli": ("oscpair.cli", ("main",), None),
}


def rebind(module_name: str, attr: str, replacement) -> list[tuple[object, str, object]]:
    """Point every ``oscpair`` binding of ``module.attr`` at ``replacement``.

    Returns the ``(namespace, key, original)`` triples that :func:`restore`
    undoes.
    """
    original = getattr(importlib.import_module(module_name), attr)
    changed = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "oscpair" or name.startswith("oscpair.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                changed.append((mod, key, original))
    return changed


def restore(changed: list[tuple[object, str, object]]) -> None:
    for mod, key, original in reversed(changed):
        setattr(mod, key, original)


class Tracer:
    """Records spans around every layer call while installed."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self._name_idx = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[tuple[int, int]] = []
        self._counts: dict[str, int] = defaultdict(int)
        self._pass_bounds: list[tuple[int, int, dict[str, int]]] = []
        self._pass_open: tuple[int, dict[str, int]] | None = None
        self._changed: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name_id, (module, attrs, counter) in enumerate(LAYERS.values()):
            for attr in attrs:
                fn = getattr(importlib.import_module(module), attr)
                self._changed += rebind(module, attr, self._wrap(name_id, fn, counter))

    def uninstall(self) -> None:
        restore(self._changed)
        self._changed = []

    def _wrap(self, name_id: int, fn, counter: str | None):
        stack, counts = self._stack, self._counts
        name_idx, parent, start, end = self._name_idx, self._parent, self._start, self._end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name_id:
                return fn(*args, **kwargs)
            idx = len(start)
            name_idx.append(name_id)
            parent.append(stack[-1][1] if stack else -1)
            end.append(0.0)
            stack.append((name_id, idx))
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] += getattr(result, "size", 1)
            return result

        return traced

    # -- passes ---------------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_open = (len(self._start), dict(self._counts))

    def end_pass(self) -> None:
        first, counts_before = self._pass_open
        delta = {k: v - counts_before.get(k, 0) for k, v in self._counts.items()}
        self._pass_bounds.append((first, len(self._start), delta))
        self._pass_open = None

    # -- results --------------------------------------------------------------

    def per_pass(self) -> list[dict[str, dict[str, float]]]:
        """For each traced pass: ``{span name: {"calls", "self_s"}}`` plus counters."""
        names = np.frombuffer(self._name_idx, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = []
        for first, last, counts in self._pass_bounds:
            sel = slice(first, last)
            calls = np.bincount(names[sel], minlength=len(self.names))
            selfs = np.bincount(names[sel], weights=self_time[sel], minlength=len(self.names))
            stats = {n: {"calls": int(calls[i]), "self_s": float(selfs[i])}
                     for i, n in enumerate(self.names)}
            stats["counters"] = dict(counts)
            out.append(stats)
        return out

    def write_spans(self, path, t0: float) -> int:
        """Write the first traced pass's spans as TSV; returns the span count."""
        first, last, _ = self._pass_bounds[0]
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(first, last):
                fh.write(f"{i - first}\t{self.names[self._name_idx[i]]}\t"
                         f"{self._start[i] - t0:.9f}\t{self._end[i] - t0:.9f}\t"
                         f"{self._parent[i] - first if self._parent[i] >= 0 else -1}\n")
        return last - first
