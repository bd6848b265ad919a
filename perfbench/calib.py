"""Fixed reference computations that tell how fast the machine runs right now.

The benchmark runs on a small machine shared with other tenants, whose load
slows every computation by up to 1.8x: it flips between a fast and a slow
state within a second, and how much of the time it spends slow drifts over
minutes. A run cannot wait that out, so ``run.py`` times a reference
computation next to what it measures and rescales the measured time to the
reference's nominal speed::

    reported = measured * REF / reference_time_nearby

A busy spell stretches the reference and the measured work alike and cancels
out; a change to the program changes the measured work and not the
reference, and shows in full. Neither reference calls anything in
``oscpair``.

- ``kernel()`` rescales in-process operations. It mixes what the workloads
  do: an interpreter loop with float arithmetic and string formatting
  (per-point loops, CSV rows), small-array numpy calls (jets, Laguerre
  recurrences), FFT convolution (``jet_mul``) and a small dense SVD (the
  oracles).
- ``START_ARGV``, a fresh interpreter that imports numpy, rescales the
  fresh-interpreter times (``setup_s``, ``cold_cli_s``). Start-up is process
  creation, file reads and extension loading, and does not follow the
  in-process kernel: rescaled by it, cold starts spread as much as measured
  ones (README.md, Reference speed, gives the spreads).
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.signal import fftconvolve

# nominal times of the two references, about their mean on the machine of
# README.md (Environment); run.py reports seconds at these speeds
REF_S = 0.010
START_ARGV = ["-c", "import numpy"]
REF_START_S = 0.15

_A = np.linspace(-1.0, 1.0, 96)
_M = np.cos(np.outer(np.arange(64.0), np.arange(64.0)) * 0.1)


def kernel() -> float:
    acc = 0.0
    parts = []
    for i in range(8000):
        x = i * 1e-3
        acc += math.exp(-x * x) * (1.0 - 2.0 * x) / (1.0 + x)
        if i % 4 == 0:
            parts.append(f"{x!r},{acc!r}")
    jets = _A
    for _ in range(40):
        jets = np.cumsum(fftconvolve(jets, _A)[:96]) * 1e-3 + _A
        acc += float(np.dot(jets, _A))
    for _ in range(6):
        acc += float(np.linalg.svd(_M, compute_uv=False)[0])
    return acc + len(",".join(parts))


def sample() -> float:
    """One kernel time, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
