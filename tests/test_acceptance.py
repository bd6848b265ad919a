"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the observed worst deviation so the
suite doubles as a verification report (`pytest -s tests/test_acceptance.py`).
"""

import json
import math
import time

import numpy as np
import pytest

from oscpair import (
    QuantumNumbers,
    SystemParams,
    diagonalize,
    entropy_gap,
    excitation_numbers,
    global_purity_check,
    makarov_entropy,
    makarov_schmidt,
    purity_exact,
    purity_ground_closed,
    schmidt_oracle,
    steering,
    steering_weak_general,
    uncertainty_areas,
)
from oscpair.cli import main
from oscpair.moments import second_and_fourth_moments
from oscpair.oracle import ladder_oracle, moment_set_oracle

MOMENT_NAMES = ("xx", "yy", "pp", "qq", "xy", "pq", "xxyy", "ppqq", "xxqq", "yypp")


def reference_grid():
    """omega_x = 1, omega_y in {0.6, 0.8, 0.99, 1}, ten couplings each."""
    out = []
    for wy in (0.6, 0.8, 0.99, 1.0):
        for eps in np.linspace(0.1, 0.95 * wy, 10):
            out.append(SystemParams(1.0, wy, float(eps)))
    return out


def states(limit):
    return [QuantumNumbers(n, m) for n in range(limit + 1) for m in range(limit + 1)]


def report(num, name, dev, tol):
    print(f"ACCEPTANCE {num:02d} {name}: PASS (worst deviation {dev:.3e}, tolerance {tol:g})")


def test_criterion_01_ground_state_consistency():
    dev = max(
        abs(purity_exact(p, QuantumNumbers(0, 0)).purity - purity_ground_closed(p).purity)
        for p in reference_grid()
    )
    assert dev <= 1e-10
    report(1, "exact (0,0) purity equals ground closed form", dev, 1e-10)


def test_criterion_02_oracle_equivalence_under_60s():
    start = time.perf_counter()
    dev = max(
        abs(purity_exact(p, q).purity - schmidt_oracle(p, q).purity)
        for p in reference_grid()
        for q in states(3)
    )
    elapsed = time.perf_counter() - start
    assert dev <= 1e-12
    assert elapsed < 60.0
    report(2, f"purity vs Schmidt oracle in {elapsed:.1f}s", dev, 1e-12)


def test_criterion_03_global_purity():
    dev = max(
        abs(global_purity_check(p, q) - 1.0)
        for p in reference_grid()
        for q in states(3)
    )
    assert dev <= 1e-8
    report(3, "4pi^2 integral of W^2 equals 1", dev, 1e-8)


def test_criterion_04_moment_table():
    dev = 0.0
    for p in reference_grid():
        for q in states(3):
            ms = second_and_fourth_moments(p, q)
            ref = moment_set_oracle(p, q)
            for name in MOMENT_NAMES:
                got, want = getattr(ms, name), ref[name]
                assert np.isclose(got, want, rtol=1e-10, atol=1e-12), (name, p, q)
                dev = max(dev, abs(got - want) / max(abs(want), 1e-2))
    report(4, "ten closed-form moments vs quadrature (rel)", dev, 1e-10)


def test_criterion_05_resonance_null():
    for eps in np.linspace(0.1, 0.95, 10):
        p = SystemParams(1.0, 1.0, float(eps))
        for q in states(6):
            res = steering(p, q)
            assert res.s_xy == 0.0
            assert res.s_yx == 0.0
    report(5, "resonant steering exactly zero after clamp", 0.0, 0.0)


def test_criterion_06_weak_coupling_match():
    eps = 1e-4
    dev = 0.0
    for mu_target in (0.25, 0.5, 0.75):
        detune = eps * (1.0 - mu_target**2) / mu_target
        p = SystemParams(1.0, math.sqrt(1.0 - detune), eps)
        mu = diagonalize(p).mu
        for k in range(1, 7):
            want = steering_weak_general(QuantumNumbers(k, 0), mu)
            got_xy = steering(p, QuantumNumbers(k, 0)).s_xy
            got_yx = steering(p, QuantumNumbers(0, k)).s_yx
            dev = max(dev, abs(got_xy - want) / want, abs(got_yx - want) / want)
    assert dev <= 1e-3
    report(6, "full steering vs weak closed form (rel)", dev, 1e-3)


def test_criterion_07_sixteenth_quantization():
    mu = math.sqrt(3.0) / 3.0
    dev = 0.0
    values = [steering_weak_general(QuantumNumbers(n, 0), mu) for n in range(1, 8)]
    for n, v in enumerate(values, start=1):
        dev = max(dev, abs(v - n / 16.0) / (n / 16.0))
    for a, b in zip(values, values[1:]):
        dev = max(dev, abs((b - a) - 1.0 / 16.0) * 16.0)
    assert dev <= 1e-12
    report(7, "weak steering quantized in units of 1/16", dev, 1e-12)


def preset_rows(tmp_path, omega_y):
    """The records of ``oscpair steering-scan --preset omega_y --format json``.

    Read from a file, not stdout, so that the PASS line still prints under ``-s``.
    """
    path = tmp_path / f"preset-{omega_y}.json"
    assert main(["steering-scan", "--preset", omega_y, "--format", "json",
                 "--output", str(path)]) == 0
    return json.loads(path.read_text())


def test_criterion_08_detuned_magnitude(tmp_path):
    rows = preset_rows(tmp_path, "0.8")
    peak = max(max(r["s_xy"], r["s_yx"]) for r in rows)
    assert 0.15 <= peak <= 0.25
    report(8, f"omega_y=0.8 preset peak steering {peak:.4f}", peak, 0.25)


def test_criterion_09_full_asymmetry(tmp_path):
    worst = 0.0
    for wy in ("0.99", "0.8", "0.6"):
        for r in preset_rows(tmp_path, wy):
            worst = max(worst, r["s_xy"] * r["s_yx"])
    for eps in np.linspace(0.1, 0.95, 10):
        p = SystemParams(1.0, 1.0, float(eps))
        for q in states(4):
            res = steering(p, q)
            worst = max(worst, res.s_xy * res.s_yx)
    mu = math.sqrt(3.0) / 3.0
    for q in states(6):
        worst = max(worst, steering_weak_general(q, mu)
                    * steering_weak_general(QuantumNumbers(q.m, q.n), mu))
    assert worst == 0.0
    report(9, "one steering direction always vanishes", worst, 0.0)


def test_criterion_10_makarov_gap():
    for mu in (0.0, 0.2, 0.7, 1.0, 2.0):
        assert makarov_entropy(QuantumNumbers(0, 0), mu) == 0.0
    for p in reference_grid():
        assert purity_exact(p, QuantumNumbers(0, 0)).linear_entropy > 0.0
    p = SystemParams(1.0, 1.0, 0.9)
    gap = entropy_gap(p, QuantumNumbers(0, 0))
    want = 1.0 - purity_ground_closed(p).purity
    dev = abs(gap - want)
    assert dev <= 1e-10
    assert gap == pytest.approx(0.2208, abs=1e-4)
    report(10, "approximate weights miss the ground-state entropy", dev, 1e-10)


def test_criterion_11_schmidt_normalization():
    dev = 0.0
    for n in range(9):
        for m in range(9 - n):
            for mu in (0.2, 1.0 / math.sqrt(3.0), 0.9, 1.0):
                total = math.fsum(makarov_schmidt(QuantumNumbers(n, m), mu).lambdas)
                dev = max(dev, abs(total - 1.0))
    assert dev <= 1e-10
    report(11, "approximate Schmidt weights sum to one", dev, 1e-10)


def test_criterion_12_uncertainty_structure():
    dev_eq = 0.0
    for eps in (0.1, 0.5, 0.9):
        p = SystemParams(1.0, 1.0, eps)
        for q in states(3):
            ax, ay = uncertainty_areas(p, q)
            dev_eq = max(dev_eq, abs(ax - ay))
    assert dev_eq <= 1e-12

    dev_bound = 0.0
    for p in reference_grid():
        for q in states(3):
            ax, ay = uncertainty_areas(p, q)
            dev_bound = max(dev_bound, 0.5 - ax, 0.5 - ay)
    assert dev_bound <= 1e-12

    dev_dec = 0.0
    for q in states(3):
        ax, ay = uncertainty_areas(SystemParams(1.0, 0.7, 0.0), q)
        dev_dec = max(dev_dec, abs(ax - (2 * q.n + 1) / 2), abs(ay - (2 * q.m + 1) / 2))
    assert dev_dec <= 1e-13
    report(12, "areas: resonance equality, Heisenberg bound, decoupled values",
           max(dev_eq, dev_bound, dev_dec), 1e-12)


def test_criterion_13_virtual_excitations():
    p_weak = SystemParams(1.0, 1.0, 1e-3)
    dev = 0.0
    for q in states(3):
        ex = excitation_numbers(p_weak, q)
        dev = max(dev, abs(ex.nx - (q.n + q.m) / 2), abs(ex.ny - (q.n + q.m) / 2))
    assert dev <= 1e-6

    p_usc = SystemParams(1.0, 1.0, 0.9)
    ex = excitation_numbers(p_usc, QuantumNumbers(0, 0))
    ref = ladder_oracle(p_usc, QuantumNumbers(0, 0))
    assert ex.nx == ex.ny
    assert ex.nx > 0.0
    dev_oracle = max(abs(ex.nx - ref.nx), abs(ex.ny - ref.ny))
    assert dev_oracle <= 1e-10
    report(13, "virtual excitations: weak sharing and USC ground state",
           max(dev, dev_oracle), 1e-6)


def test_criterion_14_deterministic_csv(tmp_path):
    argv = ["steering-scan", "--preset", "0.8", "--n-max", "4", "--steps", "81"]
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        assert main(argv + ["--output", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    report(14, "sweep output is byte-identical across runs", 0.0, 0.0)
