import csv
import io
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscpair import cli, purity, wigner
from oscpair.cli import _write_table, main
from oscpair.model import QuantumNumbers, SystemParams

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


class TestSpectrum:
    def test_r_scan_row_count_and_limit(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--r-scan", "0.1:3:100")
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 100
        assert list(rows[0]) == ["r", "theta_c"]
        below = [float(r["theta_c"]) for r in rows if float(r["r"]) < 1.0]
        above = [float(r["theta_c"]) for r in rows if float(r["r"]) > 1.0]
        assert max(below) < math.pi / 4
        assert below[-1] > 0.7  # approaches pi/4 near resonance
        assert all(v == 0.0 for v in above)

    def test_energy_table_at_zero_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--omega-x", "1.0", "--omega-y", "0.8",
            "--epsilon", "0:0:1", "--n-max", "1", "--m-max", "1",
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            n, m = int(row["n"]), int(row["m"])
            want = (1.0 * (2 * n + 1) + 0.8 * (2 * m + 1)) / 2
            assert float(row["energy"]) == pytest.approx(want, rel=1e-14)

    def test_boundary_rows_skipped_with_warning(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--omega-x", "1.0", "--omega-y", "1.0",
            "--epsilon", "0:1:3", "--n-max", "0", "--m-max", "0",
        )
        assert code == 0
        assert len(read_csv(out)) == 2  # eps = 1.0 dropped
        assert "skipping epsilon=1" in err


class TestMoments:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--omega-x", "1", "--omega-y", "0.99",
            "--epsilon", "0.5", "--n", "2", "--m", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert set(payload) >= {"xx", "yy", "pp", "qq", "xy", "pq",
                                "xxyy", "ppqq", "xxqq", "yypp"}
        assert payload["xx"] > 0

    def test_invalid_coupling_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--omega-x", "1", "--omega-y", "1", "--epsilon", "1.5",
        )
        assert code == 1
        assert "error:" in err


class TestWignerEval:
    def test_grid_and_origin_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "wigner-eval", "--omega-x", "1", "--omega-y", "1",
            "--epsilon", "0.5", "--n", "1", "--m", "0",
            "--x=-1:1:3", "--p", "0:0:1", "--y", "0:0:1", "--q", "0:0:1",
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["x"] for r in rows] == ["-1", "0", "1"]
        origin = [r for r in rows if float(r["x"]) == 0.0][0]
        assert float(origin["W"]) == pytest.approx(-1 / math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("x", ["1e20", "1e200"])
    def test_far_point_is_exactly_zero(self, capsys, x):
        # L_8(2 arg) overflows at 1e20 and the square itself at 1e200; filterwarnings
        # = error turns any numpy warning into a failure here
        code, out, err = run_cli(capsys, "wigner-eval", "--n", "8", f"--x={x}:{x}:1")
        assert (code, err) == (0, "")
        assert read_csv(out)[0]["W"] == "0"


class TestPurityScan:
    def test_columns_and_resonant_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "purity-scan", "--omega-x", "1", "--omega-y", "1",
            "--epsilon", "0.05:0.9:2", "--n-max", "1", "--m-max", "0",
        )
        assert code == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["omega_x", "omega_y", "epsilon", "n", "m",
                                 "purity", "S_L", "S_L_makarov", "delta_S_L"]
        ground = {float(r["epsilon"]): r for r in rows if r["n"] == "0" and r["m"] == "0"}
        assert float(ground[0.05]["S_L"]) == pytest.approx(0.0, abs=1e-3)
        assert float(ground[0.9]["S_L"]) == pytest.approx(0.2208, abs=1e-4)
        # approximate entropy column ignores the coupling at resonance
        excited = [r for r in rows if r["n"] == "1"]
        assert len({r["S_L_makarov"] for r in excited}) == 1

    def test_sweep_from_zero_coupling_up_to_six_quanta(self, capsys):
        code, out, _ = run_cli(
            capsys, "purity-scan", "--omega-y", "0.8", "--epsilon", "0:0.75:20",
            "--n-max", "6", "--m-max", "6",
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 20 * 49
        for row in rows:
            assert 0.0 < float(row["purity"]) <= 1.0
        decoupled = [float(r["purity"]) for r in rows if float(r["epsilon"]) == 0.0]
        assert len(decoupled) == 49
        assert max(abs(p - 1.0) for p in decoupled) <= 1e-13


    def test_weak_coupling_sweep_up_to_six_quanta(self, capsys):
        # mu ~ 0.028 at eps = 0.01, where Makarov's explicit Jacobi sum cancels
        code, out, err = run_cli(
            capsys, "purity-scan", "--omega-y", "0.8", "--epsilon", "0.01:0.75:20",
            "--n-max", "6", "--m-max", "6",
        )
        assert code == 0, err
        rows = read_csv(out)
        assert len(rows) == 20 * 49
        for row in rows:
            assert 0.0 <= float(row["S_L_makarov"]) < 1.0

    def test_one_jet_pair_per_coupling(self, capsys, monkeypatch):
        calls = []

        def counted(a, alpha):
            calls.append(a.shape)
            return true_power(a, alpha)

        true_power = purity._power_nd
        monkeypatch.setattr(purity, "_power_nd", counted)
        code, out, _ = run_cli(
            capsys, "purity-scan", "--omega-y", "0.8", "--epsilon", "0:0.75:20",
            "--n-max", "6", "--m-max", "6",
        )
        assert code == 0
        assert len(read_csv(out)) == 20 * 49
        assert calls == [(2, 7, 7, 7, 7)] * 20

    def test_out_of_range_cell_is_named_and_writes_no_rows(self, capsys, monkeypatch):
        def corrupted(a, alpha):
            jets = true_power(a, alpha)
            jets[0, -1, -1, -1, -1] += 10.0  # only the largest state's sub-block holds it
            return jets

        true_power = purity._power_nd
        monkeypatch.setattr(purity, "_power_nd", corrupted)
        states = [QuantumNumbers(n, m) for n in range(3) for m in range(4)]
        with pytest.raises(RuntimeError, match=r"outside \(0, 1\].*state=\(2, 3\)"):
            purity._purities([SystemParams(1.0, 0.8, 0.5)], states)
        code, out, err = run_cli(
            capsys, "purity-scan", "--omega-y", "0.8", "--epsilon", "0:0.5:3",
            "--n-max", "2", "--m-max", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: extracted purity coefficient ")
        assert err.endswith("state=(2, 3)\n")

    def test_one_makarov_block_per_photon_number(self, capsys, monkeypatch):
        calls, weights = [], purity._makarov_weights

        def counted(size, mus, starts):
            calls.append((size, list(mus), list(starts)))
            return weights(size, mus, starts)

        monkeypatch.setattr(purity, "_makarov_weights", counted)
        monkeypatch.setattr(purity, "makarov_schmidt", None)  # the one-state route is not taken
        code, out, err = run_cli(
            capsys, "purity-scan", "--omega-y", "0.8", "--epsilon", "0:0.5:3",
            "--n-max", "2", "--m-max", "3",
        )
        assert code == 0, err
        assert len(read_csv(out)) == 3 * 12
        # eps = 0 is decoupled (mu = 0), so only the two coupled rows take products
        mus = [cli.diagonalize(SystemParams(1.0, 0.8, eps)).mu for eps in (0.25, 0.5)]
        starts = {total: [n for n in range(3) if 0 <= total - n <= 3] for total in range(6)}
        assert calls == [(total + 1, [mu], starts[total]) for mu in mus for total in range(6)]

    def test_makarov_fault_names_the_one_state_routes_state(self, capsys, monkeypatch):
        # a J_x basis 1 % too long for n + m = 2 and 3 only, so not every state's weights
        # sum to 1: the table must fail where the one-state route first fails
        eigh = purity._jx_eigh

        def faulty(size):
            evals, vecs = eigh(size)
            return (evals, 1.01 * vecs) if size in (3, 4) else (evals, vecs)

        monkeypatch.setattr(purity, "_jx_eigh", faulty)
        states = [QuantumNumbers(n, m) for n in range(3) for m in range(4)]
        with pytest.raises(RuntimeError, match="not 1, for state") as one_state:
            for eps in (0.0, 0.25, 0.5):
                mu = cli.diagonalize(SystemParams(1.0, 0.8, eps)).mu
                for nm in states:
                    purity.makarov_entropy(nm, mu)
        code, out, err = run_cli(
            capsys, "purity-scan", "--omega-y", "0.8", "--epsilon", "0:0.5:3",
            "--n-max", "2", "--m-max", "3",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {one_state.value}\n"


class TestSteeringScan:
    def test_preset_has_no_mutual_steering(self, capsys):
        code, out, _ = run_cli(capsys, "steering-scan", "--preset", "0.8",
                               "--n-max", "3", "--steps", "41")
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 40 * 6  # boundary row dropped, 6 state families
        for row in rows:
            assert float(row["s_xy"]) * float(row["s_yx"]) == 0.0

    def test_explicit_sweep_at_resonance_is_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "steering-scan", "--omega-x", "1", "--omega-y", "1",
            "--epsilon", "0.1:0.9:5", "--n-max", "2", "--m-max", "2",
        )
        assert code == 0
        for row in read_csv(out):
            assert float(row["s_xy"]) == 0.0
            assert float(row["s_yx"]) == 0.0


class TestDeterminism:
    def test_byte_identical_csv_across_runs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(["purity-scan", "--omega-x", "1", "--omega-y", "0.8",
                         "--epsilon", "0:0.7:9", "--n-max", "2", "--m-max", "2",
                         "--output", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format_mirrors_csv_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "steering-scan", "--omega-y", "0.8", "--epsilon", "0.2:0.4:2",
            "--n-max", "1", "--m-max", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert set(payload[0]) == {"omega_x", "omega_y", "epsilon", "n", "m",
                                   "s_xy", "s_yx", "delta", "s_xy_raw", "s_yx_raw"}



# values whose 17-digit form is easy to get wrong: signed zero, subnormal,
# extremes, non-terminating binaries, non-finite, numpy scalars
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1, 1 / 3,
               math.nan, math.inf, -math.inf, np.float64(-2.5e-17), np.float64(0.7)]


def _reference_csv(fieldnames, columns):
    """csv.writer with one str(int) / format(float, ".17g") call per value."""
    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([fmt(v) for v in row] for row in zip(*columns))
    return out.getvalue()


def _expand(keys, columns):
    """The key columns of the product of ``keys`` (last axis fastest), then ``columns``."""
    points = [sum(point, ()) for point in itertools.product(*(pts for _, pts in keys))]
    width = sum(len(axis) for axis, _ in keys)
    return [[point[i] for point in points] for i in range(width)] + columns


class TestWriter:
    FIELDS = ["omega_x", "epsilon", "n", "m", "W"]

    @staticmethod
    def _table(rows):
        k = np.arange(rows)
        return [[EDGE_VALUES[i % len(EDGE_VALUES)] for i in k],
                (np.linspace(-1.0, 1.0, rows) / 3).tolist(),
                [int(i % 7) for i in k],
                [np.int64(i % 5) for i in k],
                [EDGE_VALUES[(3 * i + 1) % len(EDGE_VALUES)] for i in k]]

    @pytest.mark.parametrize("rows", [0, 1, 12, 1024, 1025, 2500])
    def test_matches_csv_writer_bytes(self, tmp_path, rows):
        columns = self._table(rows)
        path = tmp_path / "table.csv"
        # the first four columns as one four-field key axis, one point per row
        with open(path, "w", newline="") as out:
            _write_table([(self.FIELDS[:4], list(zip(*columns[:4])))], self.FIELDS[4:],
                         list(zip(*columns[4:])), "csv", out)
        assert path.read_bytes() == _reference_csv(self.FIELDS, columns).encode()

    @pytest.mark.parametrize("rows", [0, 1, 1024, 1025])
    def test_json_matches_json_dumps(self, rows):
        columns = self._table(rows)
        columns[3] = [int(m) for m in columns[3]]  # json encodes no numpy integers
        out = io.StringIO()
        _write_table([(self.FIELDS[:4], list(zip(*columns[:4])))], self.FIELDS[4:],
                     list(zip(*columns[4:])), "json", out)
        records = [dict(zip(self.FIELDS, row)) for row in zip(*columns)]
        assert out.getvalue() == json.dumps(records, indent=2) + "\n"

    # (outer, inner) axis lengths: rows = outer * inner, the counts above plus empty axes
    @pytest.mark.parametrize("outer, inner", [(0, 3), (3, 0), (1, 1), (3, 4), (16, 64),
                                              (25, 41), (50, 50)])
    def test_key_axes_match_csv_writer_bytes(self, tmp_path, outer, inner):
        # edge values in a two-field float axis, np.int64 and int in the state axis
        keys = [(["omega_x", "epsilon"],
                 [(EDGE_VALUES[i % len(EDGE_VALUES)], EDGE_VALUES[(5 * i + 2) % len(EDGE_VALUES)])
                  for i in range(outer)]),
                (["n", "m"], [(np.int64(j % 7), j % 5) for j in range(inner)])]
        columns = [[EDGE_VALUES[(3 * i + 1) % len(EDGE_VALUES)] for i in range(outer * inner)]]
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as out:
            _write_table(keys, ["W"], list(zip(*columns)), "csv", out)
        # compared as lines: a failing diff of the whole text takes pytest minutes
        lines = path.read_bytes().decode().splitlines(keepends=True)
        assert lines == _reference_csv(self.FIELDS, _expand(keys, columns)).splitlines(True)
        assert len(lines) == 1 + outer * inner
        if outer * inner == 0:
            assert lines == ["omega_x,epsilon,n,m,W\n"]

    @pytest.mark.parametrize("outer, inner", [(0, 3), (3, 0), (1, 1), (3, 4), (16, 64),
                                              (25, 41), (50, 50)])
    def test_key_axes_match_json_dumps(self, outer, inner):
        # edge values in the float axis and the value column; int states, as json has no
        # encoding for numpy integers
        keys = [(["omega_x", "epsilon"],
                 [(EDGE_VALUES[i % len(EDGE_VALUES)], EDGE_VALUES[(5 * i + 2) % len(EDGE_VALUES)])
                  for i in range(outer)]),
                (["n", "m"], [(j % 7, j % 5) for j in range(inner)])]
        columns = [[EDGE_VALUES[(3 * i + 1) % len(EDGE_VALUES)] for i in range(outer * inner)]]
        out = io.StringIO()
        _write_table(keys, ["W"], list(zip(*columns)), "json", out)
        records = [dict(zip(self.FIELDS, row)) for row in zip(*_expand(keys, columns))]
        lines = out.getvalue().splitlines(keepends=True)
        assert lines == (json.dumps(records, indent=2) + "\n").splitlines(keepends=True)

    @pytest.mark.parametrize("block", [7, cli._BLOCK])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_write_exceeds_the_block(self, monkeypatch, block, fmt):
        class Spy(io.StringIO):
            def __init__(self):
                super().__init__()
                self.rows = []

            def write(self, text):
                # a CSV row ends in a newline, a JSON record opens with "{"
                self.rows.append(text.count("\n" if fmt == "csv" else "{"))
                return super().write(text)

        monkeypatch.setattr(cli, "_BLOCK", block)
        # a 2,500-row single-axis table, larger than any block
        columns = self._table(2500)
        columns[3] = [int(m) for m in columns[3]]
        out = Spy()
        _write_table([(self.FIELDS[:4], list(zip(*columns[:4])))], self.FIELDS[4:],
                     list(zip(*columns[4:])), fmt, out)
        records = [dict(zip(self.FIELDS, row)) for row in zip(*columns)]
        want = (json.dumps(records, indent=2) + "\n" if fmt == "json"
                else _reference_csv(self.FIELDS, columns))
        assert out.getvalue() == want
        assert max(out.rows) <= block
        assert sum(out.rows) == 2500 + (fmt == "csv")  # and the CSV header
        # the 11^4 grid of wigner-eval, through the command
        grid = Spy()
        monkeypatch.setattr(sys, "stdout", grid)
        assert main(["wigner-eval", "--n", "2", "--format", fmt]
                    + [f"--{axis}=-2:2:11" for axis in "xpyq"]) == 0
        assert max(grid.rows) <= block
        assert sum(grid.rows) == 11**4 + (fmt == "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_value_fields_interleave_row_by_row(self, tmp_path, fmt):
        # three float fields from one rows x fields array, over 3 x 300 key points:
        # each row carries its own three values, in field order, across block bounds
        names = ["W", "S_L", "delta"]
        keys = [(["omega_x", "epsilon"], [(EDGE_VALUES[i], 0.25 * i) for i in range(3)]),
                (["n", "m"], [(j % 7, j % 5) for j in range(300)])]
        k = np.arange(900)
        values = np.array([[EDGE_VALUES[i % len(EDGE_VALUES)] for i in k],
                           (k / 7).tolist(),
                           [EDGE_VALUES[(5 * i + 3) % len(EDGE_VALUES)] for i in k]]).T
        path = tmp_path / f"table.{fmt}"
        with open(path, "w", newline="") as out:
            _write_table(keys, names, values, fmt, out)
        columns = _expand(keys, [column.tolist() for column in values.T])
        fieldnames = self.FIELDS[:4] + names
        if fmt == "csv":
            want = _reference_csv(fieldnames, columns)
        else:
            records = [dict(zip(fieldnames, row)) for row in zip(*columns)]
            want = json.dumps(records, indent=2) + "\n"
        assert path.read_text().splitlines(True) == want.splitlines(True)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_wigner_eval_peak_stays_below_the_grid(self, monkeypatch, fmt):
        # the writer turns one block of W at a time into Python floats: converting the
        # whole 21^4 grid at once takes about four times W's own 1.5 MB
        w = np.random.default_rng(4).standard_normal([21] * 4)
        monkeypatch.setattr(wigner, "wigner_lab", lambda modes, nm, pt: w)
        tracemalloc.start()
        try:
            code = main(["wigner-eval", "--format", fmt, "--output", os.devnull]
                        + [f"--{axis}=-2:2:21" for axis in "xpyq"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < w.nbytes


def _percent_g17(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _neighbours(values):
    return [w for v in values
            for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


class TestArrayText:
    """``cli._g17``, the CSV text of an array's values, against ``'%.17g' % v``."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(26).integers(0, 2**64, 100_000, dtype=np.uint64)
        x = bits.view(np.float64)  # both signs, every exponent, nan and inf included
        assert cli._g17(x) == _percent_g17(x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    max_size=40))
    def test_any_floats(self, values):
        assert cli._g17(np.array(values, dtype=float)) == _percent_g17(values)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         math.nan, math.inf, -math.inf],
        # log10 rounds to the wrong k next to a power of ten, as for 9.9999999999999997e-305
        _neighbours(float(f"1e{i}") for i in range(-323, 309)),
        # 2**-25 = 2.98023223876953125e-08 is a tie at 17 digits
        [math.ldexp(1.0, i) for i in range(-1074, 1024)],
        # %g turns from 0.000ddd to d.ddde-05 below 1e-4
        _neighbours([1e-4, 9.9999999999999991e-05, 1.0000000000000001e-05, 1e-5])
        + np.linspace(9e-6, 2e-4, 2001).tolist(),
        [],
    ], ids=["special", "powers-of-ten", "powers-of-two", "layout-switch", "empty"])
    def test_edge_values(self, values):
        x = np.array(values, dtype=float)
        assert cli._g17(x) == _percent_g17(x)
        assert cli._g17(-x) == _percent_g17(-x)

    @pytest.mark.parametrize("argv, size", [
        (["--omega-y", "0.8", "--epsilon", "0.76", "--n", "6", "--m", "6"]
         + [f"--{axis}=-2:2:11" for axis in "xpyq"], 11**4),
        (["--omega-y", "1", "--epsilon", "0.5", "--n", "1", "--m", "0", "--x=-2:2:41",
          "--p=-2:2:41"], 41**2),
    ], ids=["grid-11^4", "plane-41x41"])
    def test_golden_grids_need_no_fallback(self, monkeypatch, argv, size):
        # a value _g17 cannot certify is read back one by one, as x[j], for "%": a
        # faster path that stopped certifying would show here, not as a slower run
        class Reads(np.ndarray):
            count = 0

            def __getitem__(self, index):
                if isinstance(index, int):
                    Reads.count += 1
                return super().__getitem__(index)

        real, sizes = cli._g17, []
        assert real(np.array([0.0, 1.5, 2.0**-25, 1e-3]).view(Reads)) == _percent_g17(
            [0.0, 1.5, 2.0**-25, 1e-3])
        assert Reads.count == 3
        Reads.count = 0

        def spy(x):
            sizes.append(len(x))
            return real(x.view(Reads))

        monkeypatch.setattr(cli, "_g17", spy)
        assert main(["wigner-eval", *argv, "--output", os.devnull]) == 0
        assert sum(sizes) == size and max(sizes) <= cli._CHUNK
        assert Reads.count == 0


class TestArrayWriter:
    """``_write_table`` writes an array's values in the bytes of the same rows as a sequence."""

    # key axis lengths and value fields: empty axes, one point, an axis longer than the
    # block (one row per leading point), three fields across block and _CHUNK bounds
    @pytest.mark.parametrize("lengths, fields", [
        ((0, 3), 1), ((3, 0), 1), ((1, 1), 1), ((1, 1), 3), ((cli._BLOCK + 88,), 1),
        ((2, cli._BLOCK + 88), 1), ((2, cli._BLOCK + 88), 3), ((3, 300), 3), ((10, 300), 3),
    ], ids=str)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_matches_the_sequence_path(self, fmt, lengths, fields):
        keys = [([name], [(EDGE_VALUES[(5 * a + i) % len(EDGE_VALUES)],) for i in range(n)])
                for a, (name, n) in enumerate(zip("xpyq", lengths))]
        names = ["W", "S_L", "delta"][:fields]
        rng = np.random.default_rng(28)
        values = rng.standard_normal(math.prod(lengths) * fields)
        values *= 10.0 ** rng.integers(-320, 2, values.size)  # both layouts, a few fallbacks
        values[::7] = [EDGE_VALUES[i % len(EDGE_VALUES)] for i in range(len(values[::7]))]
        values = values.reshape(-1, fields)
        texts = []
        for given in (values, values.tolist()):
            out = io.StringIO()
            _write_table(keys, names, given, fmt, out)
            texts.append(out.getvalue().splitlines(keepends=True))
        assert texts[0] == texts[1]
        if fmt == "csv":
            assert len(texts[0]) == 1 + math.prod(lengths)
        else:
            assert len(json.loads("".join(texts[0]))) == math.prod(lengths)


class TestVerify:
    BLAS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]

    def test_fresh_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "PASS moment-table" in out
        assert re.fullmatch(r"all checks passed in \d+ ms", out.splitlines()[-1])

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "ground-purity-closed-form", "marginal-purity-svd", "global-purity",
            "moment-table", "resonance-steering-null",
        }
        for check in report["checks"]:
            assert check["max_deviation"] <= check["tolerance"]

    def test_json_report_times_each_stage(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--json")
        report = json.loads(out)
        stages = report["stage_seconds"]
        assert list(stages) == ["purity", "schmidt-oracle", "quadrature-oracles", "closed-forms"]
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert sum(stages.values()) <= report["elapsed_seconds"]

    @pytest.mark.parametrize("given, want", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"}, ["2", "1", "3"]),
    ])
    def test_fresh_process_runs_on_one_blas_thread_unless_told(self, given, want):
        env = {k: v for k, v in os.environ.items() if k not in self.BLAS}
        proc = subprocess.run([sys.executable, "-m", "oscpair", "verify", "--json"],
                              env=dict(env, PYTHONPATH=str(SRC), **given),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["blas_threads"] == dict(zip(self.BLAS, want))

    def test_in_process_call_leaves_the_environment(self, capsys, monkeypatch):
        # numpy is loaded here, so its BLAS has read its settings already
        for var in self.BLAS:
            monkeypatch.delenv(var, raising=False)
        _, out, _ = run_cli(capsys, "verify", "--json")
        assert set(json.loads(out)["blas_threads"].values()) == {None}
        assert not set(self.BLAS) & set(os.environ)

    def test_injected_fault_fails_with_exit_two(self, capsys, monkeypatch):
        from oscpair import moments as moments_module

        true_fn = moments_module.second_and_fourth_moments

        def corrupted(params, nm):
            ms = true_fn(params, nm)
            return type(ms)(xx=ms.xx, yy=ms.yy, pp=ms.pp * (1.0 + 5e-7), qq=ms.qq,
                            xy=ms.xy, pq=ms.pq, xxyy=ms.xxyy, ppqq=ms.ppqq,
                            xxqq=ms.xxqq, yypp=ms.yypp)

        monkeypatch.setattr(moments_module, "second_and_fourth_moments", corrupted)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 2
        assert "FAIL moment-table" in out


def _bits(points):
    """Each point's IEEE bits (``0.0`` and ``-0.0`` differ), every NaN as one value."""
    return [None if math.isnan(p) else struct.pack("<d", p) for p in points]


class TestLinspace:
    """``cli._linspace``, the ranges of every command, against ``numpy.linspace``."""

    @given(start=st.floats(), stop=st.floats(), num=st.integers(1, 400))
    @example(start=0.5, stop=0.5, num=4)  # equal endpoints
    @example(start=-0.0, stop=-0.0, num=3)
    @example(start=0.0, stop=-0.0, num=2)
    @example(start=-0.0, stop=0.0, num=1)
    @example(start=-2.0, stop=7.0, num=1)  # one point
    @example(start=0.0, stop=1.5e-323, num=8)  # a subnormal step that rounds to 0
    @example(start=-1e308, stop=1e308, num=3)  # the span overflows
    @example(start=1.7976931348623157e308, stop=-1.7976931348623157e308, num=7)
    @example(start=0.0, stop=0.99, num=161)  # the --preset grids
    @example(start=0.0, stop=0.8, num=161)
    @example(start=0.0, stop=0.6, num=161)
    @settings(max_examples=500, deadline=None)
    def test_matches_numpy_bit_for_bit(self, start, stop, num):
        with np.errstate(all="ignore"):  # an overflowing or non-finite span
            want = np.linspace(start, stop, num).tolist()
        assert _bits(cli._linspace(start, stop, num)) == _bits(want)

    def test_examples_reach_the_edge_branches(self):
        # numpy divides before it scales where the step underflows to 0, and an
        # overflowing span gives a point that is not finite; the examples above hit both
        assert np.linspace(0.0, 1.5e-323, 8, retstep=True)[1] == 0.0
        with np.errstate(all="ignore"):
            assert not np.isfinite(np.linspace(-1e308, 1e308, 3)).all()
        assert not all(map(math.isfinite, cli._linspace(-1e308, 1e308, 3)))


class TestArgumentHandling:
    def test_unknown_command_is_validation_error(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_bad_range_spec(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--r-scan", "nonsense")
        assert code == 1
        assert "error:" in err

    # a range reaches every command through one parser, which rejects a point that is
    # not finite before numpy can warn and each command can fail in its own way
    @pytest.mark.parametrize("command, option, text", [
        ("spectrum", "--r-scan", "1:inf:3"),
        ("wigner-eval", "--x", "0:inf:2"),
        ("purity-scan", "--epsilon", "0:inf:3"),
        ("steering-scan", "--epsilon", "-1e308:1e308:3"),  # the span overflows
    ])
    def test_range_with_a_point_that_is_not_finite(self, capsys, command, option, text):
        code, out, err = run_cli(capsys, command, f"{option}={text}")
        assert code == 1
        assert out == ""
        assert err == f"error: range has a point that is not finite: {text!r}\n"

    @pytest.mark.parametrize("command, option, text, steps", [
        ("purity-scan", "--epsilon", "0:0.5:0", 0),
        ("wigner-eval", "--x", "-1:1:-2", -2),
    ])
    def test_range_without_a_step(self, capsys, command, option, text, steps):
        code, out, err = run_cli(capsys, command, f"{option}={text}")
        assert code == 1
        assert out == ""
        assert err == f"error: range needs at least one step, got {steps}\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    # each subcommand's parsed defaults, option by option: the sweeps share option groups
    # but not their grid defaults, so a grid whose action objects two commands share
    # would give them one command's defaults
    @pytest.mark.parametrize("command, defaults", [
        ("spectrum", {"omega_x": 1.0, "omega_y": 1.0, "r_scan": None, "epsilon": "0:0:1",
                      "n_max": 2, "m_max": 2, "output": None, "format": "csv"}),
        ("moments", {"omega_x": 1.0, "omega_y": 1.0, "epsilon": 0.0, "n": 0, "m": 0,
                     "output": None}),
        ("wigner-eval", {"omega_x": 1.0, "omega_y": 1.0, "epsilon": 0.0, "n": 0, "m": 0,
                         "x": "0:0:1", "p": "0:0:1", "y": "0:0:1", "q": "0:0:1",
                         "output": None, "format": "csv"}),
        ("purity-scan", {"omega_x": 1.0, "omega_y": 1.0, "epsilon": "0:0.9:10", "n_max": 3,
                         "m_max": 3, "output": None, "format": "csv"}),
        ("steering-scan", {"omega_x": 1.0, "omega_y": 1.0, "epsilon": "0:0.9:10", "n_max": 6,
                           "m_max": 6, "preset": None, "steps": 161, "output": None,
                           "format": "csv"}),
        ("verify", {"json": False}),
    ])
    def test_subcommand_defaults_and_help(self, capsys, command, defaults):
        parsed = vars(cli._build_parser().parse_args([command]))
        assert parsed.pop("func") is getattr(cli, "cmd_" + command.replace("-", "_"))
        assert parsed == {"command": command, **defaults}
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: oscpair {command} [-h]")
        for dest in defaults:
            assert f" --{dest.replace('_', '-')} " in out

    # past [1e-50, 1e50] squares overflow or fourth powers underflow: SystemParams
    # rejects such a frequency, so each command fails with one line, not a traceback,
    # a nan row or an overflow blamed on cancellation
    @pytest.mark.parametrize("argv, value", [
        (["moments", "--omega-x", "1e300", "--omega-y", "1e-300", "--epsilon", "0.5"], "1e+300"),
        (["purity-scan", "--omega-x", "1e-160", "--omega-y", "1e-160", "--epsilon", "0:1e-320:3",
          "--n-max", "1", "--m-max", "1"], "1e-160"),
        (["wigner-eval", "--omega-x", "1e300", "--omega-y", "1", "--epsilon", "1e299",
          "--n", "1"], "1e+300"),
        (["purity-scan", "--omega-x", "1e200", "--omega-y", "1e200", "--epsilon", "0:1e300:3",
          "--n-max", "1", "--m-max", "1"], "1e+200"),
    ])
    def test_frequency_outside_the_domain_fails_before_any_row(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: omega_x must lie in [1e-50, 1e+50], got {value}\n"

    @pytest.mark.parametrize("argv", [
        ["purity-scan", "--n-max", "-1"],
        ["purity-scan", "--m-max", "-1"],
        ["spectrum", "--n-max", "-2"],
        ["steering-scan", "--m-max", "-1"],
        ["steering-scan", "--preset", "0.8", "--steps", "0"],
    ])
    def test_negative_counts_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be at least" in err

    # a sweep rejects a frequency that is not positive and finite before its epsilon
    # loop, with SystemParams's message, rather than skipping every row as out of range
    @pytest.mark.parametrize("command", ["purity-scan", "steering-scan", "spectrum"])
    @pytest.mark.parametrize("option, value, message", [
        ("--omega-y", "nan", "omega_y must be positive and finite, got nan"),
        ("--omega-y", "0", "omega_y must be positive and finite, got 0.0"),
        ("--omega-y", "inf", "omega_y must be positive and finite, got inf"),
        ("--omega-x", "-1", "omega_x must be positive and finite, got -1.0"),
    ])
    def test_invalid_frequency_fails_before_the_sweep(self, capsys, command, option, value,
                                                      message):
        code, out, err = run_cli(capsys, command, option, value, "--epsilon", "0:0.5:3",
                                 "--n-max", "1", "--m-max", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["purity-scan", "--omega-y", "0.8", "--epsilon", "0:0.5:2", "--n-max", "1", "--m-max", "1"],
        ["wigner-eval", "--x=-1:1:3", "--p=-1:1:3"],
    ])
    def test_unwritable_output_is_validation_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert not path.exists()

    def test_unwritable_output_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        calls = []

        def purities(couplings, states):
            calls.append((couplings, states))
            raise RuntimeError("the sweep ran")

        monkeypatch.setattr(purity, "_purities", purities)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "purity-scan", "--output", str(path))
        assert code == 1
        assert err.startswith("error: ") and str(path) in err
        assert calls == []

    def test_closed_stdout_pipe_exits_quietly(self):
        # a 41^3-row CSV of about 3.5 MB, far more than a pipe buffers
        argv = [sys.executable, "-m", "oscpair", "wigner-eval",
                "--x=-2:2:41", "--p=-2:2:41", "--y=-2:2:41"]
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=str(SRC)),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            head = proc.stdout.read(20)
            proc.stdout.close()  # like `| head -c 20`
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert head == b"x,p,y,q,W\n-2,-2,-2,0"
        assert err == b""
        assert code == 1


# a call that parses, one that fails to parse and a --help, then two sweeps whose options
# the earlier calls set otherwise (a preset, then none; CSV, then JSON)
PARSER_SEQUENCE = [
    (["wigner-eval", "--omega-y", "0.8", "--epsilon", "0.5", "--n", "2", "--x=-1:1:5",
      "--p=-1:1:4"], 0),
    (["steering-scan", "--preset", "0.8", "--steps", "5"], 0),
    (["purity-scan", "--n-max", "-1"], 1),
    (["--help"], 0),
    (["steering-scan", "--omega-y", "0.9", "--epsilon", "0:0.5:3", "--n-max", "1",
      "--m-max", "1"], 0),
    (["purity-scan", "--format", "json"], 0),
]


def test_one_parser_serves_a_mixed_sequence(capsys):
    alone = []
    for argv, _ in PARSER_SEQUENCE:
        cli._build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    cli._build_parser.cache_clear()
    together = [run_cli(capsys, *argv) for argv, _ in PARSER_SEQUENCE]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in together] == [code for _, code in PARSER_SEQUENCE]
    assert together[3][1].startswith("usage: oscpair")
    assert together == alone
