import hashlib
import json
import logging
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sysvar as sv
import sysvar.cli
import sysvar.clearing
import sysvar.risk
from sysvar import io
from sysvar.cli import main
from sysvar.util import atomic_write_chunks, fmt17
from conftest import exp_scenarios, random_network, two_group_split


class TestRoundTrips:
    def test_network_json(self, rng, tmp_path):
        net = random_network(rng, 5)
        grouping = two_group_split(rng, 5)
        path = str(tmp_path / "net.json")
        io.write_network(path, net, grouping, provenance={"seed": 1})
        net2, grouping2 = io.read_network(path)
        assert np.array_equal(net.pi, net2.pi)
        assert np.array_equal(net.pbar, net2.pbar)
        assert np.array_equal(grouping.assignment, grouping2.assignment)
        raw = json.load(open(path))
        assert set(raw) >= {"d", "pbar", "pi", "grouping"}

    def test_scenarios_csv_full_precision(self, rng, tmp_path):
        scen = exp_scenarios(rng, 7, 3, 0.9)
        path = str(tmp_path / "s.csv")
        io.write_scenarios(path, scen)
        again = io.read_scenarios(path)
        assert np.array_equal(scen.values, again.values)
        header = open(path).readline().strip()
        assert header == "x1,x2,x3"

    def test_scenarios_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n x1,x2\n1.5,2\n\n   \n0.25,1e-3\n \t \n\n7,8\n")
        assert io.read_scenarios(str(path)).values.tolist() == [[1.5, 2.0], [0.25, 1e-3],
                                                                [7.0, 8.0]]
        assert_reads_as_loadtxt(path)

    @pytest.mark.parametrize("body", ["1,2\n3\n", "1,2\n3,4,5\n", "1,abc\n", "1,2,\n",
                                      "# 1,2\n", "", "x1,x2,x3\n1,2\n3,4\n", "1,\n", ",2\n",
                                      "1,.\n", "1..5,2\n", "1.2.3,4\n", "1..00000000000001,2\n",
                                      "1-5,2\n", "1/5,2\n"])
    def test_malformed_scenarios_csv_raises_validation_error(self, tmp_path, body):
        # bodies without their own header go under a two-column one
        path = tmp_path / "s.csv"
        path.write_text(body if body.startswith("x1") else "x1,x2\n" + body)
        with pytest.raises(sv.ValidationError):
            io.read_scenarios(str(path))

    def test_edges_csv(self, tmp_path):
        g = sv.DirectedMultigraph(n=4, edges=((0, 0), (0, 1), (1, 2), (2, 3)))
        path = str(tmp_path / "g.csv")
        io.write_edges(path, g)
        back = io.read_edges(path)
        assert back.edges == g.edges
        assert open(path).readline().strip() == "source,target"

    def test_approx_set_json(self, rng, tmp_path):
        approx = sv.ApproxSet(
            epsilon=0.5,
            generators=np.array([[0.0, 1.0], [1.0, 0.25]]),
            box=sv.CapitalBox(lo=np.array([-1.0, -1.0]), hi=np.array([2.0, 2.0])),
            ideal=np.array([-0.5, -0.25]),
        )
        path = str(tmp_path / "a.json")
        io.write_approx(path, approx)
        back = io.read_approx(path)
        assert np.array_equal(back.generators, approx.generators)
        assert back.epsilon == approx.epsilon
        assert np.array_equal(back.box.hi, approx.box.hi)

    def test_staircase_requires_two_groups(self):
        approx = sv.ApproxSet(
            epsilon=0.5, generators=np.array([[1.0]]),
            box=sv.CapitalBox(lo=np.array([0.0]), hi=np.array([2.0])),
            ideal=np.array([0.0]))
        with pytest.raises(sv.ValidationError):
            io.staircase_rows(approx)

    def test_staircase_shape(self):
        approx = sv.ApproxSet(
            epsilon=0.5,
            generators=np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.5]]),
            box=sv.CapitalBox(lo=np.zeros(2), hi=np.full(2, 3.0)),
            ideal=np.zeros(2))
        rows = io.staircase_rows(approx)
        assert rows[0] == {"z1": 0.0, "z2": 2.0}
        assert rows[1] == {"z1": 1.0, "z2": 2.0}
        assert rows[2] == {"z1": 1.0, "z2": 1.0}
        assert len(rows) == 5


_EDGE_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 2**53 + 1.0, 1e300]


def per_cell_text(values) -> str:
    """The reference render of a scenario block: each cell through
    ``format(v, ".17g")``, commas between cells and a newline after each row."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in np.asarray(values, dtype=float).tolist())


def ulp_neighbours(v: float, steps: int = 2) -> list[float]:
    out, lo, hi = [v], v, v
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


# finite non-negative doubles from raw bits; two draws in three take a biased
# exponent in or next to the fast band 1e-4 <= v < 1e17 (1009 .. 1079)
_BIASED_EXPONENTS = st.one_of(st.integers(1005, 1083), st.integers(1005, 1083),
                              st.integers(0, 2046))
_DOUBLES = st.builds(
    lambda exponent, mantissa: (
        struct.unpack("<d", struct.pack("<Q", exponent << 52 | mantissa))[0]),
    _BIASED_EXPONENTS, st.integers(0, (1 << 52) - 1))


class TestBlockFormatter:
    """`io._format_block` against ``format(v, ".17g")`` cell by cell."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(cells=st.lists(_DOUBLES, min_size=1, max_size=60), d=st.integers(1, 6))
    def test_random_bit_patterns(self, cells, d):
        values = np.resize(np.array(cells), (-(-len(cells) // d), d))
        assert io._format_block(values) == per_cell_text(values)

    def test_powers_of_ten_and_their_neighbours(self):
        values = [v for k in range(-6, 19) for v in ulp_neighbours(float(f"1e{k}"))]
        block = np.array(values).reshape(-1, 5)
        assert io._format_block(block) == per_cell_text(block)

    @pytest.mark.parametrize("v, text", [
        (1e-4, "0.0001"), (9.99999999999999999e-5, "0.0001"),
        (9.9999999999999991e-05, "9.9999999999999991e-05"), (1e17, "1e+17"),
        (99999999999999999.0, "1e+17"), (99999999999999984.0, "99999999999999984"),
        (9999999999999998.0, "9999999999999998"), (999999.99999999988, "999999.99999999988"),
        (1000000000000000.25, "1000000000000000.2"),
        (1000000000000000.75, "1000000000000000.8"),
        (2**53 + 1.0, "9007199254740992"),
    ])
    def test_band_edges_and_ties(self, v, text):
        assert format(v, ".17g") == text
        assert io._format_block(np.array([[v]])) == text + "\n"

    def test_half_way_ties(self):
        # m * 2**-18 in [0.1, 1) has 18 significant digits, the last a 5 for
        # odd m; m * 2**-2 from 1e15 up ends in .25 or .75
        rng = np.random.default_rng(5)
        small = rng.integers(2**18 // 10, 2**18, 3000) | 1
        large = rng.integers(4 * 10**15, 2**53, 3000) | 1
        block = np.concatenate([small / 2**18, large / 4.0]).reshape(-1, 6)
        assert io._format_block(block) == per_cell_text(block)

    def test_cells_outside_the_band_take_the_per_cell_fallback(self):
        # every cell but the middle one of each row is formatted by %.17g;
        # the texts land in front of their own separators
        outside = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9e-5, 1e17, 1e300,
                   -1.5, -1e-300, float("inf"), float("nan")]
        block = np.array([[v, 0.5, w] for v, w in zip(outside, reversed(outside))])
        assert io._format_block(block) == per_cell_text(block)
        assert io._format_block(block[:, [0]]) == per_cell_text(block[:, [0]])


@pytest.mark.parametrize("nan", [float("nan"), -float("nan"), np.float32("nan"),
                                 np.float64("nan")])
def test_fmt17_writes_every_nan_as_nan(nan):
    assert fmt17(nan) == "nan"


class TestStreamedWrite:
    @pytest.mark.parametrize("n, d", [(1, 4), (1024, 4), (1025, 4), (6, 1)])
    def test_scenario_bytes_match_per_cell_fmt17(self, tmp_path, n, d):
        # 1,024 rows fill whole streamed blocks; 1,025 start one more
        values = np.resize(np.array(_EDGE_VALUES), n * d).reshape(n, d)
        path = tmp_path / "s.csv"
        io.write_scenarios(str(path), sv.ScenarioSet(values=values))
        lines = [",".join(f"x{i + 1}" for i in range(d))]
        lines += [",".join(fmt17(v) for v in row) for row in values]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert io.read_scenarios(str(path)).values.tobytes() == values.tobytes()
        assert_reads_as_loadtxt(path)

    def test_strided_and_fortran_ordered_values(self, tmp_path):
        rng = np.random.default_rng(17)
        base = 100 * ((1 - rng.random((600, 10))) ** (-1 / 3) - 1)
        for values in (base[::2, ::3], np.asfortranarray(base)):
            path = tmp_path / "s.csv"
            io.write_scenarios(str(path), sv.ScenarioSet(values=values))
            header = ",".join(f"x{i + 1}" for i in range(values.shape[1])) + "\n"
            assert path.read_text() == header + per_cell_text(values)

    def test_write_memory_stays_flat(self, tmp_path):
        # the whole text is about 9.5 MB; a block is 256 rows
        rng = np.random.default_rng(23)
        values = 100 * ((1 - rng.random((25_000, 20))) ** (-1 / 3) - 1)
        scen = sv.ScenarioSet(values=values)
        tracemalloc.start()
        try:
            io.write_scenarios(str(tmp_path / "s.csv"), scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("values", [[[-1.0, np.nan]], [[1.0, -2.0]], [[np.inf, 0.0]]])
    def test_invalid_set_is_not_written(self, tmp_path, values):
        # unchecked, [[-1, nan]] was written as "-1,nan", which
        # read_scenarios refuses
        target = tmp_path / "s.csv"
        with pytest.raises(sv.ValidationError):
            io.write_scenarios(str(target), sv.ScenarioSet(values=np.array(values)))
        assert list(tmp_path.iterdir()) == []

    def test_negative_cash_flow_is_not_read(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0,-0.5\n")
        with pytest.raises(sv.ValidationError, match="nonnegative"):
            io.read_scenarios(str(path))

    def test_failure_mid_stream_keeps_target_and_removes_temp(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("previous contents\n")

        def chunks():
            yield "x1\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            atomic_write_chunks(str(target), chunks())
        assert target.read_text() == "previous contents\n"
        assert not list(tmp_path.glob(".sysvar-*.tmp"))


def loadtxt_reference(path) -> np.ndarray:
    """np.loadtxt on the lines after the header, blank lines dropped as
    `read_scenarios` drops them."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    return np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)


def assert_reads_as_loadtxt(path) -> None:
    values = io.read_scenarios(str(path)).values
    reference = loadtxt_reference(path)
    assert values.shape == reference.shape
    assert np.array_equal(values.view(np.uint64), reference.view(np.uint64))


def lomax(rng, n, d) -> np.ndarray:
    return 100 * ((1 - rng.random((n, d))) ** (-1 / 3) - 1)


def write_values(path, values) -> None:
    io.write_scenarios(str(path), sv.ScenarioSet(values=np.asarray(values, dtype=float)))


@pytest.fixture
def loadtxt_rows(monkeypatch):
    """The rows `read_scenarios` hands to np.loadtxt, call by call."""
    calls = []
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        calls.append(list(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


class TestBlockReader:
    """`io.read_scenarios` against np.loadtxt, bit for bit."""

    def test_ulp_neighbours_of_band_edges_and_powers(self, tmp_path):
        centres = [1e-4, 1e16, 1e17, 2.0 ** 53]
        centres += [10.0 ** k for k in range(-5, 19)] + [2.0 ** k for k in range(-14, 58)]
        values = [v for c in centres for v in ulp_neighbours(c, steps=3)]
        write_values(tmp_path / "s.csv", np.array(values).reshape(-1, 7))
        assert_reads_as_loadtxt(tmp_path / "s.csv")

    @pytest.mark.parametrize("n, d", [(3000, 1), (1000, 20)])
    def test_random_lomax_sets(self, tmp_path, n, d):
        write_values(tmp_path / "s.csv", lomax(np.random.default_rng(n + d), n, d))
        assert_reads_as_loadtxt(tmp_path / "s.csv")

    def test_rows_straddle_block_boundaries(self, tmp_path, monkeypatch):
        # blocks of about 700 bytes: most of the 200 rows of about 380 bytes
        # start in one block and end in the next
        monkeypatch.setattr(io, "_READ_BYTES", 700)
        write_values(tmp_path / "s.csv", lomax(np.random.default_rng(3), 200, 20))
        assert_reads_as_loadtxt(tmp_path / "s.csv")

    def test_row_longer_than_the_buffer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_READ_BYTES", 700)
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.5,2\n" + " " * 5000 + "3.25,4\n5,6\n")
        assert_reads_as_loadtxt(path)

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "s.csv"
        write_values(path, lomax(np.random.default_rng(4), 30, 3))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert_reads_as_loadtxt(path)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_ends(self, tmp_path, end):
        path = tmp_path / "s.csv"
        write_values(path, lomax(np.random.default_rng(5), 30, 3))
        path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        assert_reads_as_loadtxt(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe(self, tmp_path):
        # a pipe cannot be read twice, as the row count needs
        path = tmp_path / "s.csv"
        write_values(path, lomax(np.random.default_rng(7), 300, 4))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
        writer.start()
        try:
            values = io.read_scenarios(str(pipe)).values
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(values.view(np.uint64), loadtxt_reference(path).view(np.uint64))

    def test_rows_outside_the_grammar_go_to_loadtxt(self, tmp_path, loadtxt_rows):
        # the writer's %.17g cells below 1e-4 and from 1e17 up; 18 and more
        # significant digits (2**65 wraps to 0 in 64 bits); 17 digits more
        # than 20 places after the point; decimals halfway between two
        # doubles, which no ulp step matches; a cell of more than 24 bytes;
        # a sign and whitespace: those rows alone, in runs, in file order
        rows = ["1.5,2", "1.0000000000000001e-05,3", "4,1e+17", "5,6",
                "1.23456789012345678,7", "36893488147419103232,8",
                "0.000012345678901234568,9", "10000000000000001,9007199254740993",
                "0.0000000000000000000000001,1", "9,10", "+1,2", " 3,4", "0.5,0.25"]
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n" + "\n".join(rows) + "\n")
        values = io.read_scenarios(str(path)).values
        assert loadtxt_rows == [rows[1:3], rows[4:9], rows[10:12]]
        reference = loadtxt_reference(path)
        assert np.array_equal(values.view(np.uint64), reference.view(np.uint64))

    def test_ulp_steps_correct_the_first_guess(self, tmp_path, loadtxt_rows):
        # 17-digit cells whose first guess, the 17-digit integer over the
        # power of ten, is not the double nearest the decimal: the check
        # steps each one by ulps, and no row goes to np.loadtxt
        values = lomax(np.random.default_rng(6), 400, 5).ravel()
        digits = [format(v, ".17g").partition(".") for v in values]
        first_guess = np.array([float(a + b) / 10.0 ** len(b) for a, _, b in digits])
        seventeen = np.array([len((a + b).lstrip("0")) == 17 for a, _, b in digits])
        off = values[(first_guess != values) & seventeen]
        assert off.size >= 100
        path = tmp_path / "s.csv"
        write_values(path, off[:100].reshape(20, 5))
        assert np.array_equal(io.read_scenarios(str(path)).values.ravel(), off[:100])
        assert loadtxt_rows == []

    def test_read_memory_stays_flat(self, tmp_path):
        # the text is about 9.5 MB and the result 4 MB; the file is read
        # through one buffer in blocks of about 96 KiB
        values = lomax(np.random.default_rng(23), 25_000, 20)
        path = tmp_path / "s.csv"
        write_values(path, values)
        tracemalloc.start()
        try:
            read = io.read_scenarios(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read.values, values)
        assert peak - values.nbytes <= 1 << 20


def run_cli(*argv):
    return main(list(argv))


# prints the exit code of ``sysvar`` run on argv (0 when argv is empty) and
# the scipy modules the process has loaded
_SCIPY_PROBE = """
import json, sys
import sysvar.cli
code = sysvar.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_probe(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def pipeline(tmp_path):
    paths = {
        "net": str(tmp_path / "net.json"),
        "graph": str(tmp_path / "graph.csv"),
        "scen": str(tmp_path / "scen.csv"),
    }
    assert run_cli(
        "gen-network", "--nodes", "10", "--core-size", "2",
        "--theta", "0.2", "--eta", "0.6", "--zeta", "0.2",
        "--delta-in", "0.5", "--delta-out", "0.5",
        "--m", "4,2,3,1.5", "--seed", "7",
        "--graph-out", paths["graph"], "--out", paths["net"]) == 0
    assert run_cli(
        "sample-shocks", "--network", paths["net"], "--nu", "3",
        "--beta", "1.0,0.5", "--rho", "0.3", "--n", "10", "--seed", "3",
        "--out", paths["scen"]) == 0
    return paths


class TestCli:
    def test_missing_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-network", "--nodes", "10")
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [["--alpha", "1.0", "--alpha-frac", "0.8"], []],
                             ids=["both", "neither"])
    @pytest.mark.parametrize("argv", [
        ["scalarize", "--scenarios", "{scen}", "--weights", "1,1"],
        ["saa", "--scenarios", "{scen}", "--epsilon", "1.0"],
        ["converge", "--nu", "3", "--beta", "1.0,0.5", "--rho", "0.3", "--epsilon", "1.0",
         "--n-list", "5", "--n-ref", "10", "--seeds", "1"],
    ], ids=["scalarize", "saa", "converge"])
    def test_alpha_flags_need_exactly_one(self, pipeline, tmp_path, capsys, alpha, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*[a.format(scen=pipeline["scen"]) for a in argv],
                    "--network", pipeline["net"], *alpha, "--lambda", "0.25",
                    "--out", str(out))
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_import_loads_no_scipy(self):
        assert scipy_probe() == [0, []]

    def test_saa_loads_no_scipy(self, pipeline, tmp_path):
        out = str(tmp_path / "set.json")
        assert scipy_probe(
            "saa", "--network", pipeline["net"], "--scenarios", pipeline["scen"],
            "--alpha-frac", "0.8", "--lambda", "0.25", "--epsilon", "1.0",
            "--algo", "1", "--out", out) == [0, []]
        assert io.read_approx(out).feasible

    def test_sample_shocks_loads_no_scipy(self, pipeline, tmp_path):
        # the sampler's normal CDF is numpy's: no module under src/ loads scipy
        out = str(tmp_path / "scen.csv")
        assert scipy_probe(
            "sample-shocks", "--network", pipeline["net"], "--nu", "3",
            "--beta", "1.0,0.5", "--rho", "0.3", "--n", "10", "--seed", "3",
            "--out", out) == [0, []]
        assert io.read_scenarios(out).values.tobytes() == \
            io.read_scenarios(pipeline["scen"]).values.tobytes()

    def test_validation_error_exits_two(self, tmp_path, capsys):
        code = run_cli(
            "gen-network", "--nodes", "10", "--core-size", "2",
            "--theta", "0.9", "--eta", "0.6", "--zeta", "0.2",
            "--m", "4,2,3,1.5", "--seed", "7",
            "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "validation" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1.0,2.0", "1.0,x,2.0"])
    def test_malformed_scenarios_exit_two(self, pipeline, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        lines = open(pipeline["scen"]).read().splitlines()
        bad.write_text("\n".join(lines[:3] + [row] + lines[3:]) + "\n")
        code = run_cli(
            "saa", "--network", pipeline["net"], "--scenarios", str(bad),
            "--alpha-frac", "0.8", "--lambda", "0.25", "--epsilon", "1.0",
            "--algo", "1", "--out", str(tmp_path / "set.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed scenario CSV" in err and "Traceback" not in err

    _GEN = ["gen-network", "--nodes", "10", "--core-size", "2", "--theta", "0.2",
            "--eta", "0.6", "--zeta", "0.2", "--seed", "7"]
    _CONVERGE = ["converge", "--network", "{net}", "--nu", "3", "--beta", "1.0,0.5",
                 "--rho", "0.3", "--alpha-frac", "0.8", "--lambda", "0.25",
                 "--epsilon", "1.0", "--n-ref", "10", "--seeds", "1"]
    _SHOCKS = ["sample-shocks", "--network", "{net}", "--nu", "3", "--beta", "1.0,0.5",
               "--rho", "0.3", "--n", "5"]
    _SCALARIZE = ["scalarize", "--network", "{net}", "--scenarios", "{scen}",
                  "--alpha-frac", "0.8", "--lambda", "0.25"]
    _SAA = ["saa", "--network", "{net}", "--scenarios", "{scen}", "--alpha-frac", "0.8",
            "--lambda", "0.25"]
    # a set file whose generators and epsilon are filled in per case
    _SET = ('{{"epsilon": {eps}, "generators": {gens}, "ideal": [0.0, 0.0], '
            '"box": {{"lo": [0.0, 0.0], "hi": [5.0, 5.0]}}}}')

    @pytest.mark.parametrize("text, argv", [
        ("source,target\n0,1\n1,x\n", ["stats", "--graph", "{bad}", "--core-size", "2"]),
        ("source,target\n0,1\n1,2,3\n", ["stats", "--graph", "{bad}", "--core-size", "2"]),
        # a negative id would wrap around as a numpy index
        ("source,target\n-2,0\n0,1\n1,2\n2,0\n", ["stats", "--graph", "{bad}", "--core-size", "1"]),
        ('{"d": 2, "pbar": [1.0, ', ["clear", "--network", "{bad}", "--x", "1,1"]),
        ("", ["clear", "--network", "{net}", "--x", "1,1"]),
        ("", _GEN + ["--m", "1,2,3,abc"]),
        ("", _CONVERGE + ["--n-list", "5,abc"]),
        ("", _CONVERGE + ["--n-list", "0,10"]),
        ("", _CONVERGE + ["--n-list=-5,10"]),
        ("", _CONVERGE + ["--n-list", "5", "--seeds", "0"]),
        ("", ["saa", "--network", "{net}", "--scenarios", "{scen}", "--alpha-frac", "0.8",
              "--lambda", "1.5", "--epsilon", "1.0"]),
        ('{"d": 2, "pbar": [1.0, null], "pi": [[0, 1], [1, 0]], '
         '"grouping": {"g": 2, "assignment": [0, 1]}}',
         ["clear", "--network", "{bad}", "--x", "1,1"]),
        ('{"d": 2, "pbar": [1.0, 2.0], "pi": [[0, 1], [1, 0]], '
         '"grouping": {"g": 2, "assignment": [0, 1, 1]}}',
         ["clear", "--network", "{bad}", "--x", "1,1"]),
        ('{"d": 2, "pbar": [1.0, 2.0], "pi": [[0, 1], [1]], '
         '"grouping": {"g": 2, "assignment": [0, 1]}}',
         ["clear", "--network", "{bad}", "--x", "1,1"]),
        ('{"d": 2, "pbar": [1.0, 2.0], "pi": [[0, 1], [1, 0]], '
         '"grouping": {"g": 2, "assignment": [0.7, 1]}}',
         ["clear", "--network", "{bad}", "--x", "1,1"]),
        ('{"d": 2.5, "pbar": [1.0, 2.0], "pi": [[0, 1], [1, 0]], '
         '"grouping": {"g": 2, "assignment": [0, 1]}}',
         ["clear", "--network", "{bad}", "--x", "1,1"]),
        ("", ["clear", "--network", "{net}", "--x", "nan" + ",0" * 9]),
        ("", _GEN + ["--m", "nan,2,3,1.5"]),
        ("", _GEN + ["--m", "4,2,3,1", "--theta", "nan"]),
        ("", _GEN + ["--m", "4,2,3,1", "--delta-in", "nan"]),
        ("", _GEN + ["--m", "4,2,3,1", "--seed", "-3"]),
        ("", _SHOCKS + ["--seed", "-1"]),
        ("", _SHOCKS + ["--seed", str(2**128)]),
        ("", _CONVERGE + ["--n-list", "5", "--seed", "-5"]),
        ("", _SCALARIZE + ["--point", "0,0,0"]),
        ("", _SCALARIZE + ["--point", "nan,0"]),
        ("", _SCALARIZE + ["--weights", "1,1,1"]),
        ("", _SCALARIZE + ["--weights", "nan,1"]),
        ("", _SAA + ["--epsilon", "nan"]),
        ("", _SAA + ["--epsilon", "inf"]),
        # an unreachable alpha ends the search before any grid is built
        ("", ["saa", "--network", "{net}", "--scenarios", "{scen}", "--alpha-frac", "2",
              "--lambda", "0.25", "--epsilon", "inf"]),
        (_SET.format(gens="[[1.0, 2.0], [3.0]]", eps="1.0"), ["plotdata", "--in", "{bad}"]),
        (_SET.format(gens="[[1.0, 2.0]]", eps='"abc"'), ["plotdata", "--in", "{bad}"]),
        (_SET.format(gens="[[1.0, 2.0, 3.0]]", eps="1.0"), ["plotdata", "--in", "{bad}"]),
        (_SET.format(gens="[1.0, 2.0]", eps="1.0"), ["plotdata", "--in", "{bad}"]),
    ], ids=["edge-cell", "edge-columns", "edge-negative", "truncated-json", "x-length",
            "float-list", "int-list", "size-zero", "size-negative", "no-seeds",
            "lambda-above-one", "pbar-null", "assignment-long", "pi-ragged",
            "assignment-fraction", "d-fraction", "x-nan",
            "m-nan", "theta-nan", "delta-in-nan", "growth-seed-negative",
            "shocks-seed-negative", "shocks-seed-past-key-range", "converge-seed-negative",
            "point-long", "point-nan",
            "weights-long", "weights-nan", "epsilon-nan", "epsilon-inf",
            "epsilon-inf-unreachable-alpha", "set-ragged", "set-epsilon-text",
            "set-generator-long", "set-generator-flat"])
    def test_malformed_input_exits_two(self, pipeline, tmp_path, capsys, text, argv):
        bad = tmp_path / "bad"
        bad.write_text(text)
        code = run_cli(*[a.format(bad=bad, **pipeline) for a in argv],
                       "--out", str(tmp_path / "out.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw, argv", [
        (b"x1,x2\n1.5,2\n\xff\xfe,3\n",
         ["saa", "--network", "{net}", "--scenarios", "{bad}", "--alpha-frac", "0.8",
          "--lambda", "0.25", "--epsilon", "1.0"]),
        (b"source,target\n0,1\n\xff,2\n", ["stats", "--graph", "{bad}", "--core-size", "2"]),
        (b"x1\n\xff1" + b",1" * 9 + b"\n", ["clear", "--network", "{net}", "--x", "{bad}"]),
    ], ids=["scenarios", "edges", "x"])
    def test_bytes_that_are_not_utf8_exit_two(self, pipeline, tmp_path, capsys, raw, argv):
        bad = tmp_path / "bad"
        bad.write_bytes(raw)
        code = run_cli(*[a.format(bad=bad, **pipeline) for a in argv],
                       "--out", str(tmp_path / "out.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_infeasible_exits_three(self, pipeline, tmp_path):
        out = str(tmp_path / "ws.json")
        code = run_cli(
            "scalarize", "--network", pipeline["net"],
            "--scenarios", pipeline["scen"],
            "--alpha-frac", "1.5", "--lambda", "0.25",
            "--weights", "1,1", "--out", out)
        assert code == 3
        assert json.load(open(out))["status"] == "infeasible"

    def test_capacity_exits_four(self, pipeline, tmp_path, rng):
        net, grouping = io.read_network(pipeline["net"])
        # 13 banks exceeds the enumeration limit
        big = random_network(rng, 13)
        big_path = str(tmp_path / "big.json")
        io.write_network(big_path, big, sv.Grouping(g=2, assignment=np.r_[np.zeros(3, int), np.ones(10, int)]))
        code = run_cli("enumerate", "--network", big_path,
                       "--x", ",".join(["1.0"] * 13),
                       "--out", str(tmp_path / "e.json"))
        assert code == 4

    def test_oversized_sample_exits_four(self, pipeline, tmp_path, capsys):
        out = tmp_path / "big.csv"
        code = run_cli("sample-shocks", "--network", pipeline["net"], "--nu", "3",
                       "--beta", "1.0,0.5", "--rho", "0.3", "--n", "1000000000000",
                       "--seed", "0", "--out", str(out))
        assert code == 4
        err = capsys.readouterr().err
        assert "capacity" in err and "Traceback" not in err
        assert not out.exists()

    def test_budget_exhausted_exits_four(self, pipeline, tmp_path, monkeypatch, capsys):
        import functools
        import sysvar.cli
        from sysvar.scalarize import weighted_sum
        # the instance needs three nodes; a zero budget expands none
        monkeypatch.setattr(sysvar.cli, "weighted_sum",
                            functools.partial(weighted_sum, node_budget=0))
        out = str(tmp_path / "ws.json")
        code = run_cli(
            "scalarize", "--network", pipeline["net"],
            "--scenarios", pipeline["scen"],
            "--alpha-frac", "0.8", "--lambda", "0.25",
            "--weights", "1,1", "--out", out)
        assert code == 4
        payload = json.load(open(out))
        assert payload["status"] == "budget_exhausted"
        assert payload["nodes"] == 0
        assert payload["gap"] > 0 and len(payload["z"]) == 2
        assert os.path.exists(out + ".manifest.json")
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert {"event": "budget_exhausted", "mode": "weighted_sum",
                "nodes": payload["nodes"], "gap": payload["gap"]} in lines

    def test_clear_and_enumerate_outputs(self, pipeline, tmp_path):
        net, _ = io.read_network(pipeline["net"])
        out = str(tmp_path / "clear.json")
        assert run_cli("clear", "--network", pipeline["net"],
                       "--x", pipeline["scen"], "--method", "lp",
                       "--out", out) == 0
        payload = json.load(open(out))
        assert len(payload["p"]) == net.d
        assert payload["total_payment"] <= net.total_obligations + 1e-9
        # the solver's step count moves with solver internals, so it goes
        # to the manifest and the artifact holds only results
        assert "iterations" not in payload
        manifest = json.load(open(out + ".manifest.json"))
        assert type(manifest["solver"]["iterations"]) is int

    def test_enumerate_artifact_is_pinned(self, tmp_path):
        # the CI enumeration run, byte for byte: the listed patterns, their
        # rows and the JSON layout
        net = str(tmp_path / "net10.json")
        out = str(tmp_path / "polys.json")
        assert run_cli(
            "gen-network", "--nodes", "10", "--core-size", "2",
            "--theta", "0.2", "--eta", "0.6", "--zeta", "0.2",
            "--delta-in", "0.5", "--delta-out", "0.5",
            "--m", "400,200,300,150", "--seed", "3", "--out", net) == 0
        assert run_cli("enumerate", "--network", net,
                       "--x", "1,0,2,0,1,3,0,1,2,0", "--out", out) == 0
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        assert digest == "44aae1c8b85f25ba006c014a1832938fd71c63a6f4c213b07d6a17384eed45e1"

    def test_readme_scenarios_are_pinned(self, tmp_path):
        # the CI README pipeline's scen-a.csv, byte for byte: the Philox
        # stream, the copula and marginals, and the CSV formatter
        net = str(tmp_path / "net.json")
        out = str(tmp_path / "scen-a.csv")
        assert run_cli(
            "gen-network", "--nodes", "20", "--core-size", "4",
            "--theta", "0.2", "--eta", "0.6", "--zeta", "0.2",
            "--delta-in", "0.5", "--delta-out", "0.5",
            "--m", "400,200,300,150", "--seed", "7", "--out", net) == 0
        assert run_cli("sample-shocks", "--network", net, "--nu", "3", "--beta", "100,50",
                       "--rho", "0.3", "--n", "50", "--seed", "11", "--out", out) == 0
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        assert digest == "f1a44f16d643aa258bcee2959290e50a55054d72cf8574afe1ffd2cb3cd183f2"

    def test_alpha_frac_resolution(self, pipeline, tmp_path):
        net, _ = io.read_network(pipeline["net"])
        out = str(tmp_path / "ws.json")
        assert run_cli(
            "scalarize", "--network", pipeline["net"],
            "--scenarios", pipeline["scen"],
            "--alpha-frac", "0.8", "--lambda", "0.25",
            "--weights", "1,1", "--out", out) == 0
        payload = json.load(open(out))
        assert payload["alpha"] == pytest.approx(0.8 * net.total_obligations)

    def test_saa_roundtrip_and_manifest(self, pipeline, tmp_path):
        out = str(tmp_path / "set.json")
        assert run_cli(
            "saa", "--network", pipeline["net"], "--scenarios", pipeline["scen"],
            "--alpha-frac", "0.8", "--lambda", "0.25", "--epsilon", "1.0",
            "--algo", "1", "--threads", "1", "--out", out) == 0
        approx = io.read_approx(out)
        assert approx.feasible and len(approx.generators) >= 1
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["subcommand"] == "saa"
        assert "config_sha256" in manifest and "wall_time_s" in manifest

    def test_thread_count_does_not_change_bytes(self, pipeline, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "4")):
            out = str(tmp_path / f"set_{name}.json")
            assert run_cli(
                "saa", "--network", pipeline["net"],
                "--scenarios", pipeline["scen"],
                "--alpha-frac", "0.8", "--lambda", "0.25", "--epsilon", "1.0",
                "--algo", "1", "--threads", threads, "--out", out) == 0
            outs.append(open(out, "rb").read())
        # provenance embeds the thread flag; numeric payload must agree
        a = json.loads(outs[0]); b = json.loads(outs[1])
        a.pop("provenance"); b.pop("provenance")
        assert a == b

    def saa_with_events(self, pipeline, out, capsys):
        """Run ``saa --algo 1`` at DEBUG; its artifact bytes and log events."""
        capsys.readouterr()
        assert run_cli(
            "--log-level", "DEBUG", "saa", "--network", pipeline["net"],
            "--scenarios", pipeline["scen"], "--alpha-frac", "0.8", "--lambda", "0.25",
            "--epsilon", "0.5", "--algo", "1", "--out", out) == 0
        # leave the logger as a run at the default level does
        logging.getLogger("sysvar").setLevel(logging.WARNING)
        # one JSON object per line
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        return open(out, "rb").read(), {e["event"]: e for e in events}

    def test_debug_log_leaves_saa_artifacts_unchanged(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "set.json")
        debug, events = self.saa_with_events(pipeline, out, capsys)
        assert run_cli(
            "saa", "--network", pipeline["net"], "--scenarios", pipeline["scen"],
            "--alpha-frac", "0.8", "--lambda", "0.25", "--epsilon", "0.5",
            "--algo", "1", "--out", out) == 0
        assert open(out, "rb").read() == debug
        assert events["ideal_point"]["rows_cleared"] > 0
        done = events["grid_clearing_done"]
        assert done["rows_cleared"] > 0 and done["rows_decided"] > 0

    def test_sample_shocks_exit_codes(self, pipeline, tmp_path, monkeypatch, capsys):
        # valid samples exit 0; a set write_scenarios refuses exits 2 and
        # leaves no file behind
        args = ["sample-shocks", "--network", pipeline["net"], "--nu", "3",
                "--beta", "1.0,0.5", "--rho", "0.3", "--n", "2", "--seed", "3"]
        out = tmp_path / "bad" / "scen.csv"
        out.parent.mkdir()
        monkeypatch.setattr(sysvar.cli, "sample_shocks",
                            lambda params, grouping: sv.ScenarioSet(
                                values=np.array([[-1.0, np.nan]])))
        capsys.readouterr()
        assert run_cli(*args, "--out", str(out)) == 2
        assert "validation" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []
        monkeypatch.undo()
        assert run_cli(*args, "--out", str(out)) == 0
        assert io.read_scenarios(str(out)).n == 2

    def test_norm_min_grid_reports_nodes_and_exclusions(self, pipeline, tmp_path, capsys):
        # the DEBUG log stays one JSON object per line; its branch-and-bound
        # node and exclusion counts never reach the artifact
        out = str(tmp_path / "set.json")
        argv = ["saa", "--network", pipeline["net"], "--scenarios", pipeline["scen"],
                "--alpha-frac", "0.8", "--lambda", "0.25", "--epsilon", "0.5",
                "--algo", "2", "--out", out]
        capsys.readouterr()
        assert run_cli("--log-level", "DEBUG", *argv) == 0
        logging.getLogger("sysvar").setLevel(logging.WARNING)
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert all(isinstance(event, dict) for event in events)
        done = next(e for e in events if e["event"] == "grid_norm_min_done")
        fields = ("points", "solves", "fallbacks", "nodes", "excluded")
        assert all(type(done[key]) is int for key in fields)
        assert 0 < done["solves"] < done["points"]
        assert done["nodes"] > 0 and done["excluded"] > 0
        debug = open(out, "rb").read()
        assert b"nodes" not in debug and b"excluded" not in debug
        assert run_cli(*argv) == 0
        assert open(out, "rb").read() == debug

    def test_ideal_point_reports_its_oracle_work(self, tmp_path, capsys):
        # the README instance: 20 banks, 50 scenarios; the ray thresholds
        # predict both axes' bisections, so neither reruns on the oracle
        net, scen, out = (str(tmp_path / name) for name in ("net.json", "scen.csv", "set.json"))
        assert run_cli(
            "gen-network", "--nodes", "20", "--core-size", "4", "--theta", "0.2",
            "--eta", "0.6", "--zeta", "0.2", "--delta-in", "0.5", "--delta-out", "0.5",
            "--m", "400,200,300,150", "--seed", "7", "--out", net) == 0
        assert run_cli(
            "sample-shocks", "--network", net, "--nu", "3", "--beta", "100,50",
            "--rho", "0.3", "--n", "50", "--seed", "11", "--out", scen) == 0
        capsys.readouterr()
        assert run_cli(
            "--log-level", "DEBUG", "saa", "--network", net, "--scenarios", scen,
            "--alpha-frac", "0.8", "--lambda", "0.2", "--epsilon", "150", "--algo", "1",
            "--out", out) == 0
        logging.getLogger("sysvar").setLevel(logging.WARNING)
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        ideal = next(e for e in events if e["event"] == "ideal_point")
        assert ideal["reruns"] == 0
        # fewer rows than two plain bisections of 22 calls of 50 rows
        assert ideal["kernel_calls"] > 0 and 0 < ideal["rows_cleared"] < 2 * 22 * 50

    @pytest.mark.parametrize("points", [0, 3])
    def test_label_budget_leaves_saa_artifacts_unchanged(self, pipeline, tmp_path, capsys,
                                                         monkeypatch, points):
        # a scenario-label record that stores no point, or only its first
        # three, clears more rows and writes the same bytes
        out = str(tmp_path / "set.json")
        runs = [self.saa_with_events(pipeline, out, capsys)]
        # at N = 10 and g = 2 a point takes 2 bitmap bytes and 2 floats
        monkeypatch.setattr(sysvar.risk, "_LABEL_BUDGET_BYTES", points * 18)
        runs.append(self.saa_with_events(pipeline, out, capsys))
        (full, full_events), (capped, capped_events) = runs
        assert capped == full

        def cleared(events):
            return (events["ideal_point"]["rows_cleared"]
                    + events["grid_clearing_done"]["rows_cleared"])

        assert cleared(capped_events) > cleared(full_events)

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        blobs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / f"{name}.json")
            assert run_cli(
                "scalarize", "--network", pipeline["net"],
                "--scenarios", pipeline["scen"],
                "--alpha-frac", "0.8", "--lambda", "0.25",
                "--point", "0,0", "--out", out) == 0
            payload = json.loads(open(out).read())
            payload.pop("provenance")
            blobs.append(json.dumps(payload, sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_converge_writes_table(self, pipeline, tmp_path):
        out = str(tmp_path / "conv.csv")
        assert run_cli(
            "converge", "--network", pipeline["net"], "--nu", "3",
            "--beta", "1.0,0.5", "--rho", "0.3",
            "--alpha-frac", "0.8", "--lambda", "0.25", "--epsilon", "1.0",
            "--n-list", "5,10", "--n-ref", "10", "--seeds", "2", "--seed", "0",
            "--threads", "1", "--out", out) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0].startswith("seed,N,hausdorff_to_ref")
        assert len(lines) == 1 + 4 + 2

    def test_stats_against_network_grouping(self, pipeline, tmp_path):
        out = str(tmp_path / "st.json")
        assert run_cli("stats", "--graph", pipeline["graph"],
                       "--network", pipeline["net"], "--out", out) == 0
        payload = json.load(open(out))
        assert 0.0 <= payload["cpi"] <= 1.0


class TestOneProcess:
    # the README instance at N = 10, as the benchmark runs it: every
    # subcommand in one process through sysvar.cli.main
    STEPS = [
        ("net.json", ["gen-network", "--nodes", "20", "--core-size", "4", "--theta", "0.2",
                      "--eta", "0.6", "--zeta", "0.2", "--delta-in", "0.5",
                      "--delta-out", "0.5", "--m", "400,200,300,150", "--seed", "7",
                      "--out", "net.json"]),
        ("scen.csv", ["sample-shocks", "--network", "net.json", "--nu", "3",
                      "--beta", "100,50", "--rho", "0.3", "--n", "10", "--seed", "11",
                      "--out", "scen.csv"]),
        ("ws.json", ["scalarize", "--network", "net.json", "--scenarios", "scen.csv",
                     "--alpha-frac", "0.8", "--lambda", "0.2", "--weights", "1,1",
                     "--out", "ws.json"]),
        ("nm.json", ["scalarize", "--network", "net.json", "--scenarios", "scen.csv",
                     "--alpha-frac", "0.8", "--lambda", "0.2", "--point", "0,0",
                     "--out", "nm.json"]),
        ("a2.json", ["saa", "--network", "net.json", "--scenarios", "scen.csv",
                     "--alpha-frac", "0.8", "--lambda", "0.2", "--epsilon", "200",
                     "--algo", "2", "--out", "a2.json"]),
    ]

    def test_one_parser_writes_the_bytes_of_fresh_processes(self, tmp_path, monkeypatch):
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir()
        fresh.mkdir()
        builds = []
        build = sysvar.cli.build_parser

        def spy():
            builds.append(1)
            return build()

        monkeypatch.setattr(sysvar.cli, "build_parser", spy)
        sysvar.cli._parser.cache_clear()
        monkeypatch.chdir(one)
        for _, argv in self.STEPS:
            assert run_cli(*argv) == 0
        assert len(builds) == 1
        env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
        for _, argv in self.STEPS:
            subprocess.run([sys.executable, "-m", "sysvar.cli", *argv], cwd=fresh,
                           env=env, check=True)
        for name, _ in self.STEPS:
            assert (one / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_network_reuse_is_keyed_on_the_file_bytes(self, tmp_path, monkeypatch, capsys):
        # one process: a rerun on unchanged bytes builds no pattern system;
        # after the network file is rewritten with other obligations, the
        # artifact is a fresh process's; an invalid file after a valid one
        # exits 2
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        one.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(one)
        for _, argv in self.STEPS[:3]:
            assert run_cli(*argv) == 0
        before = (one / "ws.json").read_bytes()
        builds = []
        build = sysvar.clearing._PatternSystem

        def spy(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(sysvar.clearing, "_PatternSystem", spy)
        ws = self.STEPS[2][1]
        assert run_cli(*ws) == 0
        assert builds == [] and (one / "ws.json").read_bytes() == before
        network = json.loads((one / "net.json").read_text())
        network["pbar"] = [1.25 * v for v in network["pbar"]]
        for where in (one, fresh):
            (where / "net.json").write_text(json.dumps(network))
        (fresh / "scen.csv").write_bytes((one / "scen.csv").read_bytes())
        assert run_cli(*ws) == 0
        assert builds
        env = dict(os.environ, PYTHONPATH=str(Path(sv.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-m", "sysvar.cli", *ws], cwd=fresh, env=env,
                       check=True)
        after = (one / "ws.json").read_bytes()
        assert after == (fresh / "ws.json").read_bytes() and after != before
        network["pbar"][0] = None
        (one / "net.json").write_text(json.dumps(network))
        capsys.readouterr()
        assert run_cli(*ws) == 2
        assert "validation error" in capsys.readouterr().err

    def test_debug_level_does_not_outlive_its_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for _, argv in self.STEPS[:2]:
            assert run_cli(*argv) == 0
        saa = self.STEPS[-1][1]
        capsys.readouterr()
        assert run_cli("--log-level", "DEBUG", *saa) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert events and all(isinstance(event, dict) for event in events)
        assert run_cli(*saa) == 0
        assert capsys.readouterr().err == ""
