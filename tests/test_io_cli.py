import json
import os

import numpy as np
import pytest

import sysvar as sv
from sysvar import io
from sysvar.cli import main
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
        path.write_text("\n x1,x2\n1.5,2\n\n   \n0.25,1e-3\n\n")
        assert io.read_scenarios(str(path)).values.tolist() == [[1.5, 2.0], [0.25, 1e-3]]

    @pytest.mark.parametrize("body", ["1,2\n3\n", "1,2\n3,4,5\n", "1,abc\n", "1,2,\n",
                                      "# 1,2\n", "", "x1,x2,x3\n1,2\n3,4\n"])
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


def run_cli(*argv):
    return main(list(argv))


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

