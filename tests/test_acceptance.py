"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its elapsed time.  The suite is fully deterministic: all
instances are built from fixed seeds.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import sysvar as sv
from sysvar.cli import main as cli_main
from sysvar.saa import Grid
from sysvar.util import max_violations
from conftest import (
    exhaustive_grid_generators,
    exp_scenarios,
    random_network,
    ring2,
    ring_grid_distance,
    subset_oracle_weighted,
    two_group_split,
)


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL after {time.time() - start:.1f}s")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed <= budget_s else f"PASS (over budget {budget_s}s)"
    print(f"criterion {number:2d} [{label}]: {status} in {elapsed:.1f}s")
    assert elapsed <= budget_s


def test_criterion_1_clearing_equivalence():
    with criterion(1, "clearing fixed point vs LP", 10):
        rng = np.random.default_rng(101)
        for k in range(100):
            d = (5, 10, 20)[k % 3]
            net = random_network(rng, d)
            x = rng.exponential(0.5, size=d)
            fp = sv.clearing_fixed_point(net, x)
            lp = sv.clearing_lp(net, x)
            assert np.abs(fp.p - lp.p).max() <= 1e-7


def test_criterion_2_aggregation_boundary():
    with criterion(2, "saturation and feasibility frontier", 5):
        rng = np.random.default_rng(102)
        net = random_network(rng, 8)
        grouping = two_group_split(rng, 8)
        hi = np.array([net.pbar[np.asarray(grouping.assignment) == j].max()
                       for j in range(2)])
        for _ in range(100):
            x = rng.exponential(0.7, size=8)
            value = sv.aggregate_en(net, x + grouping.spread(hi))
            assert abs(value - net.total_obligations) <= 1e-9
        scen = exp_scenarios(rng, 5, 8, 0.4)
        total = net.total_obligations
        w = np.ones(2)
        for alpha, expect in ((total - 1e-3, "optimal"), (total + 1e-3, "infeasible")):
            res = sv.weighted_sum(net, grouping, scen,
                                  sv.RiskSpec(alpha=alpha, lam=0.3), w)
            assert res.status == expect


def test_criterion_3_enumeration():
    with criterion(3, "clearing-vector enumeration", 60):
        # circular two-bank system: segment plus the full-payment point
        net = ring2([2.0, 2.0])
        polys = sv.enumerate_clearing_vectors(net, np.zeros(2))
        by_pattern = {tuple(p.y): p for p in polys}
        seg, top = by_pattern[(0, 0)], by_pattern[(1, 1)]
        ts = np.linspace(0.0, 2.0, 201)
        diag = np.stack([ts, ts], axis=1)
        from sysvar.clearing import polytope_contains
        assert all(polytope_contains(seg, p, net.pbar) for p in diag)
        assert polytope_contains(top, np.array([2.0, 2.0]), net.pbar)
        # the whole union is exactly the diagonal segment
        axes = np.linspace(0.0, 2.0, 101)
        mesh = np.stack(np.meshgrid(axes, axes, indexing="ij"), -1).reshape(-1, 2)
        in_union = np.array([
            any(polytope_contains(p, pt, net.pbar, tol=1e-9) for p in polys)
            for pt in mesh
        ])
        on_segment = np.abs(mesh[:, 0] - mesh[:, 1]) <= 1e-9
        assert np.array_equal(in_union, on_segment)

        rng = np.random.default_rng(103)
        tol = 1e-6
        for _ in range(20):
            net = random_network(rng, 3, pbar_range=(0.5, 1.5))
            x = rng.exponential(0.3, size=3)
            polys = sv.enumerate_clearing_vectors(net, x)
            axes = [np.linspace(0, b, 50) for b in net.pbar]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
            inflow = pts @ net.pi + x
            clearing = (
                (pts <= inflow + tol).all(axis=1)
                & ((pts >= net.pbar - tol) | (np.abs(pts - inflow) <= tol)).all(axis=1)
            )
            union = np.zeros(len(pts), dtype=bool)
            for poly in polys:
                ok = (pts @ poly.a_ub.T <= poly.b_ub + tol).all(axis=1)
                ok &= (np.abs(pts @ poly.a_eq.T - poly.b_eq) <= tol).all(axis=1)
                union |= ok
            assert np.array_equal(clearing, union)


def test_criterion_4_milp_correctness():
    with criterion(4, "weighted-sum MILP vs oracles", 120):
        rng = np.random.default_rng(104)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            n = int(rng.integers(4, 9))
            net = random_network(rng, d, pbar_range=(0.5, 2.0))
            grouping = two_group_split(rng, d)
            scen = exp_scenarios(rng, n, d, 0.3)
            spec = sv.RiskSpec(alpha=float(rng.uniform(0.7, 0.95)) * net.total_obligations,
                               lam=float(rng.uniform(0.15, 0.5)))
            w = rng.uniform(0.1, 1.0, size=2)
            box = sv.z_bounds(net, grouping, scen)
            res = sv.weighted_sum(net, grouping, scen, spec, w)
            oracle = subset_oracle_weighted(net, grouping, scen, spec, w, box)
            assert abs(res.value - oracle) <= 1e-6
        for _ in range(20):
            d = int(rng.integers(3, 9))
            n = int(rng.integers(8, 21))
            net = random_network(rng, d, pbar_range=(0.5, 2.0))
            grouping = two_group_split(rng, d)
            scen = exp_scenarios(rng, n, d, 0.3)
            spec = sv.RiskSpec(alpha=float(rng.uniform(0.75, 0.92)) * net.total_obligations,
                               lam=float(rng.uniform(0.2, 0.5)))
            j = int(rng.integers(0, 2))
            unit = np.zeros(2)
            unit[j] = 1.0
            milp = sv.weighted_sum(net, grouping, scen, spec, unit)
            bis = sv.bisection_unit(net, grouping, scen, spec, j)
            assert abs(milp.value - bis) <= 1e-5


def test_criterion_5_miqp_correctness():
    with criterion(5, "norm-min MIQP vs grid scan", 120):
        rng = np.random.default_rng(105)
        for _ in range(20):
            net = ring2(rng.uniform(0.4, 1.2, 2))
            grouping = sv.Grouping(g=2, assignment=np.array([0, 1]))
            scen = exp_scenarios(rng, 4, 2, 0.15)
            spec = sv.RiskSpec(alpha=float(rng.uniform(0.8, 0.92)) * net.total_obligations,
                               lam=0.3)
            box = sv.z_bounds(net, grouping, scen)
            v = box.lo - 0.05 + rng.uniform(0, 0.3, 2)
            res = sv.norm_min(net, grouping, scen, spec, v)
            oracle = ring_grid_distance(net, grouping, scen, spec, v, box)
            assert abs(res.value - oracle) <= 2e-3
            below = box.lo - rng.uniform(0.1, 1.0, 2)
            probe = sv.norm_min(net, grouping, scen, spec, below)
            assert probe.value > 0
            assert np.all(probe.z >= below - 1e-9)


def test_criterion_6_grid_algorithms():
    with criterion(6, "grid algorithms vs exhaustive and epsilon bound", 300):
        rng = np.random.default_rng(106)
        for _ in range(4):
            d = int(rng.integers(3, 5))
            net = random_network(rng, d, pbar_range=(0.5, 1.6))
            grouping = two_group_split(rng, d)
            scen = exp_scenarios(rng, int(rng.integers(4, 9)), d, 0.3)
            spec = sv.RiskSpec(alpha=0.87 * net.total_obligations,
                               lam=float(rng.uniform(0.25, 0.45)))
            eps = 0.3
            a1 = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
            a2 = sv.approximate_by_norm_min(net, grouping, scen, spec, eps)
            grid = Grid.build(a1.ideal, a1.box.hi, eps)
            assert grid.size <= 2500
            expected = exhaustive_grid_generators(net, grouping, scen, spec, grid)
            assert np.array_equal(a1.generators, expected)
            assert np.array_equal(a2.generators, expected)

        # moderate instance: inner approximation within epsilon
        params = sv.BollobasParams(theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5,
                                   delta_out=0.5, target_nodes=10, seed=5)
        m = sv.IntergroupLiabilityMatrix(values=np.array([[4.0, 2.0], [3.0, 1.5]]))
        net, grouping = sv.build_liabilities(sv.generate_bollobas(params), 2, m)
        shock = sv.ShockParams(nu=3.0, beta_by_group=np.array([1.0, 0.5]),
                               rho=0.3, n=50, seed=1)
        scen = sv.sample_shocks(shock, grouping)
        spec = sv.RiskSpec(alpha=0.8 * net.total_obligations, lam=0.2)
        eps = 0.5
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
        for gen in approx.generators:
            assert sv.membership(net, grouping, scen, spec, gen).accepted
        box = sv.z_bounds(net, grouping, scen)
        accepted = 0
        trials = 0
        while accepted < 1000:
            trials += 1
            assert trials < 50_000
            v = rng.uniform(box.lo, box.hi)
            if sv.membership(net, grouping, scen, spec, v).accepted:
                accepted += 1
                assert sv.distance_probe(v, approx) <= eps + 1e-9


def test_criterion_7_risk_axioms():
    with criterion(7, "set-valued risk axioms", 60):
        rng = np.random.default_rng(107)
        net = random_network(rng, 5, pbar_range=(0.5, 1.6))
        grouping = two_group_split(rng, 5)
        scen = exp_scenarios(rng, 12, 5, 0.3)
        spec = sv.RiskSpec(alpha=0.85 * net.total_obligations, lam=0.3)
        box = sv.z_bounds(net, grouping, scen)
        violations = 0
        for _ in range(1000):
            z = rng.uniform(box.lo - 0.2, box.hi)
            w = rng.uniform(0.0, 0.5, size=2)
            if (sv.membership(net, grouping, scen, spec, z).accepted
                    and not sv.membership(net, grouping, scen, spec, z + w).accepted):
                violations += 1
        assert violations == 0

        # translativity on dyadic grids is exact in floating point
        eps = 0.25 * np.sqrt(2)
        shift = np.array([8.0, 16.0])
        lo = np.floor(box.lo * 4) / 4
        hi = np.ceil(box.hi * 4) / 4
        base = sv.approximate_by_clearing(
            net, grouping, scen, spec, eps,
            box=sv.CapitalBox(lo=lo, hi=hi), grid_lo=lo)
        shifted_scen = sv.ScenarioSet(values=scen.values + grouping.spread(shift))
        shifted = sv.approximate_by_clearing(
            net, grouping, shifted_scen, spec, eps,
            box=sv.CapitalBox(lo=lo - shift, hi=hi - shift), grid_lo=lo - shift)
        assert np.array_equal(base.generators - shift, shifted.generators)

        # the represented set is an upper set by construction
        for _ in range(200):
            z = rng.uniform(box.lo, box.hi)
            if base.contains(z):
                assert base.contains(z + rng.uniform(0, 1.0, 2))


def test_criterion_8_insensitive_saa():
    with criterion(8, "insensitive quantile", 5):
        rng = np.random.default_rng(108)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            agg = rng.normal(5.0, 2.0, size=n)
            spec = sv.RiskSpec(alpha=float(rng.uniform(2.0, 8.0)),
                               lam=float(rng.uniform(0.05, 0.95)))
            r = sv.insensitive_saa(agg, spec)
            assert spec.alpha - agg.max() - 1e-12 <= r <= spec.alpha - agg.min() + 1e-12
            ys = np.arange(spec.alpha - agg.max() - 2e-4,
                           spec.alpha - agg.min() + 2e-4, 1e-4)
            counts = (agg[None, :] + ys[:, None] < spec.alpha).sum(axis=1)
            feasible = ys[counts <= max_violations(n, spec.lam)]
            assert abs(r - feasible.min()) <= 1e-4


def test_criterion_9_convergence_trend():
    with criterion(9, "sample-size convergence proxy", 1200):
        params = sv.BollobasParams(theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5,
                                   delta_out=0.5, target_nodes=10, seed=5)
        m = sv.IntergroupLiabilityMatrix(values=np.array([[4.0, 2.0], [3.0, 1.5]]))
        net, grouping = sv.build_liabilities(sv.generate_bollobas(params), 2, m)
        spec = sv.RiskSpec(alpha=0.8 * net.total_obligations, lam=0.2)
        shock = sv.ShockParams(nu=3.0, beta_by_group=np.array([1.0, 0.5]),
                               rho=0.3, n=400, seed=0)
        rows = sv.convergence_study(
            net, grouping, shock, spec,
            n_list=[25, 50, 100, 200], seeds=list(range(10)),
            epsilon=0.4, n_ref=400)
        medians = {r["N"]: r["hausdorff_to_ref"] for r in rows if r["seed"] == "median"}
        series = [medians[n] for n in (25, 50, 100, 200)]
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
        assert medians[200] <= 0.8 * medians[25]


def test_criterion_10_samplers_and_generator():
    with criterion(10, "samplers and generator", 60):
        with pytest.raises(sv.ValidationError):
            sv.generate_bollobas(sv.BollobasParams(
                theta=0.5, eta=0.4, zeta=0.2, delta_in=0.5, delta_out=0.5,
                target_nodes=5, seed=0))

        grouping = sv.Grouping(g=2, assignment=np.array([0, 0, 1, 1]))
        shock = sv.ShockParams(nu=3.0, beta_by_group=np.array([100.0, 50.0]),
                               rho=0.0, n=100_000, seed=3)
        scen = sv.sample_shocks(shock, grouping)
        for col, beta in ((0, 100.0), (2, 50.0)):
            x = scen.values[:, col]
            se = x.std(ddof=1) / np.sqrt(x.size)
            assert abs(x.mean() - beta / 2.0) <= 3 * se

        theta = 0.5
        hits = total = 0
        for seed in range(500):
            g = sv.generate_bollobas(sv.BollobasParams(
                theta=theta, eta=0.0, zeta=0.5, delta_in=0.5, delta_out=0.5,
                target_nodes=50, seed=seed))
            nxt = 1
            for s, t in g.edges[1:]:
                hits += int(s == nxt)
                nxt += 1
                total += 1
        sigma = np.sqrt(theta * (1 - theta) / total)
        assert abs(hits / total - theta) <= 3 * sigma

        star = np.zeros((3, 3))
        star[1, 0] = star[2, 0] = 1
        st = sv.network_stats(star, sv.Grouping(g=2, assignment=np.array([0, 1, 1])))
        assert st.cpi == pytest.approx(1.0)
        complete = np.ones((4, 4)) - np.eye(4)
        st = sv.network_stats(complete, sv.Grouping(g=2, assignment=np.array([0, 0, 1, 1])))
        assert st.cpi == pytest.approx(5 / 6)


def test_criterion_11_determinism(tmp_path, monkeypatch):
    with criterion(11, "byte-identical artifacts across reruns and threads", 300):
        def run(tag: str, threads: str) -> dict:
            # identical command lines in separate directories
            base = tmp_path / tag
            base.mkdir()
            monkeypatch.chdir(base)
            paths = {name: name for name in (
                "net.json", "graph.csv", "scen.csv", "clear.json", "enum.json",
                "ws.json", "nm.json", "set1.json", "set2.json", "conv.csv",
                "stats.json", "stairs.csv")}
            assert cli_main([
                "gen-network", "--nodes", "8", "--core-size", "2",
                "--theta", "0.2", "--eta", "0.6", "--zeta", "0.2",
                "--delta-in", "0.5", "--delta-out", "0.5",
                "--m", "4,2,3,1.5", "--seed", "7",
                "--graph-out", paths["graph.csv"], "--out", paths["net.json"]]) == 0
            common = ["--network", paths["net.json"]]
            assert cli_main([
                "sample-shocks", *common, "--nu", "3", "--beta", "1.0,0.5",
                "--rho", "0.3", "--n", "10", "--seed", "3",
                "--out", paths["scen.csv"]]) == 0
            assert cli_main([
                "clear", *common, "--x", paths["scen.csv"], "--method", "fp",
                "--out", paths["clear.json"]]) == 0
            assert cli_main([
                "enumerate", *common, "--x", ",".join(["0.2"] * 8),
                "--out", paths["enum.json"]]) == 0
            assert cli_main([
                "scalarize", *common, "--scenarios", paths["scen.csv"],
                "--alpha-frac", "0.8", "--lambda", "0.25",
                "--weights", "1,1", "--out", paths["ws.json"]]) == 0
            assert cli_main([
                "scalarize", *common, "--scenarios", paths["scen.csv"],
                "--alpha-frac", "0.8", "--lambda", "0.25",
                "--point", "0,0", "--out", paths["nm.json"]]) == 0
            for algo, out in (("1", "set1.json"), ("2", "set2.json")):
                assert cli_main([
                    "saa", *common, "--scenarios", paths["scen.csv"],
                    "--alpha-frac", "0.8", "--lambda", "0.25",
                    "--epsilon", "0.8", "--algo", algo,
                    "--threads", threads, "--out", paths[out]]) == 0
            assert cli_main([
                "converge", *common, "--nu", "3", "--beta", "1.0,0.5",
                "--rho", "0.3", "--alpha-frac", "0.8", "--lambda", "0.25",
                "--epsilon", "0.8", "--n-list", "5,10", "--n-ref", "10",
                "--seeds", "2", "--seed", "0", "--threads", threads,
                "--out", paths["conv.csv"]]) == 0
            assert cli_main([
                "stats", "--graph", paths["graph.csv"], "--network",
                paths["net.json"], "--out", paths["stats.json"]]) == 0
            assert cli_main([
                "plotdata", "--in", paths["set1.json"],
                "--out", paths["stairs.csv"]]) == 0
            return {name: open(base / p, "rb").read() for name, p in paths.items()}

        first = run("a", "1")
        again = run("b", "1")
        threaded = run("c", "4")
        for name in first:
            assert first[name] == again[name], f"rerun changed {name}"
            assert first[name] == threaded[name], f"threads changed {name}"
        # the two grid algorithms agree on the emitted set as well
        set1 = json.loads(first["set1.json"])
        set2 = json.loads(first["set2.json"])
        assert set1["generators"] == set2["generators"]
