"""The three benchmark workloads: input set-up, one timed pass, output checks.

All three use the README network (20 banks, 4 core, intergroup liabilities
400,200,300,150, network seed 7) and the README risk and shock parameters.
Only the scenario seeds come from the benchmark's ``--seed``: a run makes
one scenario set per seed in ``seeds`` and pass i uses set i mod len(seeds),
so a run's median covers several scenario sets instead of one draw.  Passes
drive the documented ``sysvar`` subcommands in-process through
``sysvar.cli.main`` and call the public API where no subcommand exists.
Library functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import sysvar.cli
import sysvar.clearing
import sysvar.io
import sysvar.risk
import sysvar.saa

NETWORK = ["--nodes", "20", "--core-size", "4", "--theta", "0.2", "--eta", "0.6",
           "--zeta", "0.2", "--delta-in", "0.5", "--delta-out", "0.5",
           "--m", "400,200,300,150", "--seed", "7"]
SHOCKS = ["--nu", "3", "--beta", "100,50", "--rho", "0.3"]
ALPHA_FRAC = 0.8
LAMBDA = 0.2
RISK = ["--alpha-frac", str(ALPHA_FRAC), "--lambda", str(LAMBDA)]
TOL = 1e-6


class PassFailed(Exception):
    """A subcommand exited nonzero."""


def cli(*argv) -> None:
    code = sysvar.cli.main([str(a) for a in argv])
    if code != 0:
        raise PassFailed(f"sysvar {argv[0]} exited with code {code}")


class Workload:
    """Inputs live in ``work``.  ``run_pass`` is the timed unit and returns
    what ``check`` needs; ``check`` returns a list of failures."""

    name = ""
    scenarios = 0   # scenarios per set made at set-up; 0 when the pass samples

    def __init__(self, work: Path, seeds: list[int]):
        self.work = work
        self.seeds = seeds
        self.net_path = work / "net.json"
        self.passes = 0

    def setup(self) -> None:
        """Generate the inputs and warm up; repeatable, same files each time."""
        cli("gen-network", *NETWORK, "--out", self.net_path)
        self.net, self.grouping = sysvar.io.read_network(str(self.net_path))
        self.spec = sysvar.risk.RiskSpec(alpha=ALPHA_FRAC * self.net.total_obligations,
                                         lam=LAMBDA)
        self.scen = []
        for k, seed in enumerate(self.seeds if self.scenarios else []):
            path = self.scen_path(k)
            cli("sample-shocks", "--network", self.net_path, *SHOCKS,
                "--n", self.scenarios, "--seed", seed, "--out", path)
            self.scen.append(sysvar.io.read_scenarios(str(path)))
            self.member(k, sysvar.risk.z_bounds(self.net, self.grouping, self.scen[k]).hi)

    def scen_path(self, k: int) -> Path:
        return self.work / f"scen-{k}.csv"

    def inputs(self, k: int) -> list:
        return ["--network", self.net_path, "--scenarios", self.scen_path(k), *RISK]

    def member(self, k: int, z) -> bool:
        z = np.asarray(z, dtype=float)
        return sysvar.risk.membership(self.net, self.grouping, self.scen[k], self.spec, z).accepted

    def run_pass(self):
        k = self.passes % len(self.seeds)
        self.passes += 1
        return k, self.answer(k)

    def answer(self, k: int):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError


def _load(path: Path) -> tuple[bytes, dict]:
    raw = path.read_bytes()
    return raw, json.loads(raw)


def _status(payload: dict, label: str) -> list[str]:
    if payload.get("status") != "optimal":
        return [f"{label}: status {payload.get('status')!r}"]
    if payload.get("gap", 0.0) > TOL:
        return [f"{label}: branch-and-bound gap {payload['gap']:.3e} above {TOL}"]
    return []


class GridClearing(Workload):
    """Algorithm 1 (membership grid search) on N=1000 scenarios, epsilon 150."""

    name = "grid_clearing"
    scenarios = 1000
    epsilon = 150

    def __init__(self, work: Path, seeds: list[int]):
        super().__init__(work, seeds)
        self.first_bytes: dict[int, bytes] = {}

    def answer(self, k: int) -> Path:
        out = self.work / f"set-{k}.json"
        cli("saa", *self.inputs(k), "--epsilon", self.epsilon, "--algo", 1, "--threads", 1,
            "--out", out)
        return out

    def check(self, out) -> list[str]:
        k, path = out
        raw, payload = _load(path)
        first = self.first_bytes.setdefault(k, raw)
        problems = [] if raw == first else ["artifact bytes differ from an earlier pass"]
        gens = np.asarray(payload["generators"], dtype=float)
        if not payload["feasible"] or gens.size == 0:
            return problems + ["grid search found no acceptable point"]
        problems += [f"generator {g.tolist()} rejected by membership"
                     for g in gens if not self.member(k, g)]
        for i, g in enumerate(gens):
            if np.any(np.all(gens <= g, axis=1) & np.any(gens < g, axis=1)):
                problems.append(f"generator {i} dominates another: not an antichain")
        return problems


class BnbScalarize(Workload):
    """Both scalarizations and algorithm 2 (epsilon 200) on N=10 scenarios."""

    name = "bnb_scalarize"
    scenarios = 10
    epsilon = 200
    point = np.zeros(2)

    def answer(self, k: int) -> tuple[Path, Path, Path]:
        ws, nm, a2 = (self.work / f"{f}-{k}.json" for f in ("ws", "nm", "a2"))
        cli("scalarize", *self.inputs(k), "--weights", "1,1", "--out", ws)
        cli("scalarize", *self.inputs(k), "--point", "0,0", "--out", nm)
        cli("saa", *self.inputs(k), "--epsilon", self.epsilon, "--algo", 2, "--threads", 1,
            "--out", a2)
        return ws, nm, a2

    def check(self, out) -> list[str]:
        k, paths = out
        ws, nm, a2 = (_load(p)[1] for p in paths)
        problems = _status(ws, "weighted sum") + _status(nm, "norm min")
        if problems:
            return problems
        ws_z = np.asarray(ws["z"], dtype=float)
        nm_z = np.asarray(nm["z"], dtype=float)
        for label, z in (("weighted-sum z", ws_z), ("norm-min z", nm_z)):
            if not self.member(k, z):
                problems.append(f"{label} {z.tolist()} rejected by membership")
        # each optimum is feasible for the other problem
        if ws["value"] > nm_z.sum() + TOL:
            problems.append(f"weighted-sum value {ws['value']} exceeds sum(nm.z) {nm_z.sum()}")
        reach = float(np.linalg.norm(ws_z - self.point))
        if nm["distance"] > reach + TOL:
            problems.append(f"norm-min distance {nm['distance']} exceeds |ws.z - point| {reach}")
        gens = np.asarray(a2["generators"], dtype=float)
        if not a2["feasible"] or gens.size == 0:
            problems.append("algorithm 2 found no acceptable point")
        problems += [f"algorithm 2 generator {g.tolist()} rejected by membership"
                     for g in gens if not self.member(k, g)]
        return problems


def picard_totals(pi: np.ndarray, pbar: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Total payments of the greatest clearing vectors by the plain capped
    Picard iteration p <- min(pbar, pi^T p + x) from p = pbar, run until it
    stops moving.  The iterates decrease monotonically to the fixed point."""
    p = np.tile(pbar, (xs.shape[0], 1))
    for _ in range(100_000):
        nxt = np.minimum(pbar, xs + p @ pi)
        if np.array_equal(nxt, p):
            return p.sum(axis=1)
        p = nxt
    raise RuntimeError("reference Picard iteration did not settle")


class LargeSample(Workload):
    """Sample 25,000 scenarios through the CLI, read them back, clear them
    in one batch, take the insensitive quantile, and classify two vectors:
    the box top (all-solvent shortcut) and a fixed vector that is not."""

    name = "large_sample"
    n = 25_000
    fixed = np.array([150.0, 30.0])
    checked_rows = np.linspace(0, n - 1, 1000).astype(int)

    def setup(self) -> None:
        super().setup()
        sysvar.clearing.aggregate_en_many(self.net, np.zeros((1, self.net.d)))

    def answer(self, k: int) -> dict:
        path = self.scen_path(k)
        cli("sample-shocks", "--network", self.net_path, *SHOCKS,
            "--n", self.n, "--seed", self.seeds[k], "--out", path)
        scen = sysvar.io.read_scenarios(str(path))
        aggregates = sysvar.clearing.aggregate_en_many(self.net, scen.values)
        quantile = sysvar.saa.insensitive_saa(aggregates, self.spec)
        box = sysvar.risk.z_bounds(self.net, self.grouping, scen)
        top = sysvar.risk.membership(self.net, self.grouping, scen, self.spec, box.hi)
        sysvar.risk.membership(self.net, self.grouping, scen, self.spec, self.fixed)
        return {"rows": scen.values[self.checked_rows], "aggregates": aggregates,
                "quantile": quantile, "top": top.accepted}

    def check(self, out) -> list[str]:
        _, out = out
        problems = [] if out["top"] else ["box top rejected by membership"]
        aggregates = out["aggregates"]
        k = math.floor(round(self.n * LAMBDA, 9))
        expected = self.spec.alpha - np.partition(aggregates, k)[k]
        if out["quantile"] != expected:
            problems.append(f"quantile {out['quantile']} != alpha - order statistic {expected}")
        pbar = np.asarray(self.net.pbar, dtype=float)
        ref = picard_totals(np.asarray(self.net.pi, dtype=float), pbar, out["rows"])
        err = float(np.abs(ref - aggregates[self.checked_rows]).max())
        if err > TOL * max(1.0, float(pbar.sum())):
            problems.append(f"aggregates differ from the Picard reference by {err:.3e}")
        return problems


WORKLOADS = {w.name: w for w in (GridClearing, BnbScalarize, LargeSample)}
