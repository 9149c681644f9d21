"""Shared instance builders and independent oracles.

The oracles here deliberately avoid the library's solution paths: the 2-bank
ring has a closed-form clearing vector, batch clearing uses a plain capped
Picard iteration, the weighted-sum oracle enumerates scenario subsets and
solves each with scipy's HiGHS, unit
weights have a plain bisection on the membership oracle, and distances come
from dense grid scans.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import sysvar as sv
import sysvar.clearing
import sysvar.risk
import sysvar.shocks
from sysvar.util import max_violations, required_hits


def random_network(rng: np.random.Generator, d: int, pbar_range=(0.5, 3.0)) -> sv.FinancialNetwork:
    pi = rng.uniform(0.1, 1.0, size=(d, d))
    np.fill_diagonal(pi, 0.0)
    pi /= pi.sum(axis=1, keepdims=True)
    pbar = rng.uniform(*pbar_range, size=d)
    return sv.FinancialNetwork(d=d, pi=pi, pbar=pbar)


def two_group_split(rng: np.random.Generator, d: int) -> sv.Grouping:
    assignment = np.sort(rng.integers(0, 2, size=d))
    if assignment.min() == assignment.max():
        assignment[0] = 0
        assignment[-1] = 1
    return sv.Grouping(g=2, assignment=assignment)


def ring2(pbar) -> sv.FinancialNetwork:
    return sv.FinancialNetwork(
        d=2, pi=np.array([[0.0, 1.0], [1.0, 0.0]]), pbar=np.asarray(pbar, dtype=float)
    )


def ring2_totals(pbar: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Closed-form maximal clearing total for the 2-bank ring (batched)."""
    p1 = np.minimum(pbar[0], pbar[1] + x[..., 0])
    p2 = np.minimum(pbar[1], pbar[0] + x[..., 1])
    return p1 + p2


def picard_totals(net: sv.FinancialNetwork, xs: np.ndarray, sweeps: int = 400) -> np.ndarray:
    """Batched capped Picard iteration from the obligation vector."""
    xs = np.asarray(xs, dtype=float)
    p = np.broadcast_to(net.pbar, xs.shape).copy()
    for _ in range(sweeps):
        nxt = np.minimum(xs + p @ net.pi, net.pbar)
        if np.abs(nxt - p).max() < 1e-13:
            p = nxt
            break
        p = nxt
    return p.sum(axis=-1)


def subset_oracle_weighted(net, grouping, scenarios, spec, weights, box) -> float:
    """Exhaustive scan over scenario subsets of the required size, each an LP
    solved by HiGHS."""
    n, d = scenarios.values.shape
    g = grouping.g
    k = required_hits(n, spec.lam)
    if k == 0:
        return float(np.asarray(weights) @ box.lo)
    flow = np.eye(d) - net.pi.T
    assignment = np.asarray(grouping.assignment)
    best = np.inf
    for subset in itertools.combinations(range(n), k):
        ncols = g + len(subset) * d
        c = np.zeros(ncols)
        c[:g] = weights
        rows, rhs = [], []
        for slot, scen_idx in enumerate(subset):
            a = np.zeros((d, ncols))
            a[:, g + slot * d: g + (slot + 1) * d] = flow
            a[np.arange(d), assignment] = -1.0
            rows.append(a)
            rhs.append(scenarios.values[scen_idx])
            agg = np.zeros(ncols)
            agg[g + slot * d: g + (slot + 1) * d] = -1.0
            rows.append(agg[None, :])
            rhs.append(np.array([-spec.alpha]))
        res = linprog(
            c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
            bounds=list(zip(np.concatenate([box.lo, np.zeros(len(subset) * d)]),
                            np.concatenate([box.hi, np.tile(net.pbar, len(subset))]))),
            method="highs")
        if res.status == 0:
            best = min(best, res.fun)
    return best


def ring_membership_mask(net, grouping, scenarios, spec, z_points: np.ndarray) -> np.ndarray:
    """Vectorized membership over many capital vectors, 2-ring networks only."""
    assignment = np.asarray(grouping.assignment)
    shifted = scenarios.values[None, :, :] + z_points[:, None, assignment]
    selection = (shifted >= -1e-9).all(axis=(1, 2))
    totals = ring2_totals(net.pbar, np.maximum(shifted, 0.0))
    violations = (totals < spec.alpha - 1e-9).sum(axis=1)
    return selection & (violations <= max_violations(scenarios.n, spec.lam))


def ring_grid_distance(net, grouping, scenarios, spec, v, box, step=1e-3) -> float:
    """Dense z-grid scan of the distance to the sampled set (2-ring only)."""
    z1 = np.arange(box.lo[0], box.hi[0] + step, step)
    z2 = np.arange(box.lo[1], box.hi[1] + step, step)
    best = np.inf
    for start in range(0, len(z1), 400):
        part = z1[start:start + 400]
        zz = np.stack(np.meshgrid(part, z2, indexing="ij"), -1).reshape(-1, 2)
        ok = ring_membership_mask(net, grouping, scenarios, spec, zz)
        if ok.any():
            best = min(best, float(np.linalg.norm(zz[ok] - v, axis=1).min()))
    return best


def brute_force_generators(grid, status) -> np.ndarray:
    """Minimal acceptable points by pairwise componentwise dominance over
    the acceptable points, sorted lexicographically by value."""
    points = np.array([grid.value(tuple(idx)) for idx in np.argwhere(status == 1)],
                      dtype=float).reshape(-1, len(grid.shape))
    minimal = np.array([not np.any(np.all(points <= p, axis=1) & np.any(points < p, axis=1))
                        for p in points], dtype=bool)
    gens = points[minimal]
    return gens[np.lexsort(gens.T[::-1])]


def exhaustive_grid_generators(net, grouping, scenarios, spec, grid) -> np.ndarray:
    """Classify every grid point with the membership oracle, then extract
    the minimal acceptable points by brute force."""
    status = np.zeros(grid.shape, dtype=np.int8)
    for idx in itertools.product(*[range(s) for s in grid.shape]):
        ok = sv.membership(net, grouping, scenarios, spec, grid.value(idx)).accepted
        status[idx] = 1 if ok else 2
    return brute_force_generators(grid, status)


def plain_bisection(net, grouping, scenarios, spec, j, box) -> float:
    """Least acceptable z_j with the other coordinates at the box top, by
    bisection to a 1e-6 bracket on the membership oracle alone."""
    def accepted(t):
        z = np.array(box.hi, dtype=float)
        z[j] = t
        return sv.membership(net, grouping, scenarios, spec, z).accepted

    if accepted(box.lo[j]):
        return float(box.lo[j])
    left, right = float(box.lo[j]), float(box.hi[j])
    while right - left > 1e-6:
        mid = 0.5 * (left + right)
        if accepted(mid):
            right = mid
        else:
            left = mid
    return right


def readme_instance(n=10, seed=11):
    """The README network (gen-network --seed 7) with its 10-scenario sample
    (sample-shocks --n 10 --seed 11, or another size and seed) and the
    README risk parameters."""
    graph = sv.generate_bollobas(sv.BollobasParams(
        theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5, delta_out=0.5,
        target_nodes=20, seed=7))
    net, grouping = sv.build_liabilities(graph, 4, sv.IntergroupLiabilityMatrix(
        values=np.array([[400.0, 200.0], [300.0, 150.0]])))
    scen = sv.sample_shocks(sv.ShockParams(
        nu=3.0, beta_by_group=np.array([100.0, 50.0]), rho=0.3, n=n, seed=seed), grouping)
    spec = sv.RiskSpec(alpha=0.8 * net.total_obligations, lam=0.2)
    return net, grouping, scen, spec


def blocks_of(monkeypatch, rows):
    """Run the kernel's, the oracle's and the sampler's N-row passes in
    blocks of ``rows`` rows."""
    for module in (sysvar.clearing, sysvar.risk, sysvar.shocks):
        monkeypatch.setattr(module, "row_block", lambda width: rows)


def exp_scenarios(rng: np.random.Generator, n: int, d: int, scale: float) -> sv.ScenarioSet:
    return sv.ScenarioSet(values=rng.exponential(scale, size=(n, d)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
