"""Branch-and-bound over scenario binaries for the chance-constrained programs.

A model couples one payment vector per scenario with a binary marker that
certifies the scenario's aggregate payment reaches the threshold; at least
ceil(N*(1-lambda)) markers must be on.  Eliminating the payment vectors and
relaxing the markers projects every node onto a convex capital-space region:
each forced scenario contributes the concave constraint aggregate_n(z) >=
alpha, and the relaxed markers collapse to the concave counting constraint
sum over free scenarios of min(1, aggregate_n(z)/alpha) >= K - #forced.  The
node relaxation is therefore solved by supporting cuts with a tiny inner
problem per round (a least-distance projection for quadratic objectives, a
capital-space LP for linear ones).  Outer approximations only grow, so every
intermediate solution already gives a valid lower bound, and on convergence
the bound is the exact relaxation value; a fully fixed node (a leaf) is the
same computation without the counting constraint.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

# en_supergradient is not called here: cut slopes come from the batched kernel.
# The name stays bound because bench/tracing.py wraps sysvar.mip.en_supergradient.
from .clearing import aggregate_en_many, en_supergradient  # noqa: F401
from .network import FinancialNetwork, Grouping
from .optim import LinearProgram, min_norm_qp, solve_lp
from .shocks import ScenarioSet
from .util import (
    SolverError,
    ValidationError,
    log_event,
    required_hits,
    violates,
)

_GAP_TOL = 1e-6
_NODE_MAX_ROUNDS = 300


@dataclass(frozen=True)
class ScenarioMip:
    """Scalarization model over the sampled risk set intersected with a box."""

    net: FinancialNetwork
    grouping: Grouping
    scenarios: ScenarioSet
    alpha: float
    lam: float
    z_lower: np.ndarray
    z_upper: np.ndarray
    weights: np.ndarray | None = None
    center: np.ndarray | None = None

    def validate(self) -> None:
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        if not 0 < self.lam < 1:
            raise ValidationError("lambda must lie in (0, 1)")
        if np.any(np.asarray(self.z_lower) > np.asarray(self.z_upper) + 1e-12):
            raise ValidationError("z box is empty (lower > upper)")
        if (self.weights is None) == (self.center is None):
            raise ValidationError("exactly one of weights/center must be given")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0) or not np.any(w > 0):
                raise ValidationError("weights must be nonnegative and nonzero")
        self.grouping.validate(self.net.d)
        if self.scenarios.d != self.net.d:
            raise ValidationError("scenario dimension does not match the network")


@dataclass
class MipSolution:
    status: str
    z: np.ndarray | None
    objective: float
    y: np.ndarray | None
    nodes: int
    gap: float
    incumbent_trace: list = field(default_factory=list)


@dataclass
class _Relaxation:
    value: float
    z: np.ndarray
    y_frac: np.ndarray
    totals: np.ndarray
    converged: bool
    feasible_point: bool   # the relaxation optimum already satisfies the count


def _node_relax(
    model: ScenarioMip,
    y_fix: np.ndarray,
    hits: int,
    cut_cache: dict | None,
) -> _Relaxation:
    """Solve a node relaxation (or a leaf) by outer supporting cuts.

    Cuts for the forced pattern are facets of that pattern's region and are
    shared through ``cut_cache`` across nodes and repeated solves; counting
    cuts depend on the node's free set and stay local.  The loop adds one
    supergradient cut per violated constraint and re-solves the small inner
    problem until the iterate satisfies everything, which happens after
    finitely many rounds because the aggregation function is piecewise
    linear in the capital vector.
    """
    quadratic = model.center is not None
    grouping = model.grouping
    scen = np.asarray(model.scenarios.values, dtype=float)
    n_scen = scen.shape[0]
    bmat = grouping.matrix.astype(float)
    forced = np.flatnonzero(y_fix == 1)
    free = np.flatnonzero(y_fix == -1)
    need = hits - forced.size

    key = frozenset(int(n) for n in forced)
    if cut_cache is not None:
        if key not in cut_cache:
            cut_cache[key] = ([], [])
        pat_a, pat_b = cut_cache[key]
    else:
        pat_a, pat_b = [], []
    count_a: list[np.ndarray] = []
    count_b: list[float] = []

    if quadratic:
        v = np.asarray(model.center, dtype=float)
    else:
        w = np.asarray(model.weights, dtype=float)

    def inner(rows, rhs) -> np.ndarray:
        if quadratic:
            a = np.asarray(rows) if rows else None
            b = np.asarray(rhs) if rhs else None
            res = min_norm_qp(v, a, b, model.z_lower, model.z_upper)
            return np.clip(res.z, model.z_lower, model.z_upper)
        lp = LinearProgram(
            c=w,
            a_ub=np.asarray(rows) if rows else None,
            b_ub=np.asarray(rhs) if rhs else None,
            lower=np.asarray(model.z_lower, dtype=float),
            upper=np.asarray(model.z_upper, dtype=float),
        )
        res = solve_lp(lp)
        if res.status != "optimal":
            # valid cuts always keep the box top feasible
            raise SolverError(f"cut relaxation returned status {res.status}")
        return np.clip(res.x, model.z_lower, model.z_upper)

    z = None
    converged = False
    for _ in range(_NODE_MAX_ROUNDS):
        z = inner(pat_a + count_a, pat_b + count_b)
        totals, grads = aggregate_en_many(
            model.net, np.maximum(scen + grouping.spread(z), 0.0), supergradients=True)
        ok = True
        for n in forced:
            if violates(totals[n], model.alpha):
                slope = bmat @ grads[n]
                pat_a.append(-slope)
                pat_b.append(float(totals[n] - slope @ z - model.alpha))
                ok = False
        if need > 0 and free.size:
            caps = np.minimum(totals[free] / model.alpha, 1.0)
            phi = float(caps.sum())
            if phi < need - 1e-9:
                slope = np.zeros(grouping.g)
                for n in free[caps < 1.0]:
                    slope += (bmat @ grads[n]) / model.alpha
                count_a.append(-slope)
                count_b.append(float(phi - slope @ z - need))
                ok = False
        if ok:
            converged = True
            break

    y_frac = np.zeros(n_scen)
    y_frac[forced] = 1.0
    if free.size:
        y_frac[free] = np.minimum(np.maximum(totals[free], 0.0) / model.alpha, 1.0)
    passing = forced.size + int(np.count_nonzero(~violates(totals[free], model.alpha)))
    value = float(np.sum((v - z) ** 2)) if quadratic else float(w @ z)
    return _Relaxation(
        value=value, z=z, y_frac=y_frac, totals=totals,
        converged=converged, feasible_point=passing >= hits,
    )


def branch_and_bound(
    model: ScenarioMip,
    node_budget: int = 100_000,
    gap_tol: float = _GAP_TOL,
    cut_cache: dict | None = None,
) -> MipSolution:
    """Globally minimize the model objective over the mixed-binary region.

    Best-bound search branching on the most fractional marker; first
    incumbent from rounding the relaxation (the required number of scenarios
    with the largest relaxed payments).  ``cut_cache`` optionally shares the
    per-pattern supporting cuts across repeated solves on the same data.
    Linear objectives report the absolute gap; least-distance objectives
    report it on the distance scale so callers can shrink exclusion radii
    safely.
    """
    model.validate()
    n_scen = model.scenarios.n
    hits = required_hits(n_scen, model.lam)
    quadratic = model.center is not None

    if model.alpha > model.net.total_obligations:
        return MipSolution("infeasible", None, np.nan, None, 0, np.nan)

    z_lo = np.asarray(model.z_lower, dtype=float)
    z_hi = np.asarray(model.z_upper, dtype=float)

    if hits == 0:
        # chance constraint is vacuous; only the box binds
        if quadratic:
            z = np.clip(np.asarray(model.center, dtype=float), z_lo, z_hi)
            obj = float(np.sum((z - model.center) ** 2))
        else:
            z = z_lo.copy()
            obj = float(np.asarray(model.weights) @ z)
        return MipSolution("optimal", z, obj, np.zeros(n_scen, dtype=int), 0, 0.0)

    if cut_cache is None:
        cut_cache = {}

    inc_obj = np.inf
    inc_z: np.ndarray | None = None
    inc_y: np.ndarray | None = None
    trace: list[tuple[int, float]] = []
    leaf_memo: dict[frozenset, tuple[np.ndarray, float]] = {}
    nodes_done = 0

    def leaf_value(members: frozenset) -> tuple[np.ndarray, float]:
        if members in leaf_memo:
            return leaf_memo[members]
        fix = np.zeros(n_scen, dtype=np.int8)
        fix[list(members)] = 1
        relax = _node_relax(model, fix, hits, cut_cache)
        if not relax.converged:
            raise SolverError("leaf cut model failed to converge")
        out = (relax.z, relax.value)
        leaf_memo[members] = out
        return out

    def try_incumbent(members: frozenset, node_idx: int) -> None:
        nonlocal inc_obj, inc_z, inc_y
        if len(members) < hits:
            return
        z, obj = leaf_value(members)
        if obj < inc_obj - 1e-12:
            inc_obj = obj
            inc_z = z
            inc_y = np.zeros(n_scen, dtype=int)
            inc_y[list(members)] = 1
            trace.append((node_idx, obj))
            log_event("bnb_incumbent", node=node_idx, objective=obj)

    def rounding_pattern(totals: np.ndarray, y_fix: np.ndarray) -> frozenset:
        forced = set(np.flatnonzero(y_fix == 1).tolist())
        banned = set(np.flatnonzero(y_fix == 0).tolist())
        free_sorted = sorted(
            (n for n in range(n_scen) if n not in forced and n not in banned),
            key=lambda n: (-totals[n], n),
        )
        extra = max(hits - len(forced), 0)
        return frozenset(forced | set(free_sorted[:extra]))

    def prune_ok(bound: float) -> bool:
        if not np.isfinite(inc_obj):
            return False
        if quadratic:
            return np.sqrt(max(bound, 0.0)) >= np.sqrt(inc_obj) - gap_tol
        return bound >= inc_obj - gap_tol

    def evaluate(y_fix: np.ndarray) -> _Relaxation | None:
        if int((y_fix == 0).sum()) > n_scen - hits:
            return None
        return _node_relax(model, y_fix, hits, cut_cache)

    root_fix = np.full(n_scen, -1, dtype=np.int8)
    root = evaluate(root_fix)
    if root is None:
        return MipSolution("infeasible", None, np.nan, None, 1, np.nan)
    try_incumbent(rounding_pattern(root.totals, root_fix), 0)

    heap: list = []
    counter = 0
    heapq.heappush(heap, (root.value, counter, root_fix, root))
    final_lb: float | None = None
    exhausted = False

    while heap:
        bound, _, y_fix, relax = heapq.heappop(heap)
        if prune_ok(bound):
            final_lb = bound
            break
        if nodes_done >= node_budget:
            # the popped node is not expanded, so it is not counted
            exhausted = True
            final_lb = min([bound] + [h[0] for h in heap])
            break
        nodes_done += 1

        free = np.flatnonzero(y_fix == -1)
        if free.size == 0:
            try_incumbent(frozenset(np.flatnonzero(y_fix == 1).tolist()), nodes_done)
            continue
        if relax.converged and relax.feasible_point:
            # the relaxation optimum itself satisfies the count, so the node
            # cannot beat it: record and close
            try_incumbent(rounding_pattern(relax.totals, y_fix), nodes_done)
            continue

        frac = np.abs(relax.y_frac[free] - np.round(relax.y_frac[free]))
        if np.all(frac <= 1e-12):
            pick = free[0]
        else:
            order = np.lexsort((free, -frac))
            pick = free[order[0]]

        for value in (1, 0):
            child = y_fix.copy()
            child[pick] = value
            child_relax = evaluate(child)
            if child_relax is None:
                continue
            child_bound = max(child_relax.value, bound)
            if prune_ok(child_bound):
                continue
            try_incumbent(rounding_pattern(child_relax.totals, child), nodes_done)
            counter += 1
            heapq.heappush(heap, (child_bound, counter, child, child_relax))

    if inc_z is None:
        return MipSolution("infeasible", None, np.nan, None, nodes_done, np.nan)

    if final_lb is None:
        # the tree was exhausted: the incumbent is exactly optimal
        final_lb = inc_obj
    remaining = min(final_lb, inc_obj)
    if quadratic:
        gap = float(np.sqrt(inc_obj) - np.sqrt(max(remaining, 0.0)))
    else:
        gap = float(inc_obj - remaining)
    status = "budget_exhausted" if exhausted else "optimal"
    log_event("bnb_done", status=status, nodes=nodes_done, gap=gap, objective=inc_obj)
    return MipSolution(
        status=status,
        z=inc_z,
        objective=float(inc_obj),
        y=inc_y,
        nodes=nodes_done,
        gap=max(gap, 0.0),
        incumbent_trace=trace,
    )
