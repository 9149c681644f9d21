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
same computation without the counting constraint.  A node whose forced
pattern has no cuts yet starts at the uncut point, the inner optimum with
no cuts (the box projection of the center, or the box optimum of the
weights); it is the same for every node of a solve, so each solve finds and
clears it once.  Each solve keeps every pattern's cuts in its own table,
as arrays that grow by the rows of each round.  A round builds its cuts
from one stacked product over the short scenarios' supergradients and one
over the counted ones, and its rounding pattern with one ``lexsort``.  Each
stacked row is still one matrix-vector product and the counting slope a
sequential ``cumsum``, so the cuts keep a per-scenario loop's bits; one
``grads @ bmat.T`` is a matrix-matrix product and moves the last bits.  The
model and its values check themselves when built, so a solve neither
checks nor converts them again.
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
from .risk import CapitalBox, RiskSpec, out_of_reach
from .shocks import ScenarioSet
from .util import (
    SolverError,
    ValidationError,
    frozen_array,
    log_event,
    required_hits,
    violates,
)

_GAP_TOL = 1e-6
_NODE_MAX_ROUNDS = 300


@dataclass(frozen=True)
class ScenarioMip:
    """Scalarization model over the sampled risk set intersected with a box.

    Checked when built for what its values cannot check alone: exactly one
    objective, a finite vector per group kept as a read-only copy (weights
    nonnegative, not all zero), and the grouping, scenarios and box against
    the network and the group count.
    """

    net: FinancialNetwork
    grouping: Grouping
    scenarios: ScenarioSet
    spec: RiskSpec
    box: CapitalBox
    weights: np.ndarray | None = None
    center: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.weights is None) == (self.center is None):
            raise ValidationError("exactly one of weights/center must be given")
        name = "weights" if self.center is None else "center"
        target = frozen_array(getattr(self, name), name)
        if target.shape != (self.grouping.g,):
            raise ValidationError(f"{name} must have one entry per group")
        if name == "weights" and (np.any(target < 0) or not np.any(target > 0)):
            raise ValidationError("weights must be nonnegative and not all zero")
        object.__setattr__(self, name, target)
        self.grouping.check_banks(self.net.d)
        if self.scenarios.d != self.net.d:
            raise ValidationError("scenario dimension does not match the network")
        if self.box.lo.shape != (self.grouping.g,):
            raise ValidationError("box bounds must have one entry per group")


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
    rounds: int            # cut rounds, a reused uncut round included


@dataclass(frozen=True)
class _SolveData:
    """What every node relaxation of one solve shares, built once per solve."""

    scen: np.ndarray      # scenario cash flows
    bmat: np.ndarray      # the grouping matrix in floats
    target: np.ndarray    # the center (least distance) or the weights (linear)
    no_cuts: tuple        # an empty cut set: 0 x g rows and 0 right-hand sides

    @classmethod
    def of(cls, model: ScenarioMip) -> _SolveData:
        return cls(
            scen=model.scenarios.values,
            bmat=model.grouping.matrix.astype(float),
            target=model.center if model.center is not None else model.weights,
            no_cuts=(np.empty((0, model.grouping.g)), np.empty(0)),
        )


def pattern_cuts(bmat, grads, totals, z, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Cuts ``-s_n @ z' <= totals_n - s_n @ z - alpha``, ``s_n = bmat @ grads_n``."""
    slopes = (bmat @ grads[:, :, None])[:, :, 0]
    return -slopes, totals - (slopes[:, None] @ z)[:, 0] - alpha


def counting_slope(bmat, grads, alpha) -> np.ndarray:
    """``sum_n (bmat @ grads_n) / alpha``, added in row order from zero."""
    terms = (bmat @ grads[:, :, None])[:, :, 0] / alpha
    return np.cumsum(np.concatenate([np.zeros((1, bmat.shape[0])), terms]), axis=0)[-1]


def rounding_pattern(totals: np.ndarray, y_fix: np.ndarray, hits: int) -> frozenset:
    """The forced scenarios and, up to ``hits`` in all, the free ones with
    the largest totals, ties to the lower index."""
    forced, free = np.flatnonzero(y_fix == 1), np.flatnonzero(y_fix == -1)
    top = free[np.lexsort((free, -totals[free]))][:max(hits - forced.size, 0)]
    return frozenset(forced.tolist() + top.tolist())


def _node_relax(
    model: ScenarioMip,
    y_fix: np.ndarray,
    hits: int,
    cuts: dict,
    uncut: list,
    data: _SolveData,
) -> _Relaxation:
    """Solve a node relaxation (or a leaf) by outer supporting cuts.

    Cuts for the forced pattern are facets of that pattern's region and are
    shared through ``cuts`` across the nodes of one solve, as a pair of
    arrays (rows, right-hand sides); counting cuts depend on the node's free
    set and stay local.  The inner problem takes the pattern cuts first,
    then the counting cuts.  The loop adds one supergradient cut per
    violated constraint and re-solves the small inner problem until the
    iterate satisfies everything, which happens after finitely many rounds
    because the aggregation function is piecewise linear in the capital
    vector.

    A round without cuts solves the same inner problem at every node of a
    solve, so ``uncut`` keeps the solve's first such round, ``(z, totals,
    grads)``, and later ones reuse it without an inner solve or a clearing
    call.
    """
    quadratic = model.center is not None
    box, alpha = model.box, model.spec.alpha
    # cuts and caps at a line the box top meets, so solve_lp has a corner:
    # T, where alpha lies in its VIOL_TOL band past the obligations T
    reach = min(alpha, model.net.total_obligations)
    forced = np.flatnonzero(y_fix == 1)
    free = np.flatnonzero(y_fix == -1)
    need = hits - forced.size
    key = frozenset(forced.tolist())
    count_a, count_b = data.no_cuts

    def inner(rows, rhs) -> np.ndarray:
        if quadratic:
            res = min_norm_qp(data.target, rows, rhs, box)
            return np.clip(res.z, box.lo, box.hi)
        res = solve_lp(LinearProgram(c=data.target, a_ub=rows, b_ub=rhs,
                                     lower=box.lo, upper=box.hi))
        return np.clip(res.x, box.lo, box.hi)

    converged = False
    for rounds in range(1, _NODE_MAX_ROUNDS + 1):
        pat_a, pat_b = cuts.get(key, data.no_cuts)
        rows, rhs = np.concatenate([pat_a, count_a]), np.concatenate([pat_b, count_b])
        if rhs.size or not uncut:
            z = inner(rows, rhs)
            totals, grads = aggregate_en_many(
                model.net, np.maximum(data.scen + model.grouping.spread(z), 0.0),
                supergradients=True)
            if not rhs.size:
                uncut.append((z, totals, grads))
        else:
            z, totals, grads = uncut[0]
        ok = True
        short = forced[violates(totals[forced], alpha)]
        if short.size:
            new_a, new_b = pattern_cuts(data.bmat, grads[short], totals[short], z, reach)
            cuts[key] = (np.concatenate([pat_a, new_a]), np.concatenate([pat_b, new_b]))
            ok = False
        if need > 0 and free.size:
            caps = np.minimum(totals[free] / reach, 1.0)
            phi = float(caps.sum())
            if phi < need - 1e-9:
                slope = counting_slope(data.bmat, grads[free[caps < 1.0]], reach)
                count_a = np.concatenate([count_a, -slope[None, :]])
                count_b = np.concatenate([count_b, [phi - slope @ z - need]])
                ok = False
        if ok:
            converged = True
            break

    y_frac = np.zeros(data.scen.shape[0])
    y_frac[forced] = 1.0
    y_frac[free] = np.minimum(np.maximum(totals[free], 0.0) / reach, 1.0)
    passing = forced.size + int(np.count_nonzero(~violates(totals[free], alpha)))
    value = float(np.sum((data.target - z) ** 2)) if quadratic else float(data.target @ z)
    return _Relaxation(
        value=value, z=z, y_frac=y_frac, totals=totals,
        converged=converged, feasible_point=passing >= hits, rounds=rounds,
    )


def branch_and_bound(model: ScenarioMip, node_budget: int = 100_000) -> MipSolution:
    """Globally minimize the model objective over the mixed-binary region.

    Best-bound search branching on the most fractional marker; first
    incumbent from rounding the relaxation (the required number of scenarios
    with the largest relaxed payments).  A node is pruned when its bound is
    within 1e-6 of the incumbent.  Linear objectives report the absolute
    gap; least-distance objectives report it, and prune, on the distance
    scale so callers can shrink exclusion radii safely.
    """
    n_scen = model.scenarios.n
    hits = required_hits(n_scen, model.spec.lam)
    quadratic = model.center is not None

    if out_of_reach(model.net, n_scen, model.spec):
        return MipSolution("infeasible", None, np.nan, None, 0, np.nan)

    if hits == 0:
        # chance constraint is vacuous; only the box binds
        if quadratic:
            z = np.clip(model.center, model.box.lo, model.box.hi)
            obj = float(np.sum((z - model.center) ** 2))
        else:
            z = model.box.lo.copy()
            obj = float(model.weights @ z)
        return MipSolution("optimal", z, obj, np.zeros(n_scen, dtype=int), 0, 0.0)

    # each forced pattern's cuts and the first cut-free round of the solve,
    # shared by every node, and the data every node reads, all built once
    # per solve
    cuts: dict = {}
    uncut: list = []
    data = _SolveData.of(model)

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
        relax = _node_relax(model, fix, hits, cuts, uncut, data)
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

    def prune_ok(bound: float) -> bool:
        if not np.isfinite(inc_obj):
            return False
        if quadratic:
            return np.sqrt(max(bound, 0.0)) >= np.sqrt(inc_obj) - _GAP_TOL
        return bound >= inc_obj - _GAP_TOL

    def evaluate(y_fix: np.ndarray) -> _Relaxation | None:
        if int((y_fix == 0).sum()) > n_scen - hits:
            return None
        return _node_relax(model, y_fix, hits, cuts, uncut, data)

    root_fix = np.full(n_scen, -1, dtype=np.int8)
    # the root bans no scenario, so evaluate never refuses it
    root = evaluate(root_fix)
    try_incumbent(rounding_pattern(root.totals, root_fix, hits), 0)

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
        if free.size == 0 or (relax.converged and relax.feasible_point):
            # a leaf, or a relaxation optimum that itself satisfies the count:
            # the node cannot beat its rounded pattern, so record and close
            try_incumbent(rounding_pattern(relax.totals, y_fix, hits), nodes_done)
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
            try_incumbent(rounding_pattern(child_relax.totals, child, hits), nodes_done)
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
