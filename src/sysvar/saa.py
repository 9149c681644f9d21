"""Grid-search approximation of the sampled risk set, set metrics, convergence.

Two interchangeable algorithms classify a downward-anchored grid against the
sampled risk set.  Both visit points in one order, a monotone boundary
search: the risk set is an upper set, so along each line parallel to the
longest grid axis the labels switch once, and each line is bisected until it
is fully labelled (Feinstein, Rudloff & Weber 2017).  Lines are taken from
the lowest levels of the other axes up, so the cones of the lines already
searched leave each line open only beyond the previous line's boundary.
One algorithm queries the membership oracle at each visited point and
propagates labels along the componentwise order (acceptable points seed an
upper cone, rejected points a lower cone); the other solves a least-distance
scalarization per visited point z, at distance gamma, marking the nearest
point's upper cone acceptable and the lower closure of the open gamma-ball
around z not acceptable: the points p with |(p - z)^+|_2 < gamma.  None of
them is in the set: it is an upper set, so p in it would put max(p, z) in it,
closer to z than gamma.  Both return the same acceptable set: the grid
intersected with the risk set, represented by its minimal elements, which
one cumulative OR per grid axis finds.

The membership-based search keeps one per-run record of per-scenario
labels; the ideal point that floors the grid needs none, since its
bisections take their decisions from exact ray thresholds (see
``scalarize``).  Each scenario's aggregate is nondecreasing in the capital
vector (Eisenberg & Noe 2001), so a scenario that passed at an evaluated
point below z passes at z, one that failed at an evaluated point above z
fails at z, and each oracle call clears only the scenarios no earlier point
decides.  The oracle settles most of those by two Picard bounds on the
clearing vector, and sends only the scenarios near the threshold to the
clearing kernel; the record still pays its way, since each scenario it
decides costs neither.

Sets are compared by the closed-form distance |(gen - v)^+|_2 from a point v
to a generated upper set, one point at a time, so the Hausdorff distance
needs memory for one generator list only.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .network import FinancialNetwork, Grouping
from .risk import CapitalBox, RiskSpec, _ScenarioLabels, box_or_default, membership, out_of_reach
from .scalarize import ideal_point, norm_min
from .shocks import ScenarioSet, ShockParams, sample_shocks
from .util import CapacityError, ValidationError, log_event, max_violations

_GRID_POINT_CAP = 50_000_000
_IDEAL_MARGIN = 1e-5
_BALL_SHRINK = 1e-6
_CONTAINS_TOL = 1e-12


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValidationError("epsilon must be positive and finite")


@dataclass(frozen=True)
class Grid:
    """Rectangular lattice anchored at the upper corner.

    Levels along axis j descend from hi_j in steps of epsilon/sqrt(g) and
    extend one step past lo_j if needed, so every v in [lo, hi] has a grid
    point z with v <= z <= v + step componentwise.
    """

    lo: np.ndarray
    hi: np.ndarray
    step: float
    levels: tuple[np.ndarray, ...]

    @staticmethod
    def build(lo: np.ndarray, hi: np.ndarray, epsilon: float) -> "Grid":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        _check_epsilon(epsilon)
        if np.any(lo > hi + 1e-12):
            raise ValidationError("grid corners are inverted")
        step = epsilon / math.sqrt(lo.size)
        # count first and allocate after the cap check, so an oversized
        # request fails fast instead of filling memory
        counts = [int(math.ceil(max(top - bottom, 0.0) / step - 1e-12)) + 1
                  for bottom, top in zip(lo, hi)]
        if math.prod(counts) > _GRID_POINT_CAP:
            raise CapacityError(f"grid would exceed {_GRID_POINT_CAP} points")
        levels = tuple(top - step * np.arange(n) for top, n in zip(hi, counts))
        return Grid(lo=lo, hi=hi, step=step, levels=levels)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(lv.size for lv in self.levels)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def value(self, idx: tuple[int, ...]) -> np.ndarray:
        return np.array([lv[i] for lv, i in zip(self.levels, idx)])


@dataclass
class ApproxSet:
    """Upper set generated by the minimal acceptable grid points."""

    epsilon: float
    generators: np.ndarray
    box: CapitalBox
    ideal: np.ndarray
    feasible: bool = True

    def contains(self, z: np.ndarray) -> bool:
        if self.generators.size == 0:
            return False
        z = np.asarray(z, dtype=float)
        return bool(np.any(np.all(self.generators <= z + _CONTAINS_TOL, axis=1)))


def _empty_set(epsilon: float, box: CapitalBox, g: int) -> ApproxSet:
    return ApproxSet(
        epsilon=epsilon,
        generators=np.empty((0, g)),
        box=box,
        ideal=np.full(g, np.nan),
        feasible=False,
    )


def _traversal(grid: Grid, status: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Yield grid indices for the core loop to classify, reading ``status``
    as it goes.

    Along every line parallel to the longest axis the labels switch once,
    from acceptable to not acceptable, because the risk set is an upper set.
    Lines are taken in reverse ``np.ndindex`` order of the other axes, the
    lowest levels first, and each is bisected: the middle of its
    still-unlabelled points is yielded until the line is fully labelled, so
    a line of length L costs at most ceil(log2(L+1)) visits.  The next line
    lies one level higher, so the upper cones of the previous line's
    acceptable points label it acceptable at and above that line's boundary
    level, and only the levels below stay open.  Each visit labels at least its own point, so the
    search ends with every point labelled even if the labels are not
    monotone.
    """
    shape = grid.shape
    axis = int(np.argmax(shape))
    others = shape[:axis] + shape[axis + 1:]
    for outer in np.ndindex(*others):
        # reverse np.ndindex order: the lowest levels of the other axes first
        outer = tuple(n - 1 - i for n, i in zip(others, outer))
        head, tail = outer[:axis], outer[axis:]
        line = status[head + (slice(None),) + tail]
        while (open_ := np.flatnonzero(line == 0)).size:
            yield head + (int(open_[open_.size // 2]),) + tail


def _mark(status: np.ndarray, idx: tuple[int, ...], accepted: bool) -> None:
    """Label the unlabelled part of idx's upper cone acceptable, or of its
    lower cone not acceptable (levels descend, so the upper cone is the
    index box below idx)."""
    cone = tuple(slice(0, i + 1) if accepted else slice(i, None) for i in idx)
    region = status[cone]
    region[region == 0] = 1 if accepted else 2


def _mark_ball(grid: Grid, status: np.ndarray, z: np.ndarray, radius: float) -> int:
    """Label the unlabelled grid points p with |(p - z)^+|_2 < radius not
    acceptable, and return how many it labelled.

    These points form the lower closure of the open ball of that radius
    around z, and none of them is in the risk set R when radius <= d(z, R):
    R is an upper set, so p in R would put max(p, z) in R (it stays <= hi),
    at distance |(p - z)^+|_2 < d(z, R) from z.

    Levels at or below z_j add exactly 0.  So each axis keeps the levels
    above z_j within radius (padded by a relative 1e-12; a point at a
    higher level has one squared term alone above radius**2) and the first
    level at or below z_j.  The squared distances are summed axis by axis
    over that box's open mesh, so each equals the whole-grid sum bit for
    bit, and every lower level reads the first one's entry through an index
    map: below z only int8 labels and boolean masks are touched, never a
    float mesh.  A radius <= 0 marks nothing.
    """
    box, terms, maps = [], [], []
    for lv, zj in zip(grid.levels, z):
        # levels descend, so the positive parts do too
        pos = np.maximum(lv - zj, 0.0)
        start = int(np.count_nonzero(pos > radius * (1 + 1e-12)))
        if start == lv.size:
            return 0
        # the first level at or below z_j, or the lowest level if none is
        last = min(int(np.count_nonzero(pos)), lv.size - 1)
        box.append(slice(start, None))
        terms.append(pos[start:last + 1] ** 2)
        maps.append(np.minimum(np.arange(lv.size - start), last - start))
    near = np.sqrt(sum(np.ix_(*terms))) < radius
    region = status[tuple(box)]
    hit = (region == 0) & near[np.ix_(*maps)]
    region[hit] = 2
    return int(np.count_nonzero(hit))


def _generators(grid: Grid, status: np.ndarray) -> np.ndarray:
    """Minimal acceptable points, sorted lexicographically by value.

    Levels descend, so the points below idx are the index box above it.
    ``reach`` marks the points whose index box holds an acceptable point,
    by one cumulative OR per axis; an acceptable point is minimal exactly
    when ``reach`` is false one step down on every axis.  Labels need not
    be monotone.
    """
    reach = status == 1
    for j in range(status.ndim):
        reach = np.flip(np.logical_or.accumulate(np.flip(reach, j), axis=j), j)
    minimal = status == 1
    for j in range(status.ndim):
        head = (slice(None),) * j
        minimal[head + (slice(None, -1),)] &= ~reach[head + (slice(1, None),)]
    # descending index order is ascending value order
    idx = np.argwhere(minimal)[::-1]
    return np.column_stack([lv[idx[:, j]] for j, lv in enumerate(grid.levels)])


def _grid_search(net, grouping, scenarios, spec, epsilon, box, grid_lo,
                 visit, event, counts) -> ApproxSet:
    """Shared grid core of both algorithms.

    Builds the grid from the box top down to the ideal point (or grid_lo),
    hands every point the traversal yields that is still unlabelled to
    ``visit(grid, status, idx)``, which must label at least that point
    (status 1 acceptable, 2 not), and returns the minimal acceptable
    points.  ``counts`` holds the visitor's counters for the ``event`` log
    line.
    """
    _check_epsilon(epsilon)
    box = box_or_default(net, grouping, scenarios, box)
    if out_of_reach(net, scenarios.n, spec):
        return _empty_set(epsilon, box, grouping.g)
    if grid_lo is None:
        ideal = ideal_point(net, grouping, scenarios, spec, box=box)
        grid_lo = ideal - _IDEAL_MARGIN
    grid = Grid.build(np.asarray(grid_lo, dtype=float), box.hi, epsilon)
    status = np.zeros(grid.shape, dtype=np.int8)
    for idx in _traversal(grid, status):
        if status[idx] == 0:
            visit(grid, status, idx)
    log_event(event, points=grid.size, **counts)
    return ApproxSet(
        epsilon=epsilon,
        generators=_generators(grid, status),
        box=box,
        ideal=grid.lo.copy(),
    )


def approximate_by_clearing(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    epsilon: float,
    box: CapitalBox | None = None,
    grid_lo: np.ndarray | None = None,
) -> ApproxSet:
    """Inner approximation by per-point membership with cone propagation.

    The boundary search bisects each line along the longest grid axis, so a
    line of length L costs at most ceil(log2(L+1)) oracle calls, and the
    cones label the rest.  Every grid point is classified exactly as the
    membership oracle would classify it; the search and the cones only save
    evaluations.  The returned upper set is within epsilon Hausdorff
    distance of the sampled risk set.  The ``grid_clearing_done`` log line
    counts the scenario rows the label record decided (``rows_decided``)
    and left to clearing (``rows_cleared``), and those of the latter that
    the Picard bounds decided (``rows_bounded``).
    """
    counts = {"evaluations": 0, "rows_cleared": 0, "rows_decided": 0, "rows_bounded": 0}
    # the run's scenario-label record, which only the visits use.  It is
    # made before the grid search computes the ideal point: made after it,
    # the record's preallocated arrays cost about 0.5 MB of peak RSS
    # (glibc's dynamic mmap threshold places them differently)
    labels = _ScenarioLabels(scenarios.n, grouping.g)

    def visit(grid: Grid, status: np.ndarray, idx: tuple[int, ...]) -> None:
        counts["evaluations"] += 1
        res = membership(net, grouping, scenarios, spec, grid.value(idx), labels=labels)
        _mark(status, idx, res.accepted)
        counts.update(rows_cleared=labels.rows_cleared, rows_decided=labels.rows_decided,
                      rows_bounded=labels.rows_bounded)

    return _grid_search(net, grouping, scenarios, spec, epsilon, box, grid_lo,
                        visit, "grid_clearing_done", counts)


def approximate_by_norm_min(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    epsilon: float,
    box: CapitalBox | None = None,
    grid_lo: np.ndarray | None = None,
    node_budget: int = 100_000,
) -> ApproxSet:
    """Inner approximation driven by least-distance scalarizations.

    Each visited grid point z yields a nearest set point zbar at distance
    gamma: the grid above zbar is acceptable, and no grid point p with
    |(p - z)^+|_2 < gamma belongs to the set.  That region is the lower
    closure of the open ball of radius gamma around z: the set is an upper
    set, so such a p in it would put max(p, z) in it, closer to z than
    gamma.  The exclusion radius is shrunk by 1e-6 to stay on the safe side
    of solver gaps.  Each solve first asks the membership oracle about z
    itself, and an accepted z is its own nearest point, which labels it.
    So a point the cone and the exclusion region both miss, or whose solve
    ran out of nodes, was rejected by that oracle call and is labelled not
    acceptable without a second one: the final classification matches the
    clearing-based algorithm.
    """
    # every solve searches the box the grid is built in
    box = box_or_default(net, grouping, scenarios, box)
    counts = {"solves": 0, "fallbacks": 0, "nodes": 0, "excluded": 0}

    def visit(grid: Grid, status: np.ndarray, idx: tuple[int, ...]) -> None:
        # every solve's membership call stays record-free
        z = grid.value(idx)
        res = norm_min(net, grouping, scenarios, spec, z, box=box, node_budget=node_budget)
        counts["solves"] += 1
        if res.solution is not None:
            counts["nodes"] += res.solution.nodes
        if res.status == "budget_exhausted":
            counts["fallbacks"] += 1
        else:
            # the grid points at or above zbar: the last level >= zbar_j
            # on each axis indexes their cone's corner (-1 when none is)
            corner = tuple(int(np.sum(lv >= zj - 1e-12)) - 1
                           for lv, zj in zip(grid.levels, res.z))
            _mark(status, corner, True)
            # the lower closure of the ball around z: it holds z itself
            # whenever the radius is positive
            counts["excluded"] += _mark_ball(grid, status, z, res.value - _BALL_SHRINK)
        if status[idx] == 0:
            # the budget ran out, or the distance was within _BALL_SHRINK
            # of zero and the cone missed the point; either way norm_min's
            # membership call rejected z
            _mark(status, idx, False)

    return _grid_search(net, grouping, scenarios, spec, epsilon, box, grid_lo,
                        visit, "grid_norm_min_done", counts)


def hausdorff_distance(set_a: ApproxSet, set_b: ApproxSet) -> float:
    """Hausdorff distance between two finitely generated upper sets.

    d(x, gen + orthant) = |(gen - x)^+|_2 in closed form, and the directed
    supremum over an upper set is attained at its generators, so the
    distance reduces to max-min over the two generator lists.  Each
    generator is measured against the other list on its own, so memory
    grows with one list, not with their product.
    """
    a, b = set_a.generators, set_b.generators
    if a.size == 0 or b.size == 0:
        raise ValidationError("hausdorff distance of an empty set is undefined")
    return max(_distance_to(v, to_gens)
               for from_gens, to_gens in ((a, b), (b, a)) for v in from_gens)


def _distance_to(v: np.ndarray, gens: np.ndarray) -> float:
    diff = np.clip(gens - v[None, :], 0.0, None)
    return float(np.sqrt(np.sum(diff * diff, axis=1)).min())


def distance_probe(v: np.ndarray, approx: ApproxSet) -> float:
    """Distance from v to the represented upper set; +inf for an empty set."""
    if approx.generators.size == 0:
        return float("inf")
    return _distance_to(np.asarray(v, dtype=float), approx.generators)


def insensitive_saa(aggregates: np.ndarray, spec: RiskSpec) -> float:
    """Scalar capital added after aggregation: an order-statistic quantile.

    The least y with at most k = floor(N*lambda) scenarios below alpha - y is
    alpha minus the (k+1)-th smallest aggregate, and -inf when k >= N: then
    every y meets the count, as membership accepts every z in the orthant.
    """
    arr = np.sort(np.asarray(aggregates, dtype=float))
    if arr.size == 0:
        raise ValidationError("aggregate list is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("aggregates must be finite")
    k = max_violations(arr.size, spec.lam)
    return float(spec.alpha - arr[k]) if k < arr.size else -math.inf


def convergence_study(
    net: FinancialNetwork,
    grouping: Grouping,
    shock_params: ShockParams,
    spec: RiskSpec,
    n_list: list[int],
    seeds: list[int],
    epsilon: float,
    n_ref: int,
) -> list[dict]:
    """Distance of sampled sets to a high-sample reference, per seed and size.

    For each seed the first n scenarios of one fixed stream feed each sampled
    set, and the full stream of length n_ref feeds the reference (itself an
    approximation, used as a proxy for the unobservable limit).  Reported per
    cell: Hausdorff distance to the reference and the distances to two
    probes from the seed's reference set, its ideal corner (``probe_1``) and
    its middle generator (``probe_2``, NaN when the reference has no
    generator); a final median row aggregates the seeds.
    """
    if not (n_list and seeds) or min(n_list) < 1:
        raise ValidationError("need at least one seed and sample sizes of at least 1")
    if n_ref < max(n_list):
        raise ValidationError("n_ref must be at least max(n_list)")

    rows = []
    for seed in seeds:
        params = replace(shock_params, n=n_ref, seed=seed)
        scen_full = sample_shocks(params, grouping)
        ref = approximate_by_clearing(net, grouping, scen_full, spec, epsilon)
        gens = ref.generators
        probes = ([ref.ideal, gens[len(gens) // 2]] if len(gens)
                  else [np.full(grouping.g, np.nan)] * 2)
        for n in n_list:
            approx = approximate_by_clearing(
                net, grouping, scen_full.head(n), spec, epsilon
            )
            if not (approx.feasible and ref.feasible):
                row = {"seed": seed, "N": n, "hausdorff_to_ref": float("nan")}
            else:
                row = {
                    "seed": seed,
                    "N": n,
                    "hausdorff_to_ref": hausdorff_distance(approx, ref),
                }
            for i, p in enumerate(probes, start=1):
                row[f"probe_{i}"] = distance_probe(p, approx)
            rows.append(row)
    medians = []
    for n in n_list:
        cells = [r for r in rows if r["N"] == n]
        med = {"seed": "median", "N": n}
        for key in ("hausdorff_to_ref", "probe_1", "probe_2"):
            med[key] = float(np.median([c[key] for c in cells]))
        medians.append(med)
    return rows + medians
