"""Weighted-sum and least-distance scalarizations of the sampled risk set.

Both delegate to the branch-and-bound solver over the capital box; the box
restriction loses nothing because the risk set equals its boxed part plus
the nonnegative orthant.  A monotone bisection along one coordinate (with
all other coordinates pinned at the box top) provides an independent route
to unit-weight values, and the ideal point that floors the grid searches.

The bisection needs no oracle call per step.  Along its ray each scenario's
aggregate is concave, nondecreasing and piecewise affine (Eisenberg & Noe
2001), so batched Newton steps with the clearing kernel's supergradients
find the least t at which each scenario passes (a scenario that
membership's Picard bounds pass at the ray's floor takes the floor without a
kernel call), and membership accepts once t reaches the (k+1)-th largest of
these thresholds.  The bisection's midpoints are decided against that order
statistic, and two membership calls confirm the final bracket; if either
disagrees, the bisection reruns on the oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import clearing, risk
from .mip import MipSolution, ScenarioMip, branch_and_bound
from .network import FinancialNetwork, Grouping
from .risk import _SELECT_TOL, CapitalBox, RiskSpec, box_or_default, membership, out_of_reach
from .shocks import ScenarioSet
from .util import VIOL_TOL, ValidationError, log_event, max_violations, violates

_BISECT_TOL = 1e-6


@dataclass
class ScalarizationResult:
    status: str                 # optimal | infeasible | budget_exhausted
    value: float                # w.z for weighted-sum, distance for norm-min
    z: np.ndarray | None
    solution: MipSolution | None = None


def _model(net, grouping, scenarios, spec, box, **objective) -> ScenarioMip:
    """The boxed model with one objective, ``weights`` or ``center``."""
    return ScenarioMip(net=net, grouping=grouping, scenarios=scenarios, spec=spec,
                       box=box_or_default(net, grouping, scenarios, box), **objective)


def _solve(model: ScenarioMip, node_budget: int) -> ScalarizationResult:
    """Branch-and-bound on the model, a squared distance reported as a distance."""
    sol = branch_and_bound(model, node_budget=node_budget)
    if sol.status == "infeasible":
        return ScalarizationResult("infeasible", np.nan, None, sol)
    value = sol.objective if model.center is None else np.sqrt(max(sol.objective, 0.0))
    return ScalarizationResult(sol.status, float(value), sol.z, sol)


def weighted_sum(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    weights: np.ndarray,
    box: CapitalBox | None = None,
    node_budget: int = 100_000,
) -> ScalarizationResult:
    """Minimum of weights.z over the sampled risk set (boxed)."""
    model = _model(net, grouping, scenarios, spec, box, weights=weights)
    if out_of_reach(net, scenarios.n, spec):
        return ScalarizationResult("infeasible", np.nan, None)
    return _solve(model, node_budget)


def norm_min(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    point: np.ndarray,
    box: CapitalBox | None = None,
    node_budget: int = 100_000,
) -> ScalarizationResult:
    """Distance from `point` to the boxed sampled risk set, with a nearest point.

    Membership of the reference point short-circuits to distance zero, once
    the model has checked the point.  For reference points below the set
    the nearest point dominates the reference componentwise.
    """
    model = _model(net, grouping, scenarios, spec, box, center=point)
    if out_of_reach(net, scenarios.n, spec):
        return ScalarizationResult("infeasible", np.nan, None)
    point = model.center
    inside_box = bool(np.all(point <= model.box.hi + 1e-12))
    if inside_box and membership(net, grouping, scenarios, spec, point).accepted:
        return ScalarizationResult("optimal", 0.0, point.copy())
    return _solve(model, node_budget)


def bisection_unit(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    j: int,
    box: CapitalBox | None = None,
) -> float:
    """Unit-weight scalarization along coordinate j by monotone bisection.

    Pins every other coordinate at the box top; the membership indicator is
    then monotone in t, and the least acceptable t equals the weighted-sum
    value for the j-th unit weight by the upper-set property.  The bracket
    is halved until it is at most 1e-6 wide.

    The bisection's decisions come from each scenario's exact threshold on
    the ray (see ``_ray_thresholds``): z is accepted iff t reaches the
    (k+1)-th largest threshold, k the admissible violation count.  Two
    membership calls then confirm the final bracket: ``right`` must be
    accepted and ``left`` (when the floor was rejected) rejected.  If the
    oracle is monotone along the axis, that holds exactly when every step
    took the plain bisection's branch, so the value is the plain
    bisection's.  Otherwise the bisection reruns on the oracle itself.
    """
    return _bisection_unit(net, grouping, scenarios, spec, j, box, Counter())


def _bisection_unit(net, grouping, scenarios, spec, j, box, work: Counter) -> float:
    """``bisection_unit``, adding its oracle work to ``work``: rows the
    Picard bounds settled at the floor, rows sent to the clearing kernel
    (every row of a membership call), kernel calls, and reruns on the
    oracle."""
    box = box_or_default(net, grouping, scenarios, box)
    lo, hi = box.lo, box.hi
    if not 0 <= j < grouping.g:
        raise ValidationError("group index out of range")

    def accepted(t: float) -> bool:
        z = hi.copy()
        z[j] = t
        work.update(rows_cleared=scenarios.n, kernel_calls=1)
        return membership(net, grouping, scenarios, spec, z).accepted

    def bracket(accepts) -> tuple[float, float | None] | None:
        """(least accepted t, greatest rejected t or None) by the decisions
        of ``accepts``; None when the box top is rejected."""
        if not accepts(hi[j]):
            return None
        if accepts(lo[j]):
            return float(lo[j]), None
        left, right = float(lo[j]), float(hi[j])
        while right - left > _BISECT_TOL:
            mid = 0.5 * (left + right)
            if accepts(mid):
                right = mid
            else:
                left = mid
        return right, left

    cut = _acceptance_cut(net, grouping, scenarios, spec, j, lo[j], hi, work)
    found = bracket(lambda t: t >= cut)
    if found is None or not accepted(found[0]) or (
            found[1] is not None and accepted(found[1])):
        work["reruns"] += 1
        found = bracket(accepted)
    if found is None:
        raise ValidationError("risk set is empty even at the box top")
    return found[0]


def _acceptance_cut(net, grouping, scenarios, spec, j, lo_j, hi, work: Counter) -> float:
    """Least t at which membership accepts z = hi, z_j = t, predicted from
    the scenarios' ray thresholds; +inf when it rejects the whole ray.

    Membership accepts when no shifted entry falls below -_SELECT_TOL and at
    most k scenarios fail, that is once t reaches the (k+1)-th largest
    threshold; every t passes when k >= N.
    """
    xs = scenarios.values
    cols = grouping.assignment == j
    # fl(x + t) is monotone in x, so the column minima decide the orthant
    least = xs.min(axis=0)
    if np.any((least + grouping.spread(hi))[~cols] < -_SELECT_TOL):
        return np.inf
    inside = -_SELECT_TOL - least[cols].min()
    k = max_violations(scenarios.n, spec.lam)
    if k >= scenarios.n:
        return inside
    thresholds = _ray_thresholds(net, grouping, xs, spec.alpha, j, lo_j, hi, work)
    rank = scenarios.n - 1 - k
    return max(inside, float(np.partition(thresholds, rank)[rank]))


def _ray_thresholds(net, grouping, xs, alpha, j, lo_j, hi, work: Counter) -> np.ndarray:
    """Each scenario's least passing t on the ray z = hi, z_j = t, for t in
    [lo_j, hi_j]; +inf where the scenario fails throughout.

    Along the ray a scenario's aggregate is concave, nondecreasing and
    piecewise affine in t (Eisenberg & Noe 2001), and the kernel's
    supergradient summed over group j's banks bounds its slope from above.
    So Newton steps from lo_j never pass the threshold and reach it in one
    step per affine piece.  Each step clears the still-open rows in one
    batch, with the same arithmetic as ``membership``, so a row's pass or
    fail at an iterate is membership's.  A row leaves when it passes (its
    threshold is that iterate), when its slope is zero or NaN or the next
    iterate leaves the box (it fails throughout), or when rounding stalls
    the step (the threshold is the next float).  A row's pieces follow its
    shrinking default set, at most d + 1 of them, so rows still open after
    2d + 8 steps are off that model; they keep their last iterate, a lower
    bound, and the bisection's confirmation calls judge the result.

    Before the first step, membership's Picard bounds (``risk._picard_bounds``)
    are asked once at lo_j, and the rows they show to pass take lo_j as their
    threshold without a kernel call (``rows_bounded`` in ``work``); a row
    they leave open goes to the kernel as before, so every threshold is the
    one the steps alone give.  Later iterates land on the line within the
    bounds' margin, where the bounds settle no row, so they are not asked
    again.  ``rows_cleared`` counts the rows sent to the kernel.
    """
    n, d = xs.shape
    cols = grouping.assignment == j
    fixed = grouping.spread(hi)[~cols]
    t = np.full(n, float(lo_j))
    thresholds = np.full(n, np.inf)

    def shifted(open_: np.ndarray) -> np.ndarray:
        rows = np.take(xs, open_, axis=0)
        rows[:, ~cols] += fixed
        rows[:, cols] += t[open_, None]
        return np.maximum(rows, 0.0, out=rows)

    _, settled = risk._picard_bounds(net, shifted(np.arange(n)), alpha)
    thresholds[settled] = lo_j
    open_ = np.flatnonzero(~settled)
    work["rows_bounded"] += n - open_.size
    for _ in range(2 * d + 8):
        if not open_.size:
            break
        values, grads = clearing.aggregate_en_many(net, shifted(open_), supergradients=True)
        work.update(rows_cleared=open_.size, kernel_calls=1)
        here = t[open_]
        passed = ~violates(values, alpha)
        thresholds[open_[passed]] = here[passed]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (alpha - VIOL_TOL - values) / grads[:, cols].sum(axis=1)
        ahead = here + step
        stalled = ~passed & (ahead == here)
        thresholds[open_[stalled]] = np.nextafter(here[stalled], np.inf)
        go = ~passed & (ahead > here) & (ahead <= hi[j])
        t[open_[go]] = ahead[go]
        open_ = open_[go]
    thresholds[open_] = t[open_]
    return thresholds


def ideal_point(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    box: CapitalBox | None = None,
) -> np.ndarray:
    """Componentwise minimum of the boxed risk set, the floor of the grid
    searches.

    Component j is the unit-weight value by the monotone bisection
    (``bisection_unit``): the least accepted t, within 1e-6 above the exact
    value, which ``weighted_sum`` with the j-th unit weight gives.  An empty
    set is refused with ``ValidationError``: one whose alpha is out of
    reach (``risk.out_of_reach``, the rule ``weighted_sum``, the grid
    searches and the oracle share), or whose box top the oracle rejects.
    The log line counts the oracle work: rows sent to the clearing kernel
    (each confirmation call counts all its rows), kernel calls, the axes
    that reran on the oracle, and the rows the Picard bounds settled at
    each axis's floor before any kernel call.
    """
    if out_of_reach(net, scenarios.n, spec):
        raise ValidationError("risk set is empty: alpha exceeds total obligations")
    box = box_or_default(net, grouping, scenarios, box)
    work: Counter = Counter()
    ideal = np.asarray([_bisection_unit(net, grouping, scenarios, spec, j, box, work)
                        for j in range(grouping.g)], dtype=float)
    log_event("ideal_point", ideal=ideal,
              **{key: work[key] for key in ("rows_cleared", "kernel_calls", "reruns",
                                             "rows_bounded")})
    return ideal
