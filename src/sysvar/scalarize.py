"""Weighted-sum and least-distance scalarizations of the sampled risk set.

Both delegate to the branch-and-bound solver over the capital box; the box
restriction loses nothing because the risk set equals its boxed part plus
the nonnegative orthant.  A monotone bisection along one coordinate (with
all other coordinates pinned at the box top) provides an independent route
to unit-weight values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mip import MipSolution, ScenarioMip, branch_and_bound
from .network import FinancialNetwork, Grouping
from .risk import CapitalBox, RiskSpec, _ScenarioLabels, box_or_default, membership
from .shocks import ScenarioSet
from .util import ValidationError, log_event

_BISECT_TOL = 1e-6


@dataclass
class ScalarizationResult:
    status: str                 # optimal | infeasible | budget_exhausted
    value: float                # w.z for weighted-sum, distance for norm-min
    z: np.ndarray | None
    solution: MipSolution | None = None


def _solve(net, grouping, scenarios, spec, box, node_budget, cut_cache=None,
           weights=None, center=None) -> ScalarizationResult:
    """Branch-and-bound on the boxed model with one objective: ``weights``
    (linear) or ``center`` (squared distance, reported as a distance)."""
    model = ScenarioMip(
        net=net, grouping=grouping, scenarios=scenarios,
        alpha=spec.alpha, lam=spec.lam,
        z_lower=np.asarray(box.lo, dtype=float),
        z_upper=np.asarray(box.hi, dtype=float),
        weights=weights, center=center,
    )
    sol = branch_and_bound(model, node_budget=node_budget, cut_cache=cut_cache)
    if sol.status == "infeasible":
        return ScalarizationResult("infeasible", np.nan, None, sol)
    value = sol.objective if center is None else np.sqrt(max(sol.objective, 0.0))
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
    spec.validate()
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or not np.any(weights > 0):
        raise ValidationError("weights must be nonnegative and not all zero")
    if spec.alpha > net.total_obligations:
        return ScalarizationResult("infeasible", np.nan, None)
    box = box_or_default(net, grouping, scenarios, box)
    return _solve(net, grouping, scenarios, spec, box, node_budget, weights=weights)


def norm_min(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    point: np.ndarray,
    box: CapitalBox | None = None,
    node_budget: int = 100_000,
    cut_cache: dict | None = None,
) -> ScalarizationResult:
    """Distance from `point` to the boxed sampled risk set, with a nearest point.

    Membership of the reference point short-circuits to distance zero.  For
    reference points below the set the nearest point dominates the reference
    componentwise.
    """
    spec.validate()
    point = np.asarray(point, dtype=float)
    if spec.alpha > net.total_obligations:
        return ScalarizationResult("infeasible", np.nan, None)
    box = box_or_default(net, grouping, scenarios, box)
    inside_box = bool(np.all(point <= np.asarray(box.hi) + 1e-12))
    if inside_box and membership(net, grouping, scenarios, spec, point).accepted:
        return ScalarizationResult("optimal", 0.0, point.copy())
    return _solve(net, grouping, scenarios, spec, box, node_budget, cut_cache,
                  center=point)


def bisection_unit(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    j: int,
    box: CapitalBox | None = None,
    labels: _ScenarioLabels | None = None,
) -> float:
    """Unit-weight scalarization along coordinate j by monotone bisection.

    Pins every other coordinate at the box top; the membership indicator is
    then monotone in t, and the least acceptable t equals the weighted-sum
    value for the j-th unit weight by the upper-set property.  The bracket
    is halved until it is at most 1e-6 wide.

    The oracle calls share a scenario-label record (``labels``, a run's
    private record; a fresh one when None), so each clears only the
    scenarios no earlier call decides.  Record-free calls then confirm the
    final bracket: ``right`` must be accepted and ``left`` (when the floor
    was rejected) rejected.  If the record-free oracle is monotone along the
    axis, that holds exactly when every step took the plain bisection's
    branch, so the value is the plain bisection's.  Otherwise the bisection
    reruns without the record.
    """
    spec.validate()
    box = box_or_default(net, grouping, scenarios, box)
    lo = np.asarray(box.lo, dtype=float)
    hi = np.asarray(box.hi, dtype=float)
    if not 0 <= j < grouping.g:
        raise ValidationError("group index out of range")
    if labels is None:
        labels = _ScenarioLabels(scenarios.n, grouping.g)

    def accepted(t: float, record: _ScenarioLabels | None) -> bool:
        z = hi.copy()
        z[j] = t
        if record is None:
            labels.rows_cleared += scenarios.n
        return membership(net, grouping, scenarios, spec, z, labels=record).accepted

    def bracket(record: _ScenarioLabels | None) -> tuple[float, float | None] | None:
        """(least accepted t, greatest rejected t or None); None when the
        box top is rejected."""
        if not accepted(hi[j], record):
            return None
        if accepted(lo[j], record):
            return float(lo[j]), None
        left, right = float(lo[j]), float(hi[j])
        while right - left > _BISECT_TOL:
            mid = 0.5 * (left + right)
            if accepted(mid, record):
                right = mid
            else:
                left = mid
        return right, left

    found = bracket(labels)
    if found is None or not accepted(found[0], None) or (
            found[1] is not None and accepted(found[1], None)):
        found = bracket(None)
    if found is None:
        raise ValidationError("risk set is empty even at the box top")
    return found[0]


def ideal_point(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    box: CapitalBox | None = None,
    method: str = "milp",
    labels: _ScenarioLabels | None = None,
) -> np.ndarray:
    """Componentwise minimum of the boxed risk set.

    Component j solves the unit-weight scalarization, exactly via the
    mixed-binary program (``milp``) or via the monotone bisection oracle
    (``bisection``); the two agree within the bisection tolerance.  The
    bisections of all components share one scenario-label record
    (``labels``, or a fresh one).
    """
    spec.validate()
    box = box_or_default(net, grouping, scenarios, box)
    if method == "bisection" and labels is None:
        labels = _ScenarioLabels(scenarios.n, grouping.g)
    start = 0 if labels is None else labels.rows_cleared

    def component(j: int) -> float:
        if method == "milp":
            w = np.zeros(grouping.g)
            w[j] = 1.0
            res = weighted_sum(net, grouping, scenarios, spec, w, box=box)
            if res.status == "infeasible":
                raise ValidationError("risk set is empty: alpha exceeds total obligations")
            return float(res.value)
        if method == "bisection":
            return bisection_unit(net, grouping, scenarios, spec, j, box=box, labels=labels)
        raise ValidationError(f"unknown ideal-point method {method!r}")

    ideal = np.asarray([component(j) for j in range(grouping.g)], dtype=float)
    # rows the membership oracle cleared; None for the mixed-binary route
    rows = None if labels is None else labels.rows_cleared - start
    log_event("ideal_point", method=method, ideal=ideal, rows_cleared=rows)
    return ideal
