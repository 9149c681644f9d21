"""Weighted-sum and least-distance scalarizations of the sampled risk set.

Both delegate to the branch-and-bound solver over the capital box; the box
restriction loses nothing because the risk set equals its boxed part plus
the nonnegative orthant.  A monotone bisection along one coordinate (with
all other coordinates pinned at the box top) provides an independent route
to unit-weight values, and the ideal point that floors the grid searches.

The bisection needs no oracle call per step.  Membership accepts once t
reaches the (k+1)-th largest of the scenarios' thresholds, the least t at
which each passes, and the bisection's midpoints are decided against that
order statistic.  Only the scenarios that may hold it are cleared to their
thresholds: membership's Picard bounds (``risk._picard_bounds``) pass some
scenarios at the ray's floor and certify a bracket around every other
scenario's threshold, proposed where the bounds' one-step upper bound
crosses the line, and a scenario whose bracket lies wholly below or above
the order statistic's needs no exact value.  The rest take batched Newton
steps with the clearing kernel's supergradients: along the ray a
scenario's aggregate is concave, nondecreasing and piecewise affine
(Eisenberg & Noe 2001).  Two membership calls confirm the final bracket (at
the floor, bounds that accepted every row there stand in for the first);
if either disagrees, the bisection reruns on the oracle.
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

    The bisection's decisions come from the scenarios' thresholds on the
    ray (see ``_acceptance_cut``): z is accepted iff t reaches the (k+1)-th
    largest threshold, k the admissible violation count.  Two membership
    calls then confirm the final bracket: ``right`` must be accepted and
    ``left`` (when the floor was rejected) rejected.  When ``right`` is the
    floor and the Picard bounds passed every row there, inside the orthant,
    their verdict is membership's on the same rows, and no call is made.
    If the oracle is monotone along the axis, the confirmations hold
    exactly when every step took the plain bisection's branch, so the
    value is the plain bisection's.  Otherwise the bisection reruns on the
    oracle itself.
    """
    return _bisection_unit(net, grouping, scenarios, spec, j, box, Counter())


def _bisection_unit(net, grouping, scenarios, spec, j, box, work: Counter) -> float:
    """``bisection_unit``, adding its oracle work to ``work``: rows the
    Picard bounds settled (at the floor, by a certified bracket and in each
    membership call), rows sent to the clearing kernel, kernel calls, and
    reruns on the oracle."""
    box = box_or_default(net, grouping, scenarios, box)
    lo, hi = box.lo, box.hi
    if not 0 <= j < grouping.g:
        raise ValidationError("group index out of range")

    def accepted(t: float) -> bool:
        z = hi.copy()
        z[j] = t
        # an empty record decides nothing; it counts the rows by path
        labels = risk._ScenarioLabels(scenarios.n, grouping.g)
        res = membership(net, grouping, scenarios, spec, z, labels)
        kernel = labels.rows_cleared - labels.rows_bounded
        work.update(rows_cleared=kernel, rows_bounded=labels.rows_bounded,
                    kernel_calls=int(kernel > 0))
        return res.accepted

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

    def confirmed(found) -> bool:
        if found is None:
            return False
        right, left = found
        if left is None:
            # bounds that accepted every row at the floor give its verdict
            return floor_accepted or accepted(right)
        return accepted(right) and not accepted(left)

    cut, floor_accepted = _acceptance_cut(net, grouping, scenarios, spec, j, lo[j], hi, work)
    found = bracket(lambda t: t >= cut)
    if not confirmed(found):
        work["reruns"] += 1
        found = bracket(accepted)
    if found is None:
        raise ValidationError("risk set is empty even at the box top")
    return found[0]


def _acceptance_cut(net, grouping, scenarios, spec, j, lo_j, hi,
                    work: Counter) -> tuple[float, bool]:
    """Least t at which membership accepts z = hi, z_j = t, predicted from
    the scenarios' ray thresholds (+inf when it rejects the whole ray), and
    whether membership's own Picard bounds accept z at t = lo_j.

    Membership accepts when no shifted entry falls below -_SELECT_TOL and at
    most k scenarios fail, that is once t reaches the (k+1)-th largest
    threshold theta*, the rank-th smallest (from 0) with rank = N - 1 - k;
    every t passes when k >= N.  Selection needs exact values only near the
    rank (Floyd & Rivest 1975), so only the scenarios that may hold theta*
    are cleared exactly, by ``_ray_thresholds``:

    1. *Floor.*  ``risk._picard_bounds`` is asked once at lo_j, and a row
       it passes has threshold lo_j.  If N - k rows pass, the cut is the
       floor, with no kernel call.  If all N pass and no entry leaves the
       orthant there, membership at the floor would repeat that certified
       computation on the same rows, so the second value reports that it
       accepts.
    2. *Propose.*  ``_proposal`` places each open row's bracket [low, up]
       around the threshold of the bounds' one-step upper bound.
    3. *Certify.*  One stacked call of the same bounds asks whether each
       row fails at low and passes at up.  An end they do not certify
       becomes lo_j or +inf, so each row's bracket [a, b] holds its
       threshold theta: the row fails at a, so at every t <= a (its
       aggregate is nondecreasing along the ray), and theta is an iterate
       at which it passes, so theta > a (a stalled step's theta is the
       float after a failing iterate whose shortfall is below its slope
       times half an ulp, far inside the margin, so that iterate is above
       a too); it passes at b, and no Newton iterate passes the least t at
       which it passes, so theta <= b.
    4. *Select.*  Let W_lo and W_hi be the rank-th smallest a and b; a <=
       theta <= b rowwise gives W_lo <= theta* <= W_hi.  A row with b < W_lo
       has theta <= b < theta*, and a row with a > W_hi has theta >= a >
       theta*.  They take -inf and +inf, which moves no row across theta*,
       so the rank-th smallest is still theta*, bit for bit.  The rest
       straddle and take their exact thresholds.

    The proof holds for rows inside the Newton model; a row still open at
    the step cap keeps a lower bound, and the bisection's confirmation
    calls judge the result, as they do without brackets.  Rows the bounds
    settle, at the floor or by a bracket, count as ``rows_bounded`` in
    ``work``; ``rows_cleared`` and ``kernel_calls`` count kernel work only.
    """
    xs = scenarios.values
    n = scenarios.n
    cols = grouping.assignment == j
    top = grouping.spread(hi)
    # fl(x + t) is monotone in x, so the column minima decide the orthant
    least = xs.min(axis=0)
    if np.any((least + top)[~cols] < -_SELECT_TOL):
        return np.inf, False
    inside = -_SELECT_TOL - least[cols].min()
    k = max_violations(n, spec.lam)
    if k >= n:
        return inside, False
    floor = _on_ray(xs, cols, top, np.full(n, float(lo_j)))
    _, settled = risk._picard_bounds(net, floor, spec.alpha)
    passed = int(np.count_nonzero(settled))
    if passed >= n - k:
        work["rows_bounded"] += passed
        clean = not np.any(least[cols] + lo_j < -_SELECT_TOL)
        return max(inside, float(lo_j)), passed == n and clean
    # each row's bracket [a, b]; a row settled at the floor has a = b = lo_j
    open_ = np.flatnonzero(~settled)
    low, up = _proposal(net, np.take(floor, open_, axis=0), cols, spec.alpha, lo_j)
    low = np.minimum(low, hi[j])
    ask_low, ask_up = open_[low > lo_j], open_[up <= hi[j]]
    low, up = low[low > lo_j], up[up <= hi[j]]
    fails, passes = risk._picard_bounds(net, _on_ray(
        xs[np.concatenate([ask_low, ask_up])], cols, top, np.concatenate([low, up])),
        spec.alpha)
    a = np.full(n, float(lo_j))
    b = np.where(settled, a, np.inf)
    a[ask_low] = np.where(fails[:low.size], low, lo_j)
    b[ask_up] = np.where(passes[low.size:], up, np.inf)
    rank = n - 1 - k
    # W_lo and W_hi, the rank-th smallest a and b
    below, above = b < np.partition(a, rank)[rank], a > np.partition(b, rank)[rank]
    thresholds = np.where(below, -np.inf, np.where(settled, lo_j, np.inf))
    straddle = ~(settled | below | above)
    work["rows_bounded"] += n - int(np.count_nonzero(straddle))
    thresholds[straddle] = _ray_thresholds(net, grouping, xs[straddle], spec.alpha, j, lo_j,
                                           hi, work)
    return max(inside, float(np.partition(thresholds, rank)[rank])), False


def _on_ray(xs: np.ndarray, cols: np.ndarray, top: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows of xs at z = hi, z_j = t (one t per row), shifted as membership
    shifts them, one rounding per entry, and clipped to the orthant; ``top``
    is hi spread over the banks and ``cols`` marks group j's banks."""
    rows = np.where(cols, t[:, None], top)
    rows += xs
    return np.maximum(rows, 0.0, out=rows)


def _proposal(net, floor: np.ndarray, cols: np.ndarray, alpha: float,
              lo_j: float) -> tuple[np.ndarray, np.ndarray]:
    """A bracket [low, up] on the ray for each row of ``floor`` (cash flows
    at lo_j): where the Picard bounds' one-step upper bound U crosses the
    line alpha - VIOL_TOL, less and plus a pad.

    Along the ray U = sum min(pbar, x + pbar pi) is concave and piecewise
    affine: s past lo_j, group j's bank i adds min(s, beta_i) to U(0), with
    breakpoint beta_i = max(pbar_i - x_i - (pbar pi)_i, 0).  With the m
    breakpoints sorted and P_k the sum of the first k, U = U(0) + P_k +
    (m - k) s between the k-th and the next, so one division on the piece
    that meets the line gives the crossing s_U.  The pad is 4
    ``_BOUND_MARGIN`` T over that piece's slope, so U moves four margins
    across it.  Where U stays below the line, s_U and up are +inf and low
    is +inf too, with no inf - inf.  Beyond lo_j the clip at zero only
    lowers U below this model.  The bracket need not hold the threshold:
    ``_acceptance_cut`` certifies each end before it uses it.
    """
    pbar, cache = net.pbar, net.derived
    m = int(np.count_nonzero(cols))
    # how far U(0) falls short of the line, and the sorted breakpoints
    need = (alpha - VIOL_TOL) - np.minimum(floor + cache.one_step, pbar) @ np.ones(len(pbar))
    breaks = np.maximum(pbar[cols] - cache.one_step[cols] - floor[:, cols], 0.0)
    breaks.sort(axis=1)
    # U(beta_k) - U(0) = P_k + (m - k) beta_k rises with k, so the pieces
    # that end short of the line come first
    reach = breaks @ np.triu(np.ones((m, m)))
    reach += np.arange(m - 1, -1, -1) * breaks
    ends_short = reach < need[:, None]
    slope = m - np.count_nonzero(ends_short, axis=1)
    s_u = np.full(len(floor), np.inf)
    np.divide(need - (breaks * ends_short) @ np.ones(m), slope, out=s_u, where=slope > 0)
    t_u = lo_j + np.maximum(s_u, 0.0)
    pad = 4 * risk._BOUND_MARGIN * cache.total / np.maximum(slope, 1)
    return t_u - pad, t_u + pad


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
    bound, and the bisection's confirmation calls judge the result.  The
    kernel clears each row on its own, so a row's threshold does not depend
    on the rows beside it; ``_acceptance_cut`` sends only the rows whose
    certified brackets straddle the order statistic.  ``rows_cleared``
    counts the rows sent to the kernel.
    """
    n, d = xs.shape
    cols = grouping.assignment == j
    top = grouping.spread(hi)
    t = np.full(n, float(lo_j))
    thresholds = np.full(n, np.inf)
    open_ = np.arange(n)
    for _ in range(2 * d + 8):
        if not open_.size:
            break
        values, grads = clearing.aggregate_en_many(
            net, _on_ray(xs[open_], cols, top, t[open_]), supergradients=True)
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
    The log line counts the oracle work: rows sent to the clearing kernel,
    kernel calls, the axes that reran on the oracle, and the rows the
    Picard bounds settled without a kernel call: at each axis's floor, by a
    certified threshold bracket that lies wholly below or above the order
    statistic (``_acceptance_cut``), and in the membership calls.  On the
    README network at N = 1,000 (scenario seed 41) that leaves 5 kernel
    rows, where clearing every open row to its threshold took 2,220.
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
