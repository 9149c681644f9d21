"""Risk specification, capital box, and the sampled-set membership oracle.

Every value type checks itself when it is built, so the routines that take
one check only how two values fit together: a routine that takes an
optional box checks its length against the grouping (``box_or_default``),
and ``z_bounds`` checks the grouping and the scenarios against the network
and refuses negative cash flows.

The oracle needs only each scenario's side of the line alpha - VIOL_TOL, and
two Picard bounds on the greatest clearing vector settle most scenarios
before any reaches the clearing kernel (``_picard_bounds``): one step down
from pbar bounds it above, and the iterates up from min(x, pbar) bound it
below (Eisenberg & Noe 2001; Tarski 1955).  The rest go to
``aggregate_en_many``, the only source of totals.  The oracle shifts, clips
and bounds the scenarios one block of ``util.row_block`` rows at a time, so
its working memory does not grow with the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clearing import aggregate_en_many
from .network import FinancialNetwork, Grouping
from .shocks import ScenarioSet
from .util import (VIOL_TOL, ValidationError, frozen_array, max_violations, row_block,
                   violates)

# slack on the nonnegativity selection constraint, consistent with the
# violation tolerance on the aggregate threshold
_SELECT_TOL = 1e-9
# a scenario-label record stores points only while its arrays stay within
# this many bytes; later points are not stored, which costs time, not bits
_LABEL_BUDGET_BYTES = 4 << 20
# the Picard bounds decide a row only this far, times the total obligations,
# from the line alpha - VIOL_TOL (derived in ``_picard_bounds``)
_BOUND_MARGIN = 1e-7
# in-place Picard steps up from min(x, pbar) behind the lower bound
_LOWER_STEPS = 5


@dataclass(frozen=True)
class RiskSpec:
    """Threshold alpha on aggregate payments and violation level lambda,
    checked when built: 0 < alpha < inf and 0 < lambda < 1."""

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < np.inf:
            raise ValidationError("alpha must be positive and finite")
        if not 0 < self.lam < 1:
            raise ValidationError("lambda must lie strictly between 0 and 1")


def out_of_reach(net: FinancialNetwork, n: int, spec: RiskSpec) -> bool:
    """Is the sampled risk set of n scenarios empty because alpha is out of
    reach?  Membership's own verdict at the default box top, where every
    bank pays in full: every scenario totals the obligations T, so all n
    fail when T violates alpha, and the set is empty when lambda does not
    let all n fail."""
    return bool(violates(net.total_obligations, spec.alpha)) and max_violations(n, spec.lam) < n


class CapitalBox:
    """Componentwise capital bounds lo <= z <= hi, checked when built.

    ``lo`` and ``hi`` are finite vectors of one length with lo <= hi + 1e-12.
    ``rows`` and ``rhs`` hold the projector's 2g box inequalities, per axis
    z_j <= hi_j then -z_j <= -lo_j; ``min_norm_qp`` places them after the
    cut rows, and that row order is NNLS's column order, which fixes its
    pivots.  All four arrays are read-only, since every projection of a
    branch-and-bound solve shares them; ``lo`` and ``hi`` are copies, so the
    caller's arrays stay writable.
    """

    __slots__ = ("lo", "hi", "rows", "rhs")

    def __init__(self, lo, hi):
        lo, hi = frozen_array(lo, "box bounds"), frozen_array(hi, "box bounds")
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValidationError("box bounds must be vectors of equal length")
        if np.any(lo > hi + 1e-12):
            raise ValidationError("box is empty (lo > hi)")
        axis = np.arange(lo.size)
        rows = np.zeros((2 * lo.size, lo.size))
        rows[2 * axis, axis] = 1.0
        rows[2 * axis + 1, axis] = -1.0
        self.lo, self.hi, self.rows = lo, hi, rows
        self.rhs = np.column_stack([hi, -lo]).ravel()
        for arr in (rows, self.rhs):
            arr.flags.writeable = False


def z_bounds(net: FinancialNetwork, grouping: Grouping, scenarios: ScenarioSet) -> CapitalBox:
    """Capital box for the sampled risk set.

    The lower corner is the least injection keeping every scenario's cash
    flow nonnegative: lo_j = -min over scenarios and group-j banks of the
    cash flow.  The upper corner hi_j is the largest total obligation in
    group j, which makes full payment feasible in every scenario.
    """
    grouping.check_banks(net.d)
    scenarios.check_nonnegative()
    if scenarios.d != net.d:
        raise ValidationError("scenario dimension does not match the network")
    # a group's least cash flow is the least of its banks' column minima
    floor = scenarios.values.min(axis=0)
    lo = np.empty(grouping.g)
    hi = np.empty(grouping.g)
    for j in range(grouping.g):
        cols = grouping.assignment == j
        lo[j] = -float(floor[cols].min())
        hi[j] = float(net.pbar[cols].max())
    return CapitalBox(lo=lo, hi=hi)


def box_or_default(net: FinancialNetwork, grouping: Grouping, scenarios: ScenarioSet,
                   box: CapitalBox | None) -> CapitalBox:
    """``box``, once checked to hold one entry per group, or the default
    capital box of the sample."""
    if box is None:
        return z_bounds(net, grouping, scenarios)
    if box.lo.shape != (grouping.g,):
        raise ValidationError("box bounds must have one entry per group")
    return box


@dataclass(frozen=True)
class MembershipResult:
    accepted: bool
    violation_fraction: float


class _ScenarioLabels:
    """Per-scenario pass labels at the capital vectors one run evaluated.

    Each scenario's aggregate is nondecreasing in z (Eisenberg & Noe 2001),
    and so is its orthant check, so a scenario that passed at a recorded
    z' <= z passes at z, and one that failed at a recorded z'' >= z fails at
    z.  Points (one column each, so the comparisons run along the record)
    and their pass bitmaps (packed, little-endian) live in arrays that
    double as points arrive, up to the capacity ``_LABEL_BUDGET_BYTES``
    allows; a point past that capacity is not stored.  ``rows_cleared`` and
    ``rows_decided`` count the rows the record's users sent to clearing and
    the rows it decided; ``rows_bounded`` counts the cleared rows the Picard
    bounds decided, so ``rows_cleared - rows_bounded`` reached the kernel.
    """

    def __init__(self, n: int, g: int):
        width = (n + 7) // 8
        self.n = n
        self.capacity = _LABEL_BUDGET_BYTES // (width + 8 * g)
        self.points = np.empty((g, 0))
        self.passes = np.empty((0, width), dtype=np.uint8)
        self.size = 0
        self.rows_cleared = 0
        self.rows_decided = 0
        self.rows_bounded = 0

    def known(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scenarios the record leaves open at z, and scenarios it fails.

        A scenario is open unless exactly one rule decides it: known to
        pass (it passed at a point below z) or known to fail (it failed at
        a point above z).  Both rules hold only off monotonicity, and such
        a scenario is open too.
        """
        points, passes = self.points[:, :self.size], self.passes[:self.size]
        below = np.logical_and.reduce(points <= z[:, None], axis=0)
        above = np.logical_and.reduce(points >= z[:, None], axis=0)
        passed = np.bitwise_or.reduce(np.compress(below, passes, axis=0), axis=0)
        held = np.bitwise_and.reduce(np.compress(above, passes, axis=0), axis=0)
        # known to fail is ~held, so a scenario is open where passed == ~held
        bits = np.unpackbits(np.stack([passed ^ held, ~(passed | held)]), axis=1,
                             count=self.n, bitorder="little").view(bool)
        return bits[0], bits[1]

    def add(self, z: np.ndarray, passed: np.ndarray) -> None:
        if self.size == self.capacity:
            return
        if self.size == len(self.passes):
            grown = min(self.capacity, max(16, 2 * self.size))
            points = np.empty((len(self.points), grown))
            points[:, :self.size] = self.points
            passes = np.empty((grown, self.passes.shape[1]), dtype=np.uint8)
            passes[:self.size] = self.passes
            self.points, self.passes = points, passes
        self.points[:, self.size] = z
        self.passes[self.size] = np.packbits(passed, bitorder="little")
        self.size += 1


def _picard_bounds(net: FinancialNetwork, xs: np.ndarray,
                   alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of xs (nonnegative cash flows) that two Picard bounds show to
    fail, and rows they show to pass, at the line alpha - VIOL_TOL.

    The greatest clearing vector p* = min(pbar, x + p* pi) lies below pbar,
    so below one step from it: p* <= min(pbar, x + pbar pi), whose sum U
    uses the network's ``one_step``.  It lies above every iterate
    q <- min(pbar, x + q pi) from q = min(x, pbar): the map is monotone and
    q starts below p*, so the iterates rise towards the least clearing
    vector, which is at most p*.  A row passes if the sum L of an iterate
    is at least line + m, and fails if U < line - m, with m =
    ``_BOUND_MARGIN`` times the total obligations T; the rest are open.
    L at the start decides first, U only the rows it leaves open, and
    ``_LOWER_STEPS`` steps then run on the rows both leave open.  A row
    passes at the first iterate whose L passes, and the steps stop once
    every row has: the iterates rise, so the last step's L would pass it
    too, and each L is a bound of its own, so either decision is
    certified.  Each sum is one product with a ones vector.

    The margin covers two errors.  Each entry of a bound caps a sum of
    d + 1 nonnegative terms, and each sum adds d nonnegative entries, so U
    and each step's L are off by at most about 2(d + 1) u T (u = 2^-53).
    That holds in any order of summation, and with fused multiply-adds, so
    the matrix products and the ones-vector sums may take whatever order
    BLAS takes, also one that changes with the number of rows.  pi's rows
    sum to one, so L's error grows by that much per step: below 1e-11 T for
    d <= 1,000 and 5 steps.  The kernel's total carries the rounding of its
    pattern solves and the DEFAULT_TOL up to which it lets a short bank
    count as solvent.  With m = 1e-7 T, the kernel's total may be off by
    nearly m before a row the bounds decide would fall on the other side of
    the line from it, and a row within m of the line costs only a kernel
    call.
    """
    pbar, cache = net.pbar, net.derived
    line = alpha - VIOL_TOL
    margin = _BOUND_MARGIN * cache.total
    ones = np.ones(xs.shape[1])
    q = np.minimum(xs, pbar)
    passes = q @ ones >= line + margin
    fails = np.zeros_like(passes)
    rows = np.flatnonzero(~passes)
    # min(pbar, x + one_step) is min(pbar, q + one_step) at q = min(x, pbar)
    step = np.take(q, rows, axis=0)
    step += cache.one_step
    fails[rows] = np.minimum(step, pbar, out=step) @ ones < line - margin
    # the iterates rise, so only the rows still open take the steps; a row
    # passes at the first iterate that passes, and the steps stop once
    # every row has
    rows = np.flatnonzero(~(passes | fails))
    if rows.size:
        x, q, step = np.take(xs, rows, axis=0), np.take(q, rows, axis=0), step[:rows.size]
        up = np.zeros(rows.size, dtype=bool)
        for _ in range(_LOWER_STEPS):
            np.matmul(q, net.pi, out=step)
            step += x
            np.minimum(step, pbar, out=q)
            up |= q @ ones >= line + margin
            if up.all():
                break
        passes[rows] = up
    return fails, passes


def _violations(net: FinancialNetwork, xs: np.ndarray, spread: np.ndarray, alpha: float,
                open_: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Which rows of xs + spread fail at alpha, which of them lie outside
    the nonnegative orthant, and how many rows went to the clearing kernel.

    A row outside the orthant (an entry below -_SELECT_TOL) fails.  Of the
    rest, only the ``open_`` rows are decided here, at their shift clipped
    to the orthant; the others are left passing.  The rows run in blocks of
    ``row_block`` rows, each shifted, checked, clipped and bounded on its
    own, so no array spans all N rows and d columns.  The rows the bounds
    leave open in every block are shifted and clipped again and go to the
    clearing kernel together, in one call of this module's
    ``aggregate_en_many``.
    """
    n = xs.shape[0]
    fails = np.zeros(n, dtype=bool)
    outside = np.zeros(n, dtype=bool)
    undecided = np.zeros(n, dtype=bool)
    step = row_block(xs.shape[1])
    for start in range(0, n, step):
        shifted = xs[start:start + step] + spread
        stop = start + shifted.shape[0]
        # no entry below -tol means no row outside the orthant
        if shifted.min() < -_SELECT_TOL:
            np.any(shifted < -_SELECT_TOL, axis=1, out=outside[start:stop])
        rows = np.flatnonzero(open_[start:stop] & ~outside[start:stop])
        if rows.size == 0:
            continue
        clipped = np.maximum(shifted, 0.0, out=shifted)
        if rows.size < clipped.shape[0]:
            clipped = np.take(clipped, rows, axis=0)
        low, high = _picard_bounds(net, clipped, alpha)
        fails[start + rows] = low
        undecided[start + rows] = ~(low | high)
    rows = np.flatnonzero(undecided)
    if rows.size:
        clipped = np.maximum(np.take(xs, rows, axis=0) + spread, 0.0)
        fails[rows] = violates(aggregate_en_many(net, clipped), alpha)
    fails |= outside
    return fails, outside, rows.size


def membership(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    z: np.ndarray,
    labels: _ScenarioLabels | None = None,
) -> MembershipResult:
    """Does capital vector z belong to the sampled risk set?

    Accepted iff every shifted scenario stays in the nonnegative orthant and
    the fraction of scenarios whose aggregate payment falls below
    alpha - 1e-9 does not exceed lambda.  The violation fraction counts
    orthant failures as violations and is reported either way.

    ``labels`` is a run's private scenario-label record.  With it, a
    scenario that passed at a recorded point below z counts as passing and
    one that failed at a recorded point above z counts as failing, so only
    the rest go to clearing, and z's labels are recorded.  The rule rests
    on per-scenario monotonicity in floating point, which the grid search
    assumes.  Either way the scenarios left go to the Picard bounds first,
    one row block at a time, and only the ones they leave open to the
    clearing kernel (``_violations``).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (grouping.g,):
        raise ValidationError("z must have one entry per group")
    n = scenarios.n
    if labels is None:
        open_ = np.ones(n, dtype=bool)
    else:
        open_, failing = labels.known(z)
    fails, outside, sent = _violations(net, scenarios.values, grouping.spread(z),
                                       spec.alpha, open_)
    if labels is not None:
        fails |= failing
        cleared = int(np.count_nonzero(open_ & ~outside))
        labels.rows_bounded += cleared - sent
        labels.rows_cleared += cleared
        labels.rows_decided += n - int(np.count_nonzero(outside)) - cleared
        labels.add(z, ~fails)
    count = int(np.count_nonzero(fails))
    accepted = not outside.any() and count <= max_violations(n, spec.lam)
    return MembershipResult(accepted=accepted, violation_fraction=count / n)
