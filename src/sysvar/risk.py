"""Risk specification, capital box, and the sampled-set membership oracle.

Every value type checks itself when it is built, so the routines that take
one check only how two values fit together: a routine that takes an
optional box checks its length against the grouping (``box_or_default``),
and ``z_bounds`` checks the grouping and the scenarios against the network
and refuses negative cash flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clearing import aggregate_en_many
from .network import FinancialNetwork, Grouping
from .shocks import ScenarioSet
from .util import ValidationError, frozen_array, max_violations, violates

# slack on the nonnegativity selection constraint, consistent with the
# violation tolerance on the aggregate threshold
_SELECT_TOL = 1e-9
# a scenario-label record stores points only while its arrays stay within
# this many bytes; later points are not stored, which costs time, not bits
_LABEL_BUDGET_BYTES = 4 << 20


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
    lo = np.empty(grouping.g)
    hi = np.empty(grouping.g)
    for j in range(grouping.g):
        cols = grouping.assignment == j
        lo[j] = -float(scenarios.values[:, cols].min())
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
    ``rows_decided`` count the rows the record's users sent to the clearing
    kernel and the rows it decided.
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
    the rest go to the clearing kernel, and z's labels are recorded.  The
    rule rests on per-scenario monotonicity in floating point, which the
    grid search assumes.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (grouping.g,):
        raise ValidationError("z must have one entry per group")
    xs = scenarios.values
    shifted = xs + grouping.spread(z)[None, :]
    selection_ok = bool(shifted.min() >= -_SELECT_TOL)

    n = xs.shape[0]
    # no entry below -tol means no row outside the orthant
    bad_rows = (np.zeros(n, dtype=bool) if selection_ok
                else np.any(shifted < -_SELECT_TOL, axis=1))
    clipped = np.maximum(shifted, 0.0, out=shifted)
    if labels is None:
        fails = bad_rows | violates(aggregate_en_many(net, clipped), spec.alpha)
    else:
        open_, failing = labels.known(z)
        fails = bad_rows | failing
        rows = np.flatnonzero(open_ & ~bad_rows)
        if rows.size:
            values = aggregate_en_many(net, np.take(clipped, rows, axis=0))
            fails[rows] = violates(values, spec.alpha)
        labels.rows_cleared += rows.size
        labels.rows_decided += n - int(np.count_nonzero(bad_rows)) - rows.size
        labels.add(z, ~fails)
    count = int(np.count_nonzero(fails))
    accepted = selection_ok and count <= max_violations(n, spec.lam)
    return MembershipResult(accepted=accepted, violation_fraction=count / n)
