"""Risk specification, capital box, and the sampled-set membership oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clearing import aggregate_en_many
from .network import FinancialNetwork, Grouping
from .shocks import ScenarioSet
from .util import ValidationError, max_violations, violates

# slack on the nonnegativity selection constraint, consistent with the
# violation tolerance on the aggregate threshold
_SELECT_TOL = 1e-9


@dataclass(frozen=True)
class RiskSpec:
    """Threshold alpha on aggregate payments and violation level lambda."""

    alpha: float
    lam: float

    def validate(self) -> None:
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        if not 0 < self.lam < 1:
            raise ValidationError("lambda must lie strictly between 0 and 1")


@dataclass(frozen=True)
class CapitalBox:
    """Componentwise capital bounds [z_lo, z_hi] containing the set's generators."""

    lo: np.ndarray
    hi: np.ndarray

    def validate(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("box bounds must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("box bounds must be finite")
        if np.any(lo > hi + 1e-12):
            raise ValidationError("box is empty (lo > hi)")


def z_bounds(net: FinancialNetwork, grouping: Grouping, scenarios: ScenarioSet) -> CapitalBox:
    """Capital box for the sampled risk set.

    The lower corner is the least injection keeping every scenario's cash
    flow nonnegative: lo_j = -min over scenarios and group-j banks of the
    cash flow.  The upper corner hi_j is the largest total obligation in
    group j, which makes full payment feasible in every scenario.
    """
    grouping.validate(net.d)
    scenarios.validate()
    if scenarios.d != net.d:
        raise ValidationError("scenario dimension does not match the network")
    assignment = np.asarray(grouping.assignment, dtype=int)
    xs = np.asarray(scenarios.values, dtype=float)
    pbar = np.asarray(net.pbar, dtype=float)
    lo = np.empty(grouping.g)
    hi = np.empty(grouping.g)
    for j in range(grouping.g):
        cols = assignment == j
        lo[j] = -float(xs[:, cols].min())
        hi[j] = float(pbar[cols].max())
    return CapitalBox(lo=lo, hi=hi)


def box_or_default(net: FinancialNetwork, grouping: Grouping, scenarios: ScenarioSet,
                   box: CapitalBox | None) -> CapitalBox:
    """``box`` once validated, or the default capital box of the sample."""
    if box is None:
        return z_bounds(net, grouping, scenarios)
    box.validate()
    if np.shape(box.lo) != (grouping.g,):
        raise ValidationError("box bounds must have one entry per group")
    return box


@dataclass(frozen=True)
class MembershipResult:
    accepted: bool
    violation_fraction: float


def membership(
    net: FinancialNetwork,
    grouping: Grouping,
    scenarios: ScenarioSet,
    spec: RiskSpec,
    z: np.ndarray,
) -> MembershipResult:
    """Does capital vector z belong to the sampled risk set?

    Accepted iff every shifted scenario stays in the nonnegative orthant and
    the fraction of scenarios whose aggregate payment falls below
    alpha - 1e-9 does not exceed lambda.  The violation fraction counts
    orthant failures as violations and is reported either way.
    """
    spec.validate()
    z = np.asarray(z, dtype=float)
    if z.shape != (grouping.g,):
        raise ValidationError("z must have one entry per group")
    xs = np.asarray(scenarios.values, dtype=float)
    shifted = xs + grouping.spread(z)[None, :]
    selection_ok = bool(shifted.min() >= -_SELECT_TOL)

    n = xs.shape[0]
    values = aggregate_en_many(net, np.maximum(shifted, 0.0))
    bad_rows = np.any(shifted < -_SELECT_TOL, axis=1)
    count = int(np.count_nonzero(bad_rows | violates(values, spec.alpha)))
    accepted = selection_ok and count <= max_violations(n, spec.lam)
    return MembershipResult(accepted=accepted, violation_fraction=count / n)
