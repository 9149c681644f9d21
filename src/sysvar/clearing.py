"""Interbank clearing: fixed-point and LP engines, aggregation, enumeration.

The maximal clearing vector solves p = (pi^T p + x) ^ pbar.  The fixed-point
engine runs the fictitious-default iteration from p = pbar: each round
classifies the default set and solves the defaulters' linear subsystem
exactly, so it terminates in at most d rounds of default-set growth.  The LP
engine maximizes a strictly increasing linear objective over the limited
liability region and recovers the same vector.  The aggregation function is
the total payment of the maximal clearing vector (minus infinity off the
nonnegative orthant).  One batched kernel, ``aggregate_en_many``, computes it
together with its supergradient, which is closed-form per default pattern D:
(I - pi_DD)^{-1} 1 on the defaulters and zero on solvent banks.  The kernel
runs the same fictitious-default algorithm in rounds over a whole batch.
Each default pattern's inverse (I - pi_DD^T)^{-1} is built once, kept on the
network (``FinancialNetwork.derived``) under a fixed byte budget, and applied
row by row, so a row's total and supergradient do not depend on the rows
cleared beside it.  The scalar engine runs only for rows whose pattern is
singular or whose payments leave [0, pbar]; the payment LP's dual only where
a pattern's supergradient is unusable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DerivedCache, FinancialNetwork
from .optim import LinearProgram, solve_lp
from .util import CapacityError, DEFAULT_TOL, SolverError, ValidationError

_FP_TOL = 1e-12
# per network; patterns past it are solved without being stored
_PATTERN_BUDGET_BYTES = 4 << 20


@dataclass
class ClearingResult:
    p: np.ndarray
    defaults: np.ndarray
    iterations: int
    total_payment: float


@dataclass
class ClearingPolytope:
    """H-representation of the clearing vectors sharing one default pattern."""

    y: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray


def _check_nonnegative(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValidationError("cash flow vector must be nonnegative")
    return x


def clearing_fixed_point(net: FinancialNetwork, x: np.ndarray) -> ClearingResult:
    """Maximal clearing vector by the fictitious-default iteration from pbar."""
    x = _check_nonnegative(x)
    pi = np.asarray(net.pi, dtype=float)
    pbar = np.asarray(net.pbar, dtype=float)
    d = net.d

    p = pbar.copy()
    default = np.zeros(d, dtype=bool)
    rounds = 0
    cap = max(50 * d, 4)
    while rounds < cap:
        rounds += 1
        inflow = pi.T @ p + x
        new_default = default | (p > inflow + DEFAULT_TOL)
        if rounds > 1 and np.array_equal(new_default, default):
            break
        if not new_default.any():
            break
        default = new_default
        idx = np.flatnonzero(default)
        sub = pi[np.ix_(idx, idx)].T
        solvent_inflow = pi[np.ix_(~default, default)].T @ pbar[~default]
        rhs = x[idx] + solvent_inflow
        mat = np.eye(idx.size) - sub
        try:
            p_def = np.linalg.solve(mat, rhs)
            if np.any(~np.isfinite(p_def)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            p_def = _picard_subsystem(sub, rhs, pbar[idx])
        p = pbar.copy()
        p[idx] = np.clip(p_def, 0.0, pbar[idx])

    residual = np.abs(p - np.minimum(pi.T @ p + x, pbar)).max()
    if residual > 1e-7 * max(1.0, pbar.max()):
        raise SolverError(f"clearing iteration left residual {residual:.3e}")
    defaults = p < pbar - DEFAULT_TOL
    return ClearingResult(p=p, defaults=defaults, iterations=rounds,
                          total_payment=float(p.sum()))


def _picard_subsystem(sub: np.ndarray, rhs: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Capped affine iteration fallback for singular defaulter subsystems."""
    p = cap.copy()
    for _ in range(200 * max(cap.size, 1)):
        nxt = np.minimum(sub @ p + rhs, cap)
        if np.abs(nxt - p).max() <= _FP_TOL:
            return nxt
        p = nxt
    return p


def clearing_lp(net: FinancialNetwork, x: np.ndarray,
                f_weights: np.ndarray | None = None) -> ClearingResult:
    """Clearing vector from the payment-maximization LP."""
    x = _check_nonnegative(x)
    pi = np.asarray(net.pi, dtype=float)
    pbar = np.asarray(net.pbar, dtype=float)
    d = net.d
    if f_weights is None:
        f_weights = np.ones(d)
    f_weights = np.asarray(f_weights, dtype=float)
    if np.any(f_weights <= 0):
        raise ValidationError("objective weights must be strictly positive")

    lp = LinearProgram(
        c=f_weights,
        a_ub=np.eye(d) - pi.T,
        b_ub=x,
        lower=np.zeros(d),
        upper=pbar.copy(),
        sense="max",
    )
    res = solve_lp(lp)
    if res.status != "optimal":
        raise SolverError(f"clearing LP returned status {res.status}")
    p = np.clip(res.x, 0.0, pbar)
    defaults = p < pbar - DEFAULT_TOL
    return ClearingResult(p=p, defaults=defaults, iterations=res.iterations,
                          total_payment=float(p.sum()))


def aggregate_en(net: FinancialNetwork, x: np.ndarray) -> float:
    """Total payment of the maximal clearing vector; -inf off the domain."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        return -np.inf
    return clearing_fixed_point(net, x).total_payment


def aggregate_en_many(net: FinancialNetwork, xs: np.ndarray, supergradients: bool = False):
    """Aggregate payments for a batch of scenarios (rows of xs).

    Rows with a negative entry map to -inf.  Fully solvent scenarios are
    resolved without iteration: everyone pays in full as soon as
    x >= pbar - pi^T pbar componentwise.  The rest run the fictitious-default
    algorithm in batched rounds.  Each row's default mask starts as the
    banks short of their obligations one step from pbar (certified
    defaulters, since the clearing vector lies below pbar).  A round sorts
    its rows by packed mask, applies each pattern's inverse to all of that
    pattern's rows, and then checks the whole round at once: payments in
    [0, pbar] and no bank outside the mask short of its obligations.  Rows
    that show newly short banks add them to their mask and go to the next
    round, so a row takes at most d rounds.  The scalar engine
    ``clearing_fixed_point`` runs only for rows whose pattern is singular or
    whose payments leave [0, pbar].

    Each pattern's system (defaulters, (I - pi_DD^T)^{-1}, the solvent
    banks' inflow and the supergradient) is kept on the network in
    ``net.derived`` up to a fixed byte budget, so later calls with the same
    patterns skip building them.  The inverse is applied with ``np.einsum``,
    which sums each row in a fixed order, so a row's results are the same
    alone, in any batch and in any row order.

    With ``supergradients=True`` the call returns ``(totals, grads)``, where
    row k of grads is a supergradient of the aggregation function at xs[k]
    (see ``en_supergradient``; NaN on rows off the domain).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValidationError("expected an N x d scenario matrix")
    pi = np.asarray(net.pi, dtype=float)
    pbar = np.asarray(net.pbar, dtype=float)
    deficit = pbar - pi.T @ pbar
    out = np.empty(xs.shape[0])
    grads = np.zeros(xs.shape) if supergradients else None
    full = float(pbar.sum())
    solvent = np.all(xs >= deficit, axis=1)
    negative = np.any(xs < 0, axis=1)
    out[solvent] = full
    out[negative] = -np.inf
    if supergradients:
        grads[negative] = np.nan
    rows = np.flatnonzero(~solvent & ~negative)
    if rows.size == 0:
        return (out, grads) if supergradients else out

    cache = net.derived.valid_for(pi, pbar)
    masks = xs[rows] + pbar @ pi < pbar - DEFAULT_TOL
    fallback = []
    live = np.arange(rows.size)
    while live.size:
        order, bounds = _sort_by_pattern(masks[live])
        live = live[order]
        totals, done, again, grown, systems = _fictitious_round(
            cache, pi, pbar, xs[rows[live]], masks[live], bounds)
        fallback.extend(live[~done & ~again])
        out[rows[live[done]]] = totals[done]
        masks[live[again]] = grown[again]
        if supergradients:
            for system, s, e in zip(systems, bounds[:-1], bounds[1:]):
                members = rows[live[s:e][done[s:e]]]
                if members.size:
                    _set_supergradients(grads, net, xs, members, system)
        live = np.sort(live[again])

    for k in fallback:
        res = clearing_fixed_point(net, xs[rows[k]])
        out[rows[k]] = res.total_payment
        if supergradients:
            system = _pattern_system(cache, pi, pbar, res.defaults)
            _set_supergradients(grads, net, xs, rows[k:k + 1], system)
    return (out, grads) if supergradients else out


def _fictitious_round(cache: DerivedCache, pi: np.ndarray, pbar: np.ndarray, x: np.ndarray,
                      masks: np.ndarray, bounds: np.ndarray):
    """One fictitious-default round over rows grouped by default mask
    (group j is rows bounds[j]:bounds[j + 1]).

    Returns each row's total payment, which rows settled (payments in
    [0, pbar], no bank short of its obligations), which rows must go on
    (in range, with banks outside the mask newly short), the masks grown by
    those banks, and the groups' pattern systems.  Rows of a singular
    pattern neither settle nor go on.  The full-batch arrays are freed on
    return, before the next round allocates its own.
    """
    trial = np.tile(pbar, (x.shape[0], 1))
    solved = np.ones(x.shape[0], dtype=bool)
    systems = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        system = _pattern_system(cache, pi, pbar, masks[s])
        systems.append(system)
        if system.inv is None:
            solved[s:e] = False
        elif system.idx.size:
            # fancy indexing yields an F-ordered block, which einsum would
            # sum in another order; the C-ordered copy keeps each row's sum
            # independent of the rows beside it
            rhs = np.ascontiguousarray(x[s:e, system.idx])
            rhs += system.inflow
            trial[s:e, system.idx] = np.einsum("ij,nj->ni", system.inv, rhs)
    inflow = trial @ pi
    inflow += x
    inflow += DEFAULT_TOL
    short = trial > inflow
    ok = solved & (trial >= -1e-9).all(axis=1) & (trial <= pbar + 1e-9).all(axis=1)
    done = ok & ~short.any(axis=1)
    again = ok & (short & ~masks).any(axis=1)
    return trial.sum(axis=1), done, again, masks | short, systems


def _sort_by_pattern(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row order that makes equal boolean rows contiguous, and group bounds.

    Group j is ``order[bounds[j]:bounds[j + 1]]``, ascending within the
    group.  Each mask is packed into little-endian bits padded to whole
    uint64 words, so one stable sort over the words (one word per 64 banks)
    brings equal patterns together without a per-row Python key.
    """
    n, d = masks.shape
    words = -(-d // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, : -(-d // 8)] = np.packbits(masks, axis=1, bitorder="little")
    keys = packed.view("<u8")
    order = np.lexsort(keys.T)
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)) + 1
    return order, np.concatenate(([0], starts, [n]))


class _PatternSystem:
    """The linear system of one default pattern D for a fixed (pi, pbar).

    With the solvent banks S paying in full, the defaulters pay
    p_D = inv (x_D + inflow), with inv = (I - pi_DD^T)^{-1} and
    inflow = pi_SD^T pbar_S.  At the maximal clearing vector the total
    payment is affine in x_D with gradient (I - pi_DD)^{-1} 1, the column
    sums of inv.  ``inv`` is None for a singular pattern (D holds a closed
    class): ``np.linalg.inv`` raises or returns non-finite entries.
    ``grad`` is None where the gradient is unusable: singular, non-finite
    or with a negative entry.
    """

    __slots__ = ("idx", "inv", "inflow", "grad")

    def __init__(self, pi: np.ndarray, pbar: np.ndarray, mask: np.ndarray):
        self.idx = np.flatnonzero(mask)
        self.inflow = pi[np.ix_(~mask, self.idx)].T @ pbar[~mask]
        self.inv = self.grad = None
        try:
            inv = np.linalg.inv(np.eye(self.idx.size) - pi[np.ix_(self.idx, self.idx)].T)
        except np.linalg.LinAlgError:
            return
        if not np.all(np.isfinite(inv)):
            return
        self.inv = inv
        grad = inv.sum(axis=0)
        if np.all(np.isfinite(grad) & (grad >= 0)):
            self.grad = grad

    @property
    def nbytes(self) -> int:
        """Bytes of the inverse, idx, inflow and the gradient."""
        return 8 * self.idx.size * (self.idx.size + 3)


def _pattern_system(cache: DerivedCache, pi: np.ndarray, pbar: np.ndarray,
                    mask: np.ndarray) -> _PatternSystem:
    """The pattern's system from the network's cache, built on a miss and
    stored while the cache stays within ``_PATTERN_BUDGET_BYTES``."""
    key = mask.tobytes()
    system = cache.entries.get(key)
    if system is None:
        system = _PatternSystem(pi, pbar, mask)
        size = system.nbytes + len(key)
        if cache.nbytes + size <= _PATTERN_BUDGET_BYTES:
            cache.entries[key] = system
            cache.nbytes += size
    return system


def _set_supergradients(grads: np.ndarray, net: FinancialNetwork, xs: np.ndarray,
                        members: np.ndarray, system: _PatternSystem) -> None:
    """Write the supergradient of the system's pattern into the (zeroed)
    member rows of grads; each row takes its LP dual if the pattern's
    gradient is unusable."""
    if system.idx.size == 0:
        return
    if system.grad is None:
        for k in members:
            grads[k] = _lp_supergradient(net, xs[k])
    else:
        grads[np.ix_(members, system.idx)] = system.grad


def en_supergradient(net: FinancialNetwork, x: np.ndarray) -> np.ndarray:
    """A supergradient of the aggregation function at x >= 0.

    At the maximal clearing vector with default set D the total payment is
    affine in x_D: g_D = (I - pi_DD)^{-1} 1 and g = 0 on solvent banks.
    This is an optimal dual of the payment LP (it prices the defaulters'
    limited-liability rows and is complementary to the solvent ones), so
    aggregate(x') <= aggregate(x) + g.(x' - x) for all x' >= 0.  It is the
    one-row call of ``aggregate_en_many``; the payment LP's dual remains the
    fallback when the defaulter system is singular or ill-posed.
    """
    x = _check_nonnegative(x)
    _, grads = aggregate_en_many(net, x[None, :], supergradients=True)
    return grads[0]


def _lp_supergradient(net: FinancialNetwork, x: np.ndarray) -> np.ndarray:
    """Supergradient from the payment LP dual.

    Any optimal row dual mu satisfies aggregate(x') <= aggregate(x) +
    mu.(x' - x) for all x' >= 0.  Degenerate optima may make mu nonunique;
    any vertex dual works.
    """
    pi = np.asarray(net.pi, dtype=float)
    pbar = np.asarray(net.pbar, dtype=float)
    d = net.d
    lp = LinearProgram(
        c=np.ones(d),
        a_ub=np.eye(d) - pi.T,
        b_ub=x,
        lower=np.zeros(d),
        upper=pbar.copy(),
        sense="max",
    )
    res = solve_lp(lp)
    if res.status != "optimal":
        raise SolverError(f"clearing dual solve returned status {res.status}")
    mu = np.asarray(res.duals_ub, dtype=float)
    if mu.min() < -1e-7:
        raise SolverError("clearing dual has a negative multiplier")
    return np.maximum(mu, 0.0)


def enumerate_clearing_vectors(
    net: FinancialNetwork, x: np.ndarray, max_dim: int = 12
) -> list[ClearingPolytope]:
    """All clearing vectors as a union of polytopes, one per default pattern.

    For each binary pattern y the constraint system couples the limited
    liability rows with p >= pbar*y and p >= pi^T p + x - Q*y, where
    Q = max_i((pi^T pbar)_i + x_i) is the tightest valid big constant.
    Feasible systems are returned in H-representation; equality rows restate
    the constraints forced tight by the pattern (full payment where y_i = 1,
    exact pass-through where y_i = 0).
    """
    x = _check_nonnegative(x)
    d = net.d
    if d > max_dim:
        raise CapacityError(f"enumeration over 2^{d} patterns exceeds the limit {max_dim}")
    pi = np.asarray(net.pi, dtype=float)
    pbar = np.asarray(net.pbar, dtype=float)
    eye = np.eye(d)
    flow = eye - pi.T
    q = float(np.max(pi.T @ pbar + x))

    out: list[ClearingPolytope] = []
    for mask in range(2 ** d):
        y = np.array([(mask >> i) & 1 for i in range(d)], dtype=float)
        # raw inequalities: flow p <= x ; -p <= -pbar*y ; -flow p <= Q*y - x
        a_ub = np.vstack([flow, -eye, -flow])
        b_ub = np.concatenate([x, -pbar * y, q * y - x])
        lo = np.zeros(d)
        feasible = solve_lp(LinearProgram(
            c=np.zeros(d), a_ub=a_ub, b_ub=b_ub, lower=lo, upper=pbar.copy()
        ))
        if feasible.status != "optimal":
            continue
        eq_rows = []
        eq_rhs = []
        for i in range(d):
            if y[i] == 1.0:
                row = np.zeros(d)
                row[i] = 1.0
                eq_rows.append(row)
                eq_rhs.append(pbar[i])
            else:
                eq_rows.append(flow[i])
                eq_rhs.append(x[i])
        out.append(ClearingPolytope(
            y=y.astype(int),
            a_eq=np.vstack(eq_rows),
            b_eq=np.asarray(eq_rhs),
            a_ub=a_ub,
            b_ub=b_ub,
        ))
    return out


def polytope_contains(poly: ClearingPolytope, p: np.ndarray, pbar: np.ndarray,
                      tol: float = 1e-6) -> bool:
    """Membership of p in the polytope (bounds included), up to tol."""
    p = np.asarray(p, dtype=float)
    if np.any(p < -tol) or np.any(p > pbar + tol):
        return False
    if np.any(poly.a_ub @ p > poly.b_ub + tol):
        return False
    return bool(np.all(np.abs(poly.a_eq @ p - poly.b_eq) <= tol))
