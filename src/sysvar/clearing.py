"""Interbank clearing: fixed-point and LP engines, aggregation, enumeration.

The maximal clearing vector solves p = (pi^T p + x) ^ pbar.  The fixed-point
engine runs the fictitious-default iteration from p = pbar: each round
classifies the default set and solves the defaulters' linear subsystem
exactly, so it terminates in at most d rounds of default-set growth.  The LP
engine maximizes a strictly increasing linear objective over the limited
liability region and recovers the same vector.  The aggregation function is
the total payment of the maximal clearing vector (minus infinity off the
nonnegative orthant).  One batched kernel computes it together with its
supergradient, which is closed-form per default pattern D: (I - pi_DD)^{-1} 1
on the defaulters and zero on solvent banks.  The payment LP's dual is only
the fallback when that system is singular or ill-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import FinancialNetwork
from .optim import LinearProgram, solve_lp
from .util import CapacityError, DEFAULT_TOL, SolverError, ValidationError

_FP_TOL = 1e-12


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
    x >= pbar - pi^T pbar componentwise.  The rest run a batched capped
    iteration from pbar; since those iterates stay above the maximal
    clearing vector, every bank they show short is a certified defaulter,
    so one exact defaulter-subsystem solve (batched per default pattern)
    finishes each row, with the scalar engine as the fallback.  Rows are
    grouped by their default mask packed into uint64 words.

    With ``supergradients=True`` the call returns ``(totals, grads)``, where
    row k of grads is a supergradient of the aggregation function at xs[k]
    (see ``en_supergradient``; NaN on rows off the domain).  The gradient is
    solved once per default pattern.
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

    x_sub = xs[rows]
    p = np.broadcast_to(pbar, x_sub.shape).copy()
    scale = max(1.0, float(pbar.max()))
    for _ in range(50):
        nxt = np.minimum(x_sub + p @ pi, pbar)
        if np.abs(nxt - p).max() <= 1e-13 * scale:
            p = nxt
            break
        p = nxt

    masks = p < pbar - DEFAULT_TOL
    for sub_rows in _group_by_pattern(masks):
        mask = masks[sub_rows[0]]
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            out[rows[sub_rows]] = full
            continue
        mat = np.eye(idx.size) - pi[np.ix_(idx, idx)].T
        inflow_from_solvent = pi[np.ix_(~mask, idx)].T @ pbar[~mask]
        rhs = x_sub[sub_rows][:, idx] + inflow_from_solvent
        try:
            p_def = np.linalg.solve(mat, rhs.T).T
        except np.linalg.LinAlgError:
            p_def = None
        handled = np.zeros(sub_rows.size, dtype=bool)
        if p_def is not None:
            # accept rows where the seeded default set is already complete
            trial = np.broadcast_to(pbar, (sub_rows.size, net.d)).copy()
            trial[:, idx] = p_def
            inflow = x_sub[sub_rows] + trial @ pi
            good = (
                (p_def >= -1e-9).all(axis=1)
                & (p_def <= pbar[idx] + 1e-9).all(axis=1)
                & (trial <= inflow + DEFAULT_TOL).all(axis=1)
            )
            out[rows[sub_rows[good]]] = trial[good].sum(axis=1)
            handled = good
            if supergradients and good.any():
                _set_supergradients(grads, net, xs, rows[sub_rows[good]], idx)
        for k in sub_rows[~handled]:
            res = clearing_fixed_point(net, x_sub[k])
            out[rows[k]] = res.total_payment
            if supergradients:
                _set_supergradients(grads, net, xs, rows[k:k + 1], np.flatnonzero(res.defaults))
    return (out, grads) if supergradients else out


def _group_by_pattern(masks: np.ndarray) -> list[np.ndarray]:
    """Row indices grouped by identical boolean rows, ascending within a group.

    Each mask is packed into little-endian bits padded to whole uint64
    words, so one stable sort over the words (one word per 64 banks) brings
    equal patterns together without a per-row Python key.
    """
    n, d = masks.shape
    words = -(-d // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, : -(-d // 8)] = np.packbits(masks, axis=1, bitorder="little")
    keys = packed.view("<u8")
    order = np.lexsort(keys.T)
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)) + 1
    return np.split(order, starts)


def _pattern_gradient(pi: np.ndarray, idx: np.ndarray) -> np.ndarray | None:
    """Solve (I - pi_DD) g = 1 over the default set D; None if unusable.

    At the maximal clearing vector the total payment is affine in x_D with
    this gradient.  A singular system (D holds a closed class) raises; a
    non-finite or negative solution marks an ill-posed one.
    """
    try:
        g = np.linalg.solve(np.eye(idx.size) - pi[np.ix_(idx, idx)], np.ones(idx.size))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(g)) or g.min() < 0:
        return None
    return g


def _set_supergradients(grads: np.ndarray, net: FinancialNetwork, xs: np.ndarray,
                        members: np.ndarray, idx: np.ndarray) -> None:
    """Write the supergradient of default set idx into the (zeroed) member
    rows of grads; each row takes its LP dual if the pattern solve is
    unusable."""
    if idx.size == 0:
        return
    g = _pattern_gradient(np.asarray(net.pi, dtype=float), idx)
    if g is None:
        for k in members:
            grads[k] = _lp_supergradient(net, xs[k])
    else:
        grads[np.ix_(members, idx)] = g


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
