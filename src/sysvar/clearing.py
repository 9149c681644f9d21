"""Interbank clearing: the batched fictitious-default kernel, the payment LP
and the enumeration of all clearing vectors.

The maximal clearing vector solves p = (pi^T p + x) ^ pbar.  One batched
kernel, ``aggregate_en_many``, runs the fictitious-default algorithm in
rounds over each block of a batch (``util.row_block`` rows, so its working
memory does not grow with the batch), each row from the banks short at the
third capped Picard step down from pbar (Eisenberg & Noe 2001): each round
classifies every row's default set and solves the defaulters' linear
subsystem exactly, so a row settles within d rounds of default-set growth,
and a fully solvent row in its first, on the empty pattern.
It returns the aggregation function, the total payment of the maximal
clearing vector (minus infinity off the nonnegative orthant), and on
request its supergradient, which is closed-form per default pattern D:
(I - pi_DD)^{-1} 1 on the defaulters and zero on solvent banks.  A round
walks its pattern groups once, each writing its rows' payments and
gradients into the round's buffers, and the rows it settles go straight
into the caller's totals and supergradients.  Each default pattern's
inverse (I - pi_DD^T)^{-1} is built once, kept on the network
(``FinancialNetwork.derived``) under a fixed byte budget, and applied row
by row, so a row's results do not depend on the rows cleared beside it.
The network's arrays are read-only and were checked when it was built, so
the kernel reads them as they are, and the cache, built with the network,
is never rebuilt.  ``clearing_fixed_point``, ``aggregate_en`` and
``en_supergradient`` are one-row calls of the kernel.

The payment LP maximizes the total payment over the limited liability
region and recovers the same vector (``clearing_lp``).  It is also the
kernel's one fallback: a row whose pattern is singular, whose pattern
gradient is unusable when supergradients are asked for, or whose payments
leave [0, pbar] takes its payments, its total and its supergradient (the
row duals) from a single LP solve inside the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DerivedCache, FinancialNetwork
from .optim import LinearProgram, LpResult, solve_lp
from .util import CapacityError, DEFAULT_TOL, SolverError, ValidationError, row_block

# per network; patterns past it are solved without being stored
_PATTERN_BUDGET_BYTES = 4 << 20
# enumeration solves one LP per default pattern, 2^d in all
_ENUM_MAX_DIM = 12
# capped Picard steps down from pbar behind each row's first default mask
_SEED_STEPS = 3


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
    if not np.all((x >= 0) & (x < np.inf)):
        raise ValidationError("cash flow vector must be finite and nonnegative")
    return x


def clearing_fixed_point(net: FinancialNetwork, x: np.ndarray) -> ClearingResult:
    """Maximal clearing vector by the fictitious-default iteration from pbar.

    The one-row call of the batched kernel: p is the row's final pattern
    system applied to x, bit for bit the kernel's payment row, or the
    payment LP's p where the kernel falls back.  ``iterations`` is 1 when p
    shows no defaulter, else the kernel's round count plus the three Picard
    steps behind its first default mask.
    """
    x = _check_nonnegative(x)
    pi, pbar = net.pi, net.pbar
    pay = np.empty((1, net.d))
    rounds = _fictitious_default(net, x[None, :], np.empty(1), pay=pay)
    p = pay[0]
    residual = np.abs(p - np.minimum(pi.T @ p + x, pbar)).max()
    if residual > 1e-7 * max(1.0, pbar.max()):
        raise SolverError(f"clearing iteration left residual {residual:.3e}")
    defaults = p < pbar - DEFAULT_TOL
    iterations = _SEED_STEPS + rounds if defaults.any() else 1
    return ClearingResult(p=p, defaults=defaults, iterations=iterations,
                          total_payment=float(p.sum()))


def _solve_payment_lp(net: FinancialNetwork, x: np.ndarray) -> tuple[np.ndarray, LpResult]:
    """Solve the payment LP, max 1.p subject to (I - pi^T) p <= x and
    0 <= p <= pbar, from the corner p = 0; return its payments clipped to
    [0, pbar] and the solver's result."""
    res = solve_lp(LinearProgram(
        c=np.ones(net.d),
        a_ub=np.eye(net.d) - net.pi.T,
        b_ub=x,
        lower=np.zeros(net.d),
        upper=net.pbar,
        sense="max",
    ))
    return np.clip(res.x, 0.0, net.pbar), res


def _dual_supergradient(res: LpResult) -> np.ndarray:
    """Supergradient from the unit-weight payment LP's row duals.

    Any optimal row dual mu satisfies aggregate(x') <= aggregate(x) +
    mu.(x' - x) for all x' >= 0.  Degenerate optima may make mu nonunique;
    any vertex dual works.
    """
    mu = np.asarray(res.duals_ub, dtype=float)
    if mu.min() < -1e-7:
        raise SolverError("clearing dual has a negative multiplier")
    return np.maximum(mu, 0.0)


def clearing_lp(net: FinancialNetwork, x: np.ndarray) -> ClearingResult:
    """Clearing vector from the payment LP, which maximizes the total
    payment; any strictly increasing linear objective gives the same
    optimum, the greatest clearing vector (Eisenberg & Noe 2001)."""
    x = _check_nonnegative(x)
    p, res = _solve_payment_lp(net, x)
    defaults = p < net.pbar - DEFAULT_TOL
    return ClearingResult(p=p, defaults=defaults, iterations=res.iterations,
                          total_payment=float(p.sum()))


def aggregate_en(net: FinancialNetwork, x: np.ndarray) -> float:
    """Total payment of the maximal clearing vector; -inf off the domain."""
    return float(aggregate_en_many(net, np.asarray(x, dtype=float)[None, :])[0])


def aggregate_en_many(net: FinancialNetwork, xs: np.ndarray, supergradients: bool = False):
    """Aggregate payments for a batch of scenarios (rows of xs).

    Rows with a negative entry map to -inf, and NaN raises
    ``ValidationError``; the rest are cleared by ``_fictitious_default``,
    payment-LP fallbacks included, one block of ``row_block`` rows at a
    time, straight into totals (and supergradients) allocated once for the
    batch.

    With ``supergradients=True`` the call returns ``(totals, grads)``, where
    row k of grads is a supergradient of the aggregation function at xs[k]
    (see ``en_supergradient``; NaN on rows off the domain): the pattern's
    closed form on settled rows, and the row duals of the payment LP on
    fallback rows.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValidationError("expected an N x d scenario matrix")
    out = np.empty(xs.shape[0])
    grads = np.zeros(xs.shape) if supergradients else None
    step = row_block(xs.shape[1])
    for start in range(0, xs.shape[0], step):
        block = slice(start, start + step)
        _fictitious_default(net, xs[block], out[block],
                            None if grads is None else grads[block])
    return (out, grads) if supergradients else out


def _fictitious_default(net: FinancialNetwork, xs: np.ndarray, out: np.ndarray,
                        grads: np.ndarray | None = None,
                        pay: np.ndarray | None = None) -> int:
    """Clear the rows of xs by batched fictitious-default rounds, writing
    each row's total into ``out`` and, on request, its supergradient into
    ``grads`` and its payments into ``pay`` (left as they were on rows off
    the domain); return the number of rounds.

    Rows with a negative entry get -inf (and NaN gradients); NaN fails
    x >= 0 too, so only those rows are searched for it.  Every other row
    runs in batched rounds.  Each row's default mask starts as the banks
    short of their obligations at the third capped Picard step
    q <- min(pbar, x + q pi) down from q = pbar.  The map is monotone and
    pbar lies above the greatest clearing vector p*, so every iterate lies
    above p*: a bank short at the third step is short at p*, a certified
    defaulter.  A round sorts its rows by packed mask and walks the pattern groups once, each
    writing its rows' payments and gradients into the round's buffers, then
    checks all its rows at once: payments in [0, pbar] and no bank outside
    the mask short of its obligations.  Rows that show newly short banks
    add them to their mask and go on, so a row takes at most d rounds.  A
    fully solvent row (x >= pbar - pi^T pbar) shows no bank short, so it
    settles in its first round on the empty pattern, paying pbar with a
    zero gradient.

    A pattern that is singular, or whose gradient is unusable when
    ``grads`` is given, writes NaN payments, so its rows neither settle
    nor go on; nor do rows whose payments leave [0, pbar].  Each such row
    falls back to one payment-LP solve, which gives its payments, its total
    and, from the row duals, its supergradient.  Each pattern's system is
    kept in ``net.derived`` up to a fixed byte budget, so later calls with
    the same patterns skip building it; the network's constants of the
    one-step and range tests live there too.
    """
    cache, pi, pbar = net.derived, net.pi, net.pbar
    inside = (xs >= 0).all(axis=1)
    if not inside.all():
        if np.isnan(xs[~inside]).any():
            raise ValidationError("cash flow vector must not hold NaN")
        out[~inside] = -np.inf
        if grads is not None:
            grads[~inside] = np.nan
    rows = inside.nonzero()[0]
    fallback, rounds = [], 0
    if rows.size == 0:
        return rounds

    # q <- min(pbar, x + q pi) from q = pbar, in one scratch array, freed
    # with the open rows before the first round; the first step is the
    # network's one_step, pbar pi, and each later one a product
    x = xs[rows]
    q = x + cache.one_step
    for _ in range(_SEED_STEPS - 1):
        np.minimum(q, pbar, out=q)
        np.matmul(q, pi, out=q)
        q += x
    masks = q < cache.short_at
    del q, x
    live = np.arange(rows.size)
    while True:
        rounds += 1
        order, bounds = _sort_by_pattern(masks[live])
        live = live[order]
        ids = rows[live]
        xr, mr = xs[ids], masks[live]
        trial = np.empty(xr.shape)
        trial[:] = pbar
        slope = None if grads is None else np.zeros(xr.shape)
        bounds = bounds.tolist()
        for s, e in zip(bounds[:-1], bounds[1:]):
            system = _pattern_system(cache, pi, pbar, mr[s])
            if system.inv is None or (slope is not None and system.grad is None):
                trial[s:e] = np.nan
            elif system.idx.size:
                # p_D = inv (x_D + inflow); einsum sums each row of a
                # C-ordered block in one fixed order (a plain fancy index
                # would give an F-ordered block), so a row's result does not
                # depend on the rows beside it
                rhs = xr[s:e].take(system.idx, axis=1)
                rhs += system.inflow
                trial[s:e, system.idx] = np.einsum("ij,nj->ni", system.inv, rhs)
                if slope is not None:
                    slope[s:e, system.idx] = system.grad
        inflow = trial @ pi
        inflow += xr
        inflow += DEFAULT_TOL
        short = trial > inflow
        ok = ((trial >= -1e-9) & (trial <= cache.pay_cap)).all(axis=1)
        done = ok & ~short.any(axis=1)
        again = ok & (short & ~mr).any(axis=1)
        # every row of the round is written whole; a row that goes on or
        # falls back is written again by a later round or by the payment LP
        out[ids] = trial.sum(axis=1)
        if slope is not None:
            grads[ids] = slope
        if pay is not None:
            pay[ids] = trial
        fallback.extend(ids[~(done | again)].tolist())
        if not again.any():
            break
        masks[live[again]] = (mr | short)[again]
        live = np.sort(live[again])
        # free this round's block arrays before the next round makes its own
        del xr, trial, inflow, slope
    for k in fallback:
        p, res = _solve_payment_lp(net, xs[k])
        out[k] = p.sum()
        if grads is not None:
            grads[k] = _dual_supergradient(res)
        if pay is not None:
            pay[k] = p
    return rounds


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
    keys = keys[order]
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    edge[1:n] = (keys[1:] != keys[:-1]).any(axis=1)
    return order, edge.nonzero()[0]


class _PatternSystem:
    """The linear system of one default pattern D for a fixed (pi, pbar).

    With the solvent banks S paying in full, the defaulters pay
    p_D = inv (x_D + inflow), with inv = (I - pi_DD^T)^{-1} and
    inflow = pi_SD^T pbar_S.  At the maximal clearing vector the total
    payment is affine in x_D with gradient (I - pi_DD)^{-1} 1, the column
    sums of inv.  ``inv`` is None for a singular pattern (D holds a closed
    class): ``np.linalg.inv`` raises or returns non-finite entries.
    ``grad`` is None where the gradient is unusable: singular, non-finite
    or with a negative entry.  The empty pattern, where every bank pays in
    full, is built without an inverse to take.
    """

    __slots__ = ("idx", "inv", "inflow", "grad")

    def __init__(self, pi: np.ndarray, pbar: np.ndarray, mask: np.ndarray):
        idx = self.idx = mask.nonzero()[0]
        if not idx.size:
            self.inflow, self.inv, self.grad = np.empty(0), np.empty((0, 0)), np.empty(0)
            return
        # pi_SD and pi_DD as C-ordered blocks, the layout np.ix_ gives, so
        # the products below keep their bits
        cols = pi.take(idx, axis=1)
        rest = ~mask
        self.inflow = cols[rest].T @ pbar[rest]
        self.inv = self.grad = None
        try:
            inv = np.linalg.inv(np.eye(idx.size) - cols[idx].T)
        except np.linalg.LinAlgError:
            return
        if not np.isfinite(inv).all():
            return
        self.inv = inv
        grad = inv.sum(axis=0)
        if (np.isfinite(grad) & (grad >= 0)).all():
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


def enumerate_clearing_vectors(net: FinancialNetwork, x: np.ndarray) -> list[ClearingPolytope]:
    """All clearing vectors as a union of polytopes, one per default pattern.

    For each binary pattern y the constraint system couples the limited
    liability rows with p >= pbar*y and p >= pi^T p + x - Q*y, where
    Q = max_i((pi^T pbar)_i + x_i) is the tightest valid big constant.
    Feasible systems are returned in H-representation; equality rows restate
    the constraints forced tight by the pattern (full payment where y_i = 1,
    exact pass-through where y_i = 0).

    The big-M rows are slack where y_i = 1, so a system is the face of the
    payment region on which its equality rows hold.  Each face point is a
    clearing vector, and all clearing vectors leave the same equity
    (Eisenberg & Noe 2001), so a nonempty face holds the greatest one, p*,
    the payment LP's optimum: a pattern is listed when its equality rows'
    largest slack at p* is at most 1e-7 max(1, |b_ub|).
    """
    x = _check_nonnegative(x)
    d = net.d
    if d > _ENUM_MAX_DIM:
        raise CapacityError(
            f"enumeration over 2^{d} patterns exceeds the limit {_ENUM_MAX_DIM}")
    pi, pbar = net.pi, net.pbar
    eye = np.eye(d)
    flow = eye - pi.T
    q = float(np.max(pi.T @ pbar + x))

    p, _ = _solve_payment_lp(net, x)
    out: list[ClearingPolytope] = []
    # y_i is bit i of the pattern number, patterns in increasing number
    for y in (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1:
        paid = y == 1
        a_eq = np.where(paid[:, None], eye, flow)
        b_eq = np.where(paid, pbar, x)
        # raw inequalities: flow p <= x ; -p <= -pbar*y ; -flow p <= Q*y - x
        b_ub = np.concatenate([x, -pbar * y, q * y - x])
        if (b_eq - a_eq @ p).max() > 1e-7 * np.abs(b_ub).max(initial=1.0):
            continue
        out.append(ClearingPolytope(
            y=y,
            a_eq=a_eq,
            b_eq=b_eq,
            a_ub=np.vstack([flow, -eye, -flow]),
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
