"""Self-contained solver kernels for the box-bounded programs the library poses.

Both kernels take only inequality rows and finite bounds, the form of the
payment LP (0 <= p <= pbar), the clearing-pattern checks and the node
problems of branch-and-bound (the capital box); a non-finite bound raises
``ValidationError``.  ``solve_lp`` is the primal active-set (vertex) method
(Fletcher 1987, ch. 8).  Its basis is n active rows among the inequalities
and the 2n bound rows, with a rank-one-updated n x n inverse, so a step
costs O(m n) however many rows there are.  It starts at the first box
corner that satisfies the rows, the lower and then the upper one, and a
program that neither corner satisfies raises ``ValidationError``: every
program the library poses has such a corner (the payment LP p = 0, a cut
relaxation the box top), so there is no phase 1 and no infeasible
outcome.  Each step drops the active row with the most negative multiplier,
switching to Bland's smallest-index rule after a run of degenerate steps
to guarantee termination.  ``min_norm_qp`` projects a point onto a
polyhedron of any dimension through Lawson and Hanson's reduction of the
least-distance program to a nonnegative least-squares problem, solved by
their active-set method in numpy.  Its bounds come as a
``risk.CapitalBox``, which checks them and builds their rows when it is
built, so a caller that projects many times onto cuts inside one box (a
branch-and-bound solve) pays for that once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .util import SolverError, ValidationError

if TYPE_CHECKING:
    from .risk import CapitalBox

_FEAS_TOL = 1e-9
_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_DEGENERATE_STEP = 1e-11
_BLAND_TRIGGER = 50
_REFACTOR_EVERY = 500
_MAX_ITER = 1_000_000
_NNLS_ROUNDS_PER_ROW = 3
_NNLS_TOL = 1e-12
_EMPTY_TOL = 1e-9


@dataclass
class LinearProgram:
    """min/max c.x subject to a_ub.x <= b_ub and finite lower <= x <= upper."""

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    sense: str = "min"


@dataclass
class LpResult:
    """Solution with duals in the user's sense: duals are d(objective)/d(rhs)."""

    x: np.ndarray
    objective: float
    duals_ub: np.ndarray
    reduced_costs: np.ndarray
    iterations: int


def _finite_bounds(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValidationError("variable bounds must be finite")
    return lower, upper


def solve_lp(lp: LinearProgram) -> LpResult:
    """Solve a box-bounded inequality LP from a box corner that satisfies
    its rows; an empty box or a program neither corner satisfies raises
    ``ValidationError``."""
    if lp.sense not in ("min", "max"):
        raise ValidationError("sense must be 'min' or 'max'")
    sign = 1.0 if lp.sense == "min" else -1.0
    c = sign * np.asarray(lp.c, dtype=float)
    n = c.size
    lower, upper = _finite_bounds(lp.lower, lp.upper)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValidationError("bound vectors must match the variable count")
    if lp.a_ub is None or len(lp.a_ub) == 0:
        a, b = np.zeros((0, n)), np.zeros(0)
    else:
        a, b = np.asarray(lp.a_ub, dtype=float), np.asarray(lp.b_ub, dtype=float)
    m = len(a)
    if a.shape != (m, n) or b.shape != (m,):
        raise ValidationError("a_ub shape inconsistent with c")
    if np.any(lower > upper + _FEAS_TOL):
        raise ValidationError("a lower bound exceeds its upper bound")

    for corner, start in ((lower, m), (upper, m + n)):
        if (a @ corner <= b + _FEAS_TOL).all():
            break
    else:
        raise ValidationError("neither box corner satisfies the rows")
    rows = np.concatenate([a, -np.eye(n), np.eye(n)])
    rhs = np.concatenate([b, -lower, upper])
    x, active, lam, iterations = _vertex(rows, rhs, c, corner, np.arange(start, start + n))
    resid = np.concatenate([a @ x - b, lower - x, x - upper]).max(initial=0.0)
    if resid > 1e-7 * np.abs(b).max(initial=1.0):
        raise SolverError("primal residual exceeds tolerance after solve")
    mult = np.zeros(len(rows))
    mult[active] = lam
    return LpResult(
        x=x,
        objective=sign * float(c @ x),
        duals_ub=-sign * mult[:m],
        reduced_costs=sign * (mult[m:m + n] - mult[m + n:]),
        iterations=iterations,
    )


def _vertex(rows, rhs, c, x, active):
    """Primal active-set (vertex) method for min c.x subject to rows x <= rhs.

    ``x`` is a vertex on which the n rows ``active`` are tight.  Each step
    drops the active row with the most negative multiplier (the smallest
    row index once ``_BLAND_TRIGGER`` degenerate steps run in a row: Bland's
    rule), moves along the edge that frees it, and makes the first row it
    meets active (the smallest index among ties).  The inverse of the
    active rows takes a rank-one update per step and is recomputed every
    ``_REFACTOR_EVERY`` steps and at the end.  Returns the vertex, its
    active rows, their multipliers (c + rows[active]^T lam = 0, lam >= 0 at
    the optimum) and the step count.
    """
    binv = _inverse(rows[active])
    steps = degenerate = since_refresh = 0
    while True:
        lam = -(c @ binv)
        drop = lam < -_COST_TOL
        if not drop.any():
            break
        if steps >= _MAX_ITER:
            raise SolverError("vertex method iteration cap exceeded (cycling guard)")
        if degenerate >= _BLAND_TRIGGER:
            q = int(np.flatnonzero(drop)[np.argmin(active[drop])])
        else:
            q = int(np.argmin(lam))
        d = -binv[:, q]
        rate = rows @ d
        rate[active] = 0.0
        block = np.flatnonzero(rate > _PIVOT_TOL)
        if not block.size:
            raise SolverError("vertex step meets no bound inside a finite box")
        ratio = np.maximum(rhs[block] - rows[block] @ x, 0.0) / rate[block]
        step = ratio.min()
        r = int(block[np.flatnonzero(ratio <= step + 1e-12)[0]])
        degenerate = degenerate + 1 if step <= _DEGENERATE_STEP else 0
        x = x + step * d
        w = rows[r] @ binv
        col = binv[:, q] / w[q]
        binv -= np.outer(col, w)
        binv[:, q] = col
        active[q] = r
        steps += 1
        since_refresh += 1
        if since_refresh >= _REFACTOR_EVERY:
            binv = _inverse(rows[active])
            x = binv @ rhs[active]
            since_refresh = 0
    binv = _inverse(rows[active])
    return binv @ rhs[active], active, -(c @ binv), steps


def _inverse(basis: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(basis)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular active set in the vertex method") from exc


@dataclass
class QpResult:
    z: np.ndarray
    distance: float


def _nnls(e: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active set for min ||e w - f|| over w >= 0, f the last unit vector.

    The columns of ``e`` have unit or zero norm.  Each outer round frees the
    column with the largest gradient; the inner loop steps back toward the
    previous iterate until the least-squares solution on the passive set is
    positive, dropping at least one column per step.
    """
    k, m = e.shape
    f = np.zeros(k)
    f[-1] = 1.0
    w = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    for _ in range(_NNLS_ROUNDS_PER_ROW * m):
        grad = e.T @ (f - e @ w)
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= _NNLS_TOL:
            return w
        passive[j] = True
        while True:
            s = np.zeros(m)
            s[passive] = np.linalg.lstsq(e[:, passive], f, rcond=None)[0]
            if np.all(s[passive] > 0.0):
                break
            blocking = np.flatnonzero(passive & (s <= 0.0))
            steps = w[blocking] / (w[blocking] - s[blocking])
            i = int(np.argmin(steps))
            w += steps[i] * (s - w)
            passive[blocking[i]] = False
            passive &= w > 0.0
            w[~passive] = 0.0
        w = s
    raise SolverError("least-distance NNLS reached its iteration cap")


def min_norm_qp(
    v: np.ndarray,
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    box: CapitalBox,
) -> QpResult:
    """Project v onto {a_ub z <= b_ub, box.lo <= z <= box.hi}.

    With u = z - v and s = b - A v, the least-distance program
    min ||u|| s.t. A u <= s reduces to the NNLS min ||E w - f||, w >= 0, for
    E = [-A^T; -s^T] and f the last unit vector (Lawson & Hanson 1974,
    ch. 23): a zero residual r certifies an empty region, and otherwise
    u = -r[:g] / r[g].  The rows NNLS keeps positive are the active set; the
    point is recomputed on them as z = v - A_P^T lam with
    (A_P A_P^T) lam = A_P v - b_P, and the residual formula stands in only
    when that Gram system is singular (duplicated cut rows).
    """
    v = np.asarray(v, dtype=float)
    g = v.size
    if box.lo.shape != v.shape:
        raise ValidationError("the point and the box differ in dimension")
    big_a, big_b = box.rows, box.rhs
    if a_ub is not None and len(a_ub):
        big_a = np.concatenate([np.asarray(a_ub, dtype=float), big_a])
        big_b = np.concatenate([np.asarray(b_ub, dtype=float), big_b])

    av = big_a @ v
    if (av <= big_b + 1e-9).all():
        return QpResult(z=v.copy(), distance=0.0)

    # u is measured in units of the largest slack so that the residual test
    # below does not depend on the scale of the capital
    slack = big_b - av
    scale = float(np.abs(slack).max())
    big_e = np.concatenate([-big_a.T, -slack[None, :] / scale])
    # the column norms as np.linalg.norm(big_e, axis=0) computes them
    norms = np.sqrt(np.add.reduce(big_e * big_e, axis=0))
    big_e /= np.where(norms > 0.0, norms, 1.0)
    w = _nnls(big_e)
    r = big_e @ w
    r[g] -= 1.0
    if np.sqrt(r.dot(r)) <= _EMPTY_TOL:
        raise ValidationError("min_norm_qp called on an empty region")

    active = np.flatnonzero(w > 0.0)
    a_s = big_a[active]
    gram = a_s @ a_s.T
    r_s = a_s @ v - big_b[active]
    try:
        lam = np.linalg.solve(gram, r_s)
        solved = np.abs(gram @ lam - r_s).max() <= 1e-8 * max(1.0, np.abs(r_s).max())
    except np.linalg.LinAlgError:
        solved = False
    z = v - a_s.T @ lam if solved else v - scale * r[:g] / r[g]
    u = v - z
    return QpResult(z=z, distance=float(np.sqrt(u.dot(u))))
