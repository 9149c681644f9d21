"""Self-contained solver kernels for the box-bounded programs the library poses.

Both kernels take only inequality rows and finite bounds, the form of the
payment LP (0 <= p <= pbar), the clearing-pattern checks and the node
problems of branch-and-bound (the capital box); a non-finite bound raises
``ValidationError``.  ``solve_lp`` is a two-phase bounded-variable primal
simplex on a dense tableau (revised form with an explicit basis inverse)
whose status is "optimal" or "infeasible".  Pricing is Dantzig's rule,
switching to Bland's rule after a run of degenerate steps to guarantee
termination.  ``min_norm_qp`` projects a point onto a polyhedron of any
dimension through Lawson and Hanson's reduction of the least-distance
program to a nonnegative least-squares problem, solved by their active-set
method in numpy.  Its bounds come as a ``risk.CapitalBox``, which checks
them and builds their rows when it is built, so a caller that projects many
times onto cuts inside one box (a branch-and-bound solve) pays for that
once.
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

    status: str
    x: np.ndarray | None
    objective: float
    duals_ub: np.ndarray | None
    reduced_costs: np.ndarray | None
    iterations: int


def _finite_bounds(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValidationError("variable bounds must be finite")
    return lower, upper


def solve_lp(lp: LinearProgram) -> LpResult:
    """Solve a box-bounded inequality LP; status is optimal or infeasible."""
    if lp.sense not in ("min", "max"):
        raise ValidationError("sense must be 'min' or 'max'")
    sign = 1.0 if lp.sense == "min" else -1.0
    c = sign * np.asarray(lp.c, dtype=float)
    n = c.size
    lower, upper = _finite_bounds(lp.lower, lp.upper)
    if lower.shape != (n,) or upper.shape != (n,):
        raise ValidationError("bound vectors must match the variable count")
    if np.any(lower > upper + _FEAS_TOL):
        return LpResult("infeasible", None, np.nan, None, None, 0)

    if lp.a_ub is None or len(lp.a_ub) == 0:
        # pure box problem
        x = np.where(c < 0, upper, lower)
        return LpResult("optimal", x, sign * float(c @ x), np.zeros(0), sign * c, 0)
    a = np.asarray(lp.a_ub, dtype=float)
    if a.shape != (len(a), n):
        raise ValidationError("a_ub shape inconsistent with c")

    state = _Simplex(a, np.asarray(lp.b_ub, dtype=float), c, lower, upper)
    if not state.run():
        return LpResult("infeasible", None, np.nan, None, None, state.iterations)
    x, y, red = state.solution()
    return LpResult(
        status="optimal",
        x=x,
        objective=sign * float(c @ x),
        duals_ub=sign * y,
        reduced_costs=sign * red[:n],
        iterations=state.iterations,
    )


_AT_LOWER = 1
_AT_UPPER = 2
_BASIC = 0


class _Simplex:
    """Bounded-variable primal simplex over A x + s = b with slacks and artificials."""

    def __init__(self, a, b, c, lower, upper):
        m, n = a.shape
        self.m = m
        self.n_struct = n
        # columns: structurals | slacks | artificials, all nonbasic at their
        # lower bound (zero for slacks and artificials)
        self.art0 = n + m
        self.ncols = n + 2 * m
        self.a = np.hstack([a, np.eye(m), np.zeros((m, m))])
        self.b = b.astype(float)
        self.cost2 = np.concatenate([c, np.zeros(2 * m)])
        self.lower = np.concatenate([lower, np.zeros(2 * m)])
        self.status = np.full(self.ncols, _AT_LOWER, dtype=np.int8)
        self.xval = self.lower.copy()
        self.iterations = 0

        # crash basis: a satisfied row starts on its slack, a violated row on
        # an artificial signed to its residual
        resid = self.b - self.a[:, : self.art0] @ self.xval[: self.art0]
        satisfied = resid >= 0
        signs = np.where(satisfied, 1.0, -1.0)
        self.a[:, self.art0:] = np.diag(signs)
        self.upper = np.concatenate([upper, np.full(m, np.inf),
                                     np.where(satisfied, 0.0, np.inf)])
        self.basis = np.where(satisfied, n, self.art0) + np.arange(m)
        self.status[self.basis] = _BASIC
        self.binv = np.diag(signs)
        self.xb = np.where(satisfied, resid, np.abs(resid))
        self.cost1 = np.concatenate([np.zeros(self.art0), np.ones(m)])

    # -- core iteration ---------------------------------------------------

    def run(self) -> bool:
        """Both phases; False when phase 1 leaves the rows violated."""
        self._phase(self.cost1)
        if float(self.cost1[self.basis] @ self.xb) > 1e-7 * max(1.0, np.abs(self.b).max()):
            return False
        # freeze artificials at zero for phase 2
        self.upper[self.art0:] = 0.0
        self.xval[self.art0:] = 0.0
        self._phase(self.cost2)
        return True

    def _phase(self, cost) -> None:
        degenerate_run = 0
        bland = False
        since_refactor = 0
        while True:
            if self.iterations >= _MAX_ITER:
                raise SolverError("simplex iteration cap exceeded (cycling guard)")
            y = self.binv.T @ cost[self.basis]
            red = cost - self.a.T @ y
            j = self._entering(red, bland)
            if j < 0:
                return
            self.iterations += 1
            since_refactor += 1

            direction = 1.0 if self.status[j] == _AT_LOWER else -1.0
            w = self.binv @ self.a[:, j]
            rate = -w if direction > 0 else w

            basis_lo = self.lower[self.basis]
            basis_up = self.upper[self.basis]
            t_hit = np.full(self.m, np.inf)
            dec = rate < -_PIVOT_TOL
            inc = rate > _PIVOT_TOL
            t_hit[dec] = (self.xb[dec] - basis_lo[dec]) / (-rate[dec])
            t_hit[inc] = (basis_up[inc] - self.xb[inc]) / rate[inc]
            np.maximum(t_hit, 0.0, out=t_hit)
            t_best = t_hit.min()

            t_flip = self.upper[j] - self.lower[j]

            if t_flip < t_best:
                # bound flip, no basis change
                self.xb += rate * t_flip
                self.xval[j] = self.upper[j] if direction > 0 else self.lower[j]
                self.status[j] = _AT_UPPER if direction > 0 else _AT_LOWER
                degenerate_run = 0
                bland = False
                continue

            if not np.isfinite(t_best):
                raise SolverError("simplex step meets no bound inside a finite box")

            candidates = np.flatnonzero(t_hit <= t_best + 1e-12)
            leave = int(candidates[np.argmin(self.basis[candidates])])
            leave_to = _AT_LOWER if rate[leave] < 0 else _AT_UPPER

            if t_best <= _DEGENERATE_STEP:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False

            old = self.basis[leave]
            self.xb += rate * t_best
            enter_val = self.xval[j] + direction * t_best
            self.status[old] = leave_to
            self.xval[old] = self.lower[old] if leave_to == _AT_LOWER else self.upper[old]
            self.basis[leave] = j
            self.status[j] = _BASIC
            self.xb[leave] = enter_val

            piv = w[leave]
            if abs(piv) < _PIVOT_TOL:
                raise SolverError("vanishing pivot element")
            self.binv[leave] /= piv
            w[leave] = 0.0
            self.binv -= w[:, None] * self.binv[leave][None, :]

            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0

    def _entering(self, red, bland: bool) -> int:
        st = self.status
        down = (st == _AT_LOWER) & (red < -_COST_TOL)
        up = (st == _AT_UPPER) & (red > _COST_TOL)
        eligible = np.flatnonzero((down | up) & (self.upper - self.lower > 0))
        if eligible.size == 0:
            return -1
        if bland:
            return int(eligible[0])
        scores = np.abs(red[eligible])
        return int(eligible[np.argmax(scores)])

    def _refactor(self) -> None:
        basis_mat = self.a[:, self.basis]
        try:
            self.binv = np.linalg.inv(basis_mat)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis during refactorization") from exc
        nb = np.flatnonzero(self.status != _BASIC)
        self.xb = self.binv @ (self.b - self.a[:, nb] @ self.xval[nb])

    # -- extraction --------------------------------------------------------

    def solution(self):
        self._refactor()
        x = self.xval.copy()
        x[self.basis] = self.xb
        # snap basics onto violated bounds within tolerance
        x = np.minimum(np.maximum(x, self.lower - _FEAS_TOL), self.upper + _FEAS_TOL)
        y = self.binv.T @ self.cost2[self.basis]
        red = self.cost2 - self.a.T @ y
        resid = self.a[:, : self.art0] @ x[: self.art0] - self.b
        scale = max(1.0, float(np.abs(self.b).max()))
        if np.abs(resid).max() > 1e-7 * scale:
            raise SolverError("primal residual exceeds tolerance after solve")
        return x[: self.n_struct], y, red


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
