"""Directed scale-free graph generation and interbank liability construction.

The generator grows a directed multigraph by preferential attachment with
three event types (new node with out-edge, edge between existing nodes, new
node with in-edge).  The resulting adjacency is combined with a 2x2
intergroup liability matrix to produce a relative-liability matrix and a
total-obligation vector for a core-periphery network, plus the usual
descriptive statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import ValidationError, as_array


@dataclass(frozen=True)
class BollobasParams:
    """Parameters of the preferential-attachment growth process.

    theta/eta/zeta are the probabilities of the three growth events and must
    sum to one; delta_in/delta_out are the attachment smoothing constants.
    """

    theta: float
    eta: float
    zeta: float
    delta_in: float
    delta_out: float
    target_nodes: int
    seed: int

    def validate(self) -> None:
        probs = (self.theta, self.eta, self.zeta)
        if any(p < 0 or p > 1 for p in probs):
            raise ValidationError("theta, eta, zeta must lie in [0, 1]")
        if abs(self.theta + self.eta + self.zeta - 1.0) > 1e-12:
            raise ValidationError("theta + eta + zeta must equal 1 within 1e-12")
        if self.delta_in < 0 or self.delta_out < 0:
            raise ValidationError("delta_in and delta_out must be nonnegative")
        if self.target_nodes < 1:
            raise ValidationError("target_nodes must be a positive integer")
        if self.target_nodes > 1 and self.theta + self.zeta == 0:
            raise ValidationError(
                "theta + zeta = 0: the process can never add nodes, so "
                "target_nodes > 1 is unreachable"
            )


@dataclass(frozen=True)
class DirectedMultigraph:
    """Edge-list multigraph; loops and parallel edges allowed."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def simple_adjacency(self) -> np.ndarray:
        """Collapse to a binary adjacency: A[i, j] = 1 iff >=1 edge i->j, i != j."""
        a = np.zeros((self.n, self.n), dtype=int)
        for s, t in self.edges:
            if s != t:
                a[s, t] = 1
        return a


class DerivedCache:
    """Data derived from one (pi, pbar) pair, dropped once either changes.

    The clearing kernel keeps its per-pattern linear systems in ``entries``
    and their size in ``nbytes``.  The cache holds private copies of the
    arrays it was built from and compares them on every ``valid_for``, so an
    in-place edit of ``pi`` or ``pbar`` empties it.
    """

    def __init__(self) -> None:
        self.pi: np.ndarray | None = None
        self.pbar: np.ndarray | None = None
        self.entries: dict = {}
        self.nbytes = 0

    def valid_for(self, pi: np.ndarray, pbar: np.ndarray) -> DerivedCache:
        """This cache, emptied first unless it was built from (pi, pbar)."""
        if not (self.pi is not None and np.array_equal(self.pi, pi)
                and np.array_equal(self.pbar, pbar)):
            self.pi, self.pbar = pi.copy(), pbar.copy()
            self.entries = {}
            self.nbytes = 0
        return self


@dataclass(frozen=True)
class FinancialNetwork:
    """Relative-liability matrix and total obligations of a clearing network.

    ``derived`` is a cache for the clearing kernel; it takes no part in
    equality, ``repr`` or the network file.
    """

    d: int
    pi: np.ndarray
    pbar: np.ndarray
    derived: DerivedCache = field(default_factory=DerivedCache, init=False,
                                  compare=False, repr=False)

    def validate(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        pbar = np.asarray(self.pbar, dtype=float)
        if pi.shape != (self.d, self.d) or pbar.shape != (self.d,):
            raise ValidationError("pi must be d x d and pbar length d")
        if np.any(np.abs(np.diag(pi)) > 0):
            raise ValidationError("pi must have a zero diagonal")
        if np.any(pi < 0):
            raise ValidationError("pi entries must be nonnegative")
        if np.any(np.abs(pi.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("each row of pi must sum to 1 within 1e-9")
        if np.any(pbar <= 0):
            raise ValidationError("pbar must be strictly positive")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d == other.d and np.array_equal(self.pi, other.pi)
                and np.array_equal(self.pbar, other.pbar))

    @property
    def total_obligations(self) -> float:
        return float(np.sum(self.pbar))


@dataclass(frozen=True)
class Grouping:
    """Partition of the d banks into g groups.

    assignment[i] is the group index of bank i; the derived binary matrix
    has one 1 per column.  spread(z) maps group capital levels to the
    per-bank injection vector.
    """

    g: int
    assignment: np.ndarray

    def validate(self, d: int | None = None) -> None:
        a = np.asarray(self.assignment, dtype=int)
        if d is not None and a.shape != (d,):
            raise ValidationError("assignment length must equal the bank count")
        if a.size == 0:
            raise ValidationError("assignment must be nonempty")
        if a.min() < 0 or a.max() >= self.g:
            raise ValidationError("assignment entries must lie in [0, g)")
        sizes = np.bincount(a, minlength=self.g)
        if np.any(sizes == 0):
            raise ValidationError("every group must be nonempty")

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(np.asarray(self.assignment, dtype=int), minlength=self.g)

    @property
    def matrix(self) -> np.ndarray:
        """Binary g x d matrix with entry (j, i) = 1 iff bank i is in group j."""
        a = np.asarray(self.assignment, dtype=int)
        b = np.zeros((self.g, a.size), dtype=int)
        b[a, np.arange(a.size)] = 1
        return b

    def spread(self, z: np.ndarray) -> np.ndarray:
        """Per-bank injection from group levels (matrix transpose applied to z)."""
        return np.asarray(z, dtype=float)[np.asarray(self.assignment, dtype=int)]


@dataclass(frozen=True)
class IntergroupLiabilityMatrix:
    """Per-edge nominal liability by (source group, target group)."""

    values: np.ndarray

    def validate(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError("intergroup liability matrix must be square")
        if np.any(v < 0):
            raise ValidationError("intergroup liabilities must be nonnegative")


@dataclass(frozen=True)
class NetworkStats:
    avg_degree: float
    density: float
    total_clustering: float
    cpe: float
    cpi: float


def generate_bollobas(params: BollobasParams) -> DirectedMultigraph:
    """Grow a directed multigraph by preferential attachment.

    The initial graph is a single node with one self-loop, so the first
    attachment probabilities are well defined.  Each step draws one of the
    three event types with probabilities (theta, eta, zeta); endpoint
    selection is proportional to in-degree + delta_in resp. out-degree +
    delta_out.  The process stops as soon as the node count reaches
    ``target_nodes``.  Deterministic given (params, seed).
    """
    params.validate()
    rng = np.random.default_rng(params.seed)

    n = 1
    in_deg = [1.0]
    out_deg = [1.0]
    edges: list[tuple[int, int]] = [(0, 0)]

    def pick(weights: list[float], delta: float) -> int:
        w = np.asarray(weights) + delta
        total = w.sum()
        if total <= 0:
            # delta = 0 with all degrees 0 cannot happen: the seed loop keeps
            # total degree equal to the edge count >= 1.
            raise ValidationError("degenerate attachment distribution")
        return int(rng.choice(len(w), p=w / total))

    while n < params.target_nodes:
        u = rng.random()
        if u < params.theta:
            w = pick(in_deg, params.delta_in)
            v = n
            in_deg.append(0.0)
            out_deg.append(0.0)
            n += 1
            edges.append((v, w))
            out_deg[v] += 1
            in_deg[w] += 1
        elif u < params.theta + params.eta:
            v = pick(out_deg, params.delta_out)
            w = pick(in_deg, params.delta_in)
            edges.append((v, w))
            out_deg[v] += 1
            in_deg[w] += 1
        else:
            v = pick(out_deg, params.delta_out)
            w = n
            in_deg.append(0.0)
            out_deg.append(0.0)
            n += 1
            edges.append((v, w))
            out_deg[v] += 1
            in_deg[w] += 1

    return DirectedMultigraph(n=n, edges=tuple(edges))


def core_periphery_grouping(adjacency: np.ndarray, core_size: int) -> Grouping:
    """Group 0 = the top `core_size` nodes by total degree; ties to lower index."""
    a = np.asarray(adjacency)
    d = a.shape[0]
    if not 0 < core_size < d:
        raise ValidationError("core_size must satisfy 0 < core_size < node count")
    degree = a.sum(axis=0) + a.sum(axis=1)
    order = np.lexsort((np.arange(d), -degree))
    assignment = np.ones(d, dtype=int)
    assignment[order[:core_size]] = 0
    return Grouping(g=2, assignment=assignment)


def build_liabilities(
    graph: DirectedMultigraph,
    core_size: int,
    intergroup: IntergroupLiabilityMatrix,
    repair: bool = True,
) -> tuple[FinancialNetwork, Grouping]:
    """Build (pi, pbar) from the collapsed adjacency and intergroup liabilities.

    The nominal liability of an i->j link is the intergroup matrix entry for
    (group(i), group(j)).  pbar sums rows of the nominal matrix and pi is the
    row-normalization.  A node with no outgoing liabilities would break the
    requirement pbar > 0; with ``repair`` enabled it receives one liability of
    the smallest positive intergroup entry, owed to the highest-degree node of
    the other group (ties to lower index).
    """
    intergroup.validate()
    m = np.asarray(intergroup.values, dtype=float)
    if m.shape != (2, 2):
        raise ValidationError("build_liabilities expects a 2x2 intergroup matrix")

    a = graph.simple_adjacency()
    d = graph.n
    grouping = core_periphery_grouping(a, core_size)
    assignment = np.asarray(grouping.assignment)

    liab = m[np.ix_(assignment, assignment)] * a
    if not np.any(liab > 0):
        raise ValidationError("no positive liabilities: adjacency and matrix incompatible")

    zero_rows = np.flatnonzero(liab.sum(axis=1) == 0)
    if zero_rows.size:
        if not repair:
            raise ValidationError(
                f"nodes {zero_rows.tolist()} have zero total liabilities (repair disabled)"
            )
        positive = m[m > 0]
        fill = float(positive.min())
        degree = a.sum(axis=0) + a.sum(axis=1)
        for i in zero_rows:
            other = np.flatnonzero(assignment != assignment[i])
            target = other[np.lexsort((other, -degree[other]))[0]]
            liab[i, target] = fill

    pbar = liab.sum(axis=1)
    pi = liab / pbar[:, None]
    net = FinancialNetwork(d=d, pi=pi, pbar=pbar)
    net.validate()
    return net, grouping


def network_stats(adjacency: np.ndarray, grouping: Grouping) -> NetworkStats:
    """Descriptive statistics of a binary adjacency under a core-periphery split.

    Average degree and density count directed links.  The clustering total is
    the sum of local clustering coefficients on the symmetrized simple graph.
    The core-periphery error counts missing core-core links plus present
    periphery-periphery links over total links; the core-periphery index is
    the fraction of links touching the core.  Both are NaN when the graph has
    no links.
    """
    a = as_array(adjacency, "adjacency")
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValidationError("adjacency must be square")
    if np.any(np.diag(a) != 0):
        raise ValidationError("adjacency must have a zero diagonal")
    grouping.validate(d)

    total_links = float(a.sum())
    avg_degree = total_links / d
    density = total_links / (d * (d - 1)) if d > 1 else 0.0

    sym = ((a + a.T) > 0).astype(float)
    np.fill_diagonal(sym, 0.0)
    deg = sym.sum(axis=1)
    closed = np.diag(sym @ sym @ sym)
    denom = deg * (deg - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(denom > 0, closed / denom, 0.0)
    tcc = float(local.sum())

    if total_links == 0:
        return NetworkStats(avg_degree, density, tcc, float("nan"), float("nan"))

    core = np.asarray(grouping.assignment) == 0
    peri = ~core
    cc_block = a[np.ix_(core, core)]
    pp_links = float(a[np.ix_(peri, peri)].sum())
    n_core = int(core.sum())
    cc_missing = float(n_core * (n_core - 1) - cc_block.sum())
    cpe = (cc_missing + pp_links) / total_links
    cpi = (total_links - pp_links) / total_links
    return NetworkStats(avg_degree, density, tcc, cpe, cpi)
