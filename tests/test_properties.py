"""Property tests on small random networks.

For the batched clearing kernel the references are the payment LP, which
shares no code with the kernel: its payments (``clearing_lp``) and its row
duals, the aggregation function itself through the global supergradient
inequality, and the kernel's own one-row calls, which must give the same
bits as the batch; its three-step Picard seed must reach the patterns and
totals of the same kernel seeded by one step.  For the membership oracle they are the two properties
the grid search relies on: monotonicity and translativity in the capital
vector; with per-scenario labels carried between calls, the reference is the
same oracle without them.  For the unit-weight bisection, whose steps follow
the scenarios' ray thresholds, it is a plain bisection on the oracle, and
for the boundary search's line order the oracle's classification of every
grid point.  For the grid's generators the reference is a brute-force
minimal-element filter, and for the Hausdorff distance the closed form over
one K x K x g tensor.  The README pipeline, run twice in-process, must write
the same artifacts byte for byte.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sysvar as sv
import sysvar.clearing
import sysvar.risk
import sysvar.saa
import sysvar.scalarize
from sysvar.cli import main
from sysvar.clearing import (_dual_supergradient, _solve_payment_lp, _sort_by_pattern,
                             aggregate_en_many)
from sysvar.mip import counting_slope, pattern_cuts
from sysvar.saa import Grid, _generators, _traversal
from sysvar.util import DEFAULT_TOL, VIOL_TOL, max_violations, violates
from conftest import (brute_force_generators, exhaustive_grid_generators, exp_scenarios,
                      plain_bisection, random_network, two_group_split)

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)


def _instance(seed: int, d: int, n: int):
    rng = np.random.default_rng(seed)
    net = random_network(rng, d)
    return net, rng.exponential(0.5, size=(n, d)), rng


def _nondegenerate(net, x, p, margin=1e-6) -> bool:
    """At payments p every bank is strictly solvent or strictly inside its
    payment range."""
    inflow = net.pi.T @ p + x
    defaulted = p < net.pbar - margin
    return bool(np.all(np.where(defaulted, p > margin, inflow > net.pbar + margin)))


def _matches_lp(net, x, grad) -> np.ndarray:
    """Check the one-row kernel against one payment-LP solve and return the
    LP's defaults.

    The payments (those ``clearing_lp`` reports) agree within 1e-7 with
    equal defaults; where the LP's optimum is nondegenerate, grad equals
    the LP's row duals within 1e-9.
    """
    p, res = _solve_payment_lp(net, x)
    defaults = p < net.pbar - DEFAULT_TOL
    fp = sv.clearing_fixed_point(net, x)
    assert np.abs(fp.p - p).max() <= 1e-7
    assert np.array_equal(fp.defaults, defaults)
    if _nondegenerate(net, x, p):
        assert np.abs(grad - _dual_supergradient(res)).max() <= 1e-9
    return defaults


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 7))
def test_closed_form_matches_lp_dual(seed, d):
    net, xs, _ = _instance(seed, d, 1)
    x = xs[0]
    p, res = _solve_payment_lp(net, x)
    assume(_nondegenerate(net, x, p))
    _, grads = sv.aggregate_en_many(net, xs, supergradients=True)
    assert np.abs(grads[0] - _dual_supergradient(res)).max() <= 1e-9


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 7))
def test_global_supergradient_inequality(seed, d):
    net, xs, rng = _instance(seed, d, 20)
    totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
    others = rng.exponential(0.5, size=xs.shape)
    other_totals = sv.aggregate_en_many(net, others)
    for k in range(xs.shape[0]):
        bound = totals[k] + (others - xs[k]) @ grads[k]
        assert np.all(other_totals <= bound + 1e-8)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=seeds)
def test_batched_matches_scalar_beyond_one_key_word(seed):
    # 70 banks need two 64-bit pattern words; half the rows pay banks 0-63
    # in full, so their patterns differ only in the second word
    net, xs, rng = _instance(seed, 70, 40)
    xs[::2, :64] += net.pbar[:64]
    totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
    for k, x in enumerate(xs):
        assert abs(totals[k] - sv.aggregate_en(net, x)) <= 1e-10
        assert np.array_equal(grads[k], sv.en_supergradient(net, x))
        defaults = _matches_lp(net, x, grads[k])
        assert np.all(grads[k][~defaults] == 0.0)
        assert np.all(grads[k][defaults] >= 1.0)


def _leaky_cycle_instance(seed: int, d: int, n: int):
    """Banks owe (1 - leak) around a ring and spread the leak over the rest.

    Obligations fall by 20% per step along the ring, so one step from pbar
    shows only bank 0 short; with zero cash (row 0) the default set then
    grows to all banks but one over later rounds.
    """
    rng = np.random.default_rng(seed)
    leak = rng.uniform(0.005, 0.05)
    pi = rng.uniform(0.1, 1.0, size=(d, d))
    np.fill_diagonal(pi, 0.0)
    pi *= leak / pi.sum(axis=1, keepdims=True)
    pi[np.arange(d), (np.arange(d) + 1) % d] += 1.0 - leak
    pbar = rng.uniform(1.0, 3.0) * 0.8 ** np.arange(d)
    net = sv.FinancialNetwork(d=d, pi=pi, pbar=pbar)
    xs = rng.exponential(0.05, size=(n, d)) * pbar * (rng.random((n, d)) < 0.6)
    xs[0] = 0.0
    return net, xs


def _picard_seed(net, xs) -> np.ndarray:
    """The banks short at the kernel's last seed step, the ``_SEED_STEPS``-th
    capped Picard step down from pbar."""
    q = np.broadcast_to(net.pbar, xs.shape)
    for _ in range(sysvar.clearing._SEED_STEPS):
        step = xs + q @ net.pi
        q = np.minimum(step, net.pbar)
    return step < net.pbar - DEFAULT_TOL


def _final_patterns(net, xs) -> tuple[np.ndarray, dict, set]:
    """The kernel's totals, each settled row's final default pattern and
    the fallback rows.  A settled pattern D's gradient (I - pi_DD)^{-1} 1
    is at least 1 on D and zero off it, so its support is the pattern."""
    totals, grads = np.empty(len(xs)), np.zeros(xs.shape)
    fallback, dual, _ = sysvar.clearing._fictitious_default(net, xs, totals, grads)
    assert dual == []
    patterns = {k: np.flatnonzero(grads[k]).tolist()
                for k in range(len(xs)) if k not in fallback}
    return totals, patterns, set(fallback)


@_SETTINGS
@given(seed=seeds, d=st.integers(3, 9), n=st.integers(1, 40), leaky=st.booleans())
def test_picard_seed_lies_inside_the_final_pattern(seed, d, n, leaky):
    # the one-step seed's rounds find each row's default pattern; the
    # three-step seed holds only certified defaulters, so it lies inside
    # that pattern, and its rounds reach the same pattern and total
    net, xs = _leaky_cycle_instance(seed, d, n) if leaky else _instance(seed, d, n)[:2]
    totals, patterns, fallback = _final_patterns(net, xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysvar.clearing, "_SEED_STEPS", 1)
        totals1, patterns1, fallback1 = _final_patterns(net, xs)
    seeded = _picard_seed(net, xs)
    assert fallback <= fallback1
    for k, pattern in patterns1.items():
        assert set(np.flatnonzero(seeded[k])) <= set(pattern)
        assert patterns[k] == pattern
        assert totals[k] == totals1[k]


@_SETTINGS
@given(seed=seeds, d=st.integers(5, 9), n=st.integers(1, 30))
def test_rounds_match_scalar_engine_on_leaky_cycles(seed, d, n):
    # the zero-cash row's default spreads one bank per Picard step, so past
    # four banks it takes more hops than the kernel's seed steps: its
    # rounds must grow the seeded mask
    net, xs = _leaky_cycle_instance(seed, d, n)
    totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
    seeded = _picard_seed(net, xs)
    needs_rounds = 0
    for k, x in enumerate(xs):
        defaults = _matches_lp(net, x, grads[k])
        needs_rounds += bool(np.any(seeded[k] != defaults))
        assert abs(totals[k] - sv.aggregate_en(net, x)) <= 1e-10
        assert np.array_equal(grads[k], sv.en_supergradient(net, x))
        assert np.array_equal(grads[k] > 0, defaults)
    assert needs_rounds >= 1


@_SETTINGS
@given(seed=seeds, d=st.integers(1, 200), n=st.integers(1, 60))
def test_pattern_groups_partition_rows(seed, d, n):
    rng = np.random.default_rng(seed)
    base = rng.random((4, d)) < 0.5
    base[1::2, :64] = base[0, :64]   # patterns that differ only past bank 64
    masks = base[rng.integers(0, 4, size=n)]
    order, bounds = _sort_by_pattern(masks)
    groups = np.split(order, bounds[1:-1])
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(n))
    for members in groups:
        assert np.all(np.diff(members) > 0)
        assert (masks[members] == masks[members[0]]).all()
    firsts = np.array([masks[members[0]] for members in groups])
    assert len(np.unique(firsts, axis=0)) == len(groups)


def _risk_instance(seed: int, d: int, n: int):
    rng = np.random.default_rng(seed)
    net = random_network(rng, d, pbar_range=(0.5, 1.6))
    grouping = two_group_split(rng, d)
    # dyadic scenarios keep every shift below exact in floating point
    scen = sv.ScenarioSet(values=np.round(exp_scenarios(rng, n, d, 0.3).values * 64) / 64)
    spec = sv.RiskSpec(alpha=float(rng.uniform(0.75, 0.95)) * net.total_obligations,
                       lam=float(rng.uniform(0.1, 0.5)))
    return net, grouping, scen, spec, rng


@_SETTINGS
@given(seed=seeds, g=st.integers(1, 4), d=st.integers(4, 20), n=st.integers(1, 60))
def test_stacked_cuts_have_the_per_scenario_loops_bits(seed, g, d, n):
    # branch-and-bound's cut rows, right-hand sides and counting slope
    # against the loop over scenarios that built them one at a time
    rng = np.random.default_rng(seed)
    bmat = sv.Grouping(g=g, assignment=rng.permutation(np.arange(d) % g)).matrix.astype(float)
    grads = rng.exponential(1.0, size=(n, d)) * (rng.random((n, d)) < 0.7)
    totals = rng.exponential(50.0, size=n)
    z = rng.normal(0.0, 30.0, size=g)
    alpha = float(rng.uniform(1.0, 100.0))
    slopes = [bmat @ grads[k] for k in range(n)]
    rows, rhs = pattern_cuts(bmat, grads, totals, z, alpha)
    assert rows.tobytes() == (-np.array(slopes)).tobytes()
    assert rhs.tobytes() == np.array([totals[k] - slopes[k] @ z - alpha
                                      for k in range(n)]).tobytes()
    slope = np.zeros(g)
    for k in range(n):
        slope += (bmat @ grads[k]) / alpha
    assert counting_slope(bmat, grads, alpha).tobytes() == slope.tobytes()


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 6), n=st.integers(1, 12))
def test_membership_matches_per_scenario_loop(seed, d, n):
    net, grouping, scen, spec, rng = _risk_instance(seed, d, n)
    box = sv.z_bounds(net, grouping, scen)
    z = rng.uniform(box.lo - 0.2, box.hi)
    count = 0
    for row in scen.values + grouping.spread(z):
        count += bool(row.min() < -1e-9
                      or violates(sv.aggregate_en(net, np.maximum(row, 0.0)), spec.alpha))
    res = sv.membership(net, grouping, scen, spec, z)
    assert res.violation_fraction == count / n
    selection_ok = (scen.values + grouping.spread(z)).min() >= -1e-9
    assert res.accepted == (selection_ok and count <= max_violations(n, spec.lam))


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 6), n=st.integers(1, 12))
def test_membership_monotone_in_z(seed, d, n):
    net, grouping, scen, spec, rng = _risk_instance(seed, d, n)
    box = sv.z_bounds(net, grouping, scen)
    z = rng.uniform(box.lo - 0.2, box.hi)
    w = rng.uniform(0.0, 0.5, size=2) * (rng.random(2) < 0.7)
    lower = sv.membership(net, grouping, scen, spec, z)
    upper = sv.membership(net, grouping, scen, spec, z + w)
    assert upper.violation_fraction <= lower.violation_fraction
    if lower.accepted:
        assert upper.accepted


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 6), n=st.integers(1, 12),
       axis=st.integers(0, 1), shift=st.integers(-16, 16))
def test_membership_translative_along_group_axis(seed, d, n, axis, shift):
    # adding shift to group `axis` in every scenario is the same as adding
    # it to that group's capital; dyadic values make both sums exact
    net, grouping, scen, spec, rng = _risk_instance(seed, d, n)
    box = sv.z_bounds(net, grouping, scen)
    z = np.round(rng.uniform(box.lo - 0.2, box.hi) * 64) / 64
    w = np.zeros(2)
    w[axis] = shift / 4
    moved = sv.ScenarioSet(values=scen.values + grouping.spread(w)[None, :])
    assert (sv.membership(net, grouping, moved, spec, z - w)
            == sv.membership(net, grouping, scen, spec, z))


def _bounds_instance(seed: int, d: int, n: int, cycle: bool):
    """A random network and cash rows, some of them above every obligation.

    With ``cycle`` the first k banks owe only each other around a ring, a
    closed class, and every other row holds no cash there: on such a row
    the least clearing vector is zero on the ring and the greatest is not.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, d)
    xs = rng.exponential(0.5, size=(n, d)) * (rng.random((n, d)) < 0.7)
    xs[2::3] += net.pbar
    if cycle:
        k = int(rng.integers(2, d + 1))
        ring = np.arange(k)
        pi = net.pi.copy()
        pi[ring] = 0.0
        pi[ring, (ring + 1) % k] = 1.0
        net = sv.FinancialNetwork(d=d, pi=pi, pbar=net.pbar)
        xs[::2, :k] = 0.0
    return net, xs, rng


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 7), n=st.integers(1, 30), cycle=st.booleans(),
       offset=st.sampled_from([None, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
def test_picard_bounds_fail_the_rows_the_kernel_fails(seed, d, n, cycle, offset):
    # alpha at a random level, or within a few bound margins of one row's
    # total; the rows the bounds decide and the rows they leave to the
    # kernel together fail exactly where the kernel's totals do
    net, xs, rng = _bounds_instance(seed, d, n, cycle)
    totals = aggregate_en_many(net, xs)
    if offset is None:
        alpha = float(rng.uniform(0.05, 1.1)) * net.total_obligations
    else:
        margin = sysvar.risk._BOUND_MARGIN * net.total_obligations
        alpha = float(totals[rng.integers(n)]) + VIOL_TOL + offset * margin
    fails, outside, sent = sysvar.risk._violations(net, xs, np.zeros(d), alpha,
                                                   np.ones(n, dtype=bool))
    assert np.array_equal(fails, violates(totals, alpha)) and not outside.any()
    assert 0 <= sent <= n


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 7), n=st.integers(1, 30), cycle=st.booleans(),
       offset=st.floats(-0.5, 0.5))
def test_picard_bounds_match_the_plain_rule(seed, d, n, cycle, offset):
    # the bounds against the plain rule: row totals by .sum(axis=1), every
    # lower step on every row the upper bound leaves open, and a pass at
    # the start or at the last step.  The line lies within half the margin
    # of one row's total, and a third of the rows are that row moved by at
    # most 0.4 margins in sum, so they lie within the margin of the line
    net, xs, rng = _bounds_instance(seed, d, n, cycle)
    pbar, pi = net.pbar, net.pi
    margin = sysvar.risk._BOUND_MARGIN * net.total_obligations
    r = int(rng.integers(n))
    near = rng.random(n) < 1 / 3
    near[r] = True
    moves = rng.uniform(-1.0, 1.0, size=(n, d))
    moves *= 0.4 * margin / np.abs(moves).sum(axis=1, keepdims=True)
    moves[r] = 0.0
    xs[near] = np.maximum(xs[r] + moves[near], 0.0)
    line = float(aggregate_en_many(net, xs[r:r + 1])[0]) + offset * margin
    alpha = line + VIOL_TOL
    q = np.minimum(xs, pbar)
    start = q.sum(axis=1) >= line + margin
    fails = ~start & (np.minimum(pbar, q + pbar @ pi).sum(axis=1) < line - margin)
    for _ in range(sysvar.risk._LOWER_STEPS):
        q = np.minimum(pbar, xs + q @ pi)
    passes = start | (~fails & (q.sum(axis=1) >= line + margin))
    low, high = sysvar.risk._picard_bounds(net, xs, alpha)
    assert np.array_equal(low, fails) and np.array_equal(high, passes)
    assert not (low | high)[near].any()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=seeds, d=st.integers(3, 6), n=st.integers(4, 40), from_ideal=st.booleans())
def test_scenario_labels_match_full_membership(seed, d, n, from_ideal):
    # every oracle call of the record-backed grid search, the ideal point's
    # confirmation calls included, returns what a record-free call returns,
    # and so does every grid label.  alpha - VIOL_TOL lies within 1e-9 of
    # one scenario's aggregate at a point the search always evaluates
    rng = np.random.default_rng(seed)
    net = random_network(rng, d, pbar_range=(0.5, 1.6))
    grouping = two_group_split(rng, d)
    base = exp_scenarios(rng, n, d, 0.3).values
    box = sv.z_bounds(net, grouping, sv.ScenarioSet(values=base))
    epsilon = float(rng.uniform(0.1, 0.3))
    if from_ideal:
        # the axis-0 bisection confirms its final bracket at z0 = (right,
        # hi_1).  A copy of a scenario that passes there but not at the
        # floor, given the least extra group-0 cash that makes it pass at
        # z0, starts to pass inside that bracket, so the bisection is
        # unchanged and the copy sits on the threshold at z0.  With lambda
        # = (k + 1/2) / (n + 1), n and n + 1 scenarios both admit k
        # violations
        k = int(rng.integers(0, n // 2 + 1))
        spec = sv.RiskSpec(alpha=float(rng.uniform(0.9, 0.99)) * net.total_obligations,
                           lam=(k + 0.5) / (n + 1))
        right = plain_bisection(net, grouping, sv.ScenarioSet(values=base), spec, 0, box)
        assume(box.lo[0] < right)
        z0 = np.array([right, box.hi[1]])

        def passes(x, z):
            total = aggregate_en_many(net, np.maximum(x + grouping.spread(z), 0.0)[None])
            return not violates(total[0], spec.alpha)

        floor = np.array([box.lo[0], box.hi[1]])
        movers = [m for m in range(n) if passes(base[m], z0) and not passes(base[m], floor)]
        m = movers[rng.integers(len(movers))]
        fail, ok = box.lo[0] - right, 0.0
        for _ in range(64):
            mid = 0.5 * (fail + ok)
            if passes(base[m] + grouping.spread(np.array([mid, 0.0])), z0):
                ok = mid
            else:
                fail = mid
        planted = base[m] + grouping.spread(np.array([ok, 0.0]))
        scen = sv.ScenarioSet(values=np.vstack([base, planted]))
        threshold = spec.alpha - VIOL_TOL
    else:
        # the first point the traversal yields; shifted copies of the
        # scenario sit on the threshold at points below it
        grid = Grid.build(box.lo, box.hi, epsilon)
        z0 = grid.value(next(_traversal(grid, np.zeros(grid.shape, dtype=np.int8))))
        totals = aggregate_en_many(net, np.maximum(base + grouping.spread(z0), 0.0))
        inner = np.flatnonzero(totals < net.total_obligations - 1e-6)
        assume(inner.size > 0)
        k = inner[rng.integers(inner.size)]
        threshold = totals[k] + rng.uniform(-1e-9, 1e-9)
        shifts = rng.uniform(0.0, 1.0, size=(3, 2)) * (z0 - box.lo)
        scen = sv.ScenarioSet(values=np.vstack([base, base[k] + shifts[:, grouping.assignment]]))
        spec = sv.RiskSpec(alpha=threshold + VIOL_TOL, lam=float(rng.uniform(0.1, 0.4)))

    full = sysvar.risk.membership
    near, statuses = [], []

    def oracle(net, grouping, scenarios, spec, z, labels=None):
        res = full(net, grouping, scenarios, spec, z, labels=labels)
        assert res == full(net, grouping, scenarios, spec, z)
        xs = np.maximum(scenarios.values + grouping.spread(z), 0.0)
        near.append(np.abs(aggregate_en_many(net, xs) - threshold).min() <= 1e-9)
        return res

    def generators(grid, status):
        statuses.append((grid, status.copy()))
        return _generators(grid, status)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysvar.saa, "membership", oracle)
        mp.setattr(sysvar.scalarize, "membership", oracle)
        mp.setattr(sysvar.saa, "_generators", generators)
        sv.approximate_by_clearing(net, grouping, scen, spec, epsilon, box=box,
                                   grid_lo=None if from_ideal else box.lo)
    assert any(near)
    grid, status = statuses[0]
    for idx in np.ndindex(*grid.shape):
        accepted = full(net, grouping, scen, spec, grid.value(idx)).accepted
        assert status[idx] == (1 if accepted else 2)


def _kink(net, grouping, x, j, box, rng):
    """A point z = hi, z_j = t where x's aggregate has a kink on the ray: a
    bank that defaults at the floor turns solvent there (to about 1e-16)."""
    def at(t):
        z = np.array(box.hi, dtype=float)
        z[j] = t
        return z

    def defaults(t):
        return sv.clearing_fixed_point(net, np.maximum(x + grouping.spread(at(t)), 0.0)).defaults

    start = defaults(box.lo[j])
    assume(start.any() and not defaults(box.hi[j]).any())
    bank = rng.choice(np.flatnonzero(start))
    left, right = float(box.lo[j]), float(box.hi[j])
    for _ in range(64):
        mid = 0.5 * (left + right)
        if defaults(mid)[bank]:
            left = mid
        else:
            right = mid
    return at(right)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=seeds, d=st.integers(3, 8), n=st.integers(4, 40), leaky=st.booleans(),
       at_kink=st.booleans())
def test_threshold_bisection_is_plain_bisection(seed, d, n, leaky, at_kink):
    # the bisection replayed against the ray thresholds' order statistic
    # returns the plain bisection's bits, with its two confirmation calls
    # and no rerun
    rng = np.random.default_rng(seed)
    if leaky:
        net, xs = _leaky_cycle_instance(seed, d, n)
    else:
        net = random_network(rng, d, pbar_range=(0.5, 1.6))
        xs = rng.exponential(0.3, size=(n, d))
    grouping = two_group_split(rng, d)
    scen = sv.ScenarioSet(values=xs)
    box = sv.z_bounds(net, grouping, scen)
    j = int(rng.integers(2))
    if at_kink:
        # one scenario's threshold sits at a kink of its aggregate, and
        # lambda admits exactly the other scenarios failing there, so that
        # threshold is the unit-weight value
        m = int(rng.integers(n))
        z = _kink(net, grouping, xs[m], j, box, rng)
        totals = aggregate_en_many(net, np.maximum(xs + grouping.spread(z), 0.0))
        alpha = totals[m] + VIOL_TOL
        others = np.count_nonzero(violates(np.delete(totals, m), alpha))
        assume(others + 1 < n)
        spec = sv.RiskSpec(alpha=alpha, lam=(others + 0.5) / n)
    else:
        spec = sv.RiskSpec(alpha=float(rng.uniform(0.75, 0.97)) * net.total_obligations,
                           lam=float(rng.uniform(0.1, 0.4)))
    plain = plain_bisection(net, grouping, scen, spec, j, box)
    assume(box.lo[j] < plain)
    calls = []
    real = sysvar.scalarize.membership

    def spy(*args):
        calls.append(args[-1])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sysvar.scalarize, "membership", spy)
        assert sv.bisection_unit(net, grouping, scen, spec, j) == plain
    assert len(calls) == 2


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=seeds, d=st.integers(3, 6), n=st.integers(2, 20), g=st.integers(2, 3))
def test_line_order_keeps_exhaustive_generators(seed, d, n, g):
    # the boundary search, lowest lines first, classifies the grid as the
    # membership oracle classifies every point
    rng = np.random.default_rng(seed)
    net = random_network(rng, d, pbar_range=(0.5, 1.6))
    grouping = sv.Grouping(g=g, assignment=rng.permutation(np.arange(d) % g))
    scen = exp_scenarios(rng, n, d, 0.3)
    spec = sv.RiskSpec(alpha=float(rng.uniform(0.75, 0.97)) * net.total_obligations,
                       lam=float(rng.uniform(0.1, 0.4)))
    box = sv.z_bounds(net, grouping, scen)
    epsilon = float(np.max(box.hi - box.lo)) / (12 if g == 2 else 5)
    approx = sv.approximate_by_clearing(net, grouping, scen, spec, epsilon)
    grid = Grid.build(approx.ideal, box.hi, epsilon)
    assert np.array_equal(approx.generators,
                          exhaustive_grid_generators(net, grouping, scen, spec, grid))


def _tensor_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """The closed-form Hausdorff distance over one K x K x g tensor."""
    def directed(from_gens, to_gens):
        diff = np.clip(to_gens[None, :, :] - from_gens[:, None, :], 0.0, None)
        return float(np.sqrt(np.sum(diff * diff, axis=2)).min(axis=1).max())
    return max(directed(a, b), directed(b, a))


def _status(rng, grid, kind: str) -> np.ndarray:
    shape = grid.shape
    if kind == "monotone":
        # an upper set in value: a lower set in (descending-level) index
        weights = rng.uniform(0.5, 2.0, len(shape))
        height = sum(np.ix_(*[w * np.arange(n) for w, n in zip(weights, shape)]))
        return np.where(height <= rng.uniform(0, height.max() + 1), 1, 2).astype(np.int8)
    if kind == "non-monotone":
        return rng.integers(0, 3, size=shape).astype(np.int8)
    return np.full(shape, 1 if kind == "all accepted" else 2, dtype=np.int8)


@_SETTINGS
@given(seed=seeds, g=st.integers(1, 4),
       kind=st.sampled_from(["monotone", "non-monotone", "all accepted", "all rejected"]))
def test_generators_and_hausdorff_match_brute_force(seed, g, kind):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(2):
        counts = rng.integers(1, {1: 30, 2: 15, 3: 8, 4: 6}[g], size=g)
        step, lo = rng.uniform(0.05, 0.5), rng.uniform(-2.0, 2.0, g)
        grid = Grid.build(lo, lo + step * (counts - 1), step * np.sqrt(g))
        status = _status(rng, grid, kind)
        gens = _generators(grid, status)
        expected = brute_force_generators(grid, status)
        assert gens.dtype == expected.dtype and gens.shape == expected.shape
        assert gens.tobytes() == expected.tobytes()
        sets.append(gens)
    if all(gens.size for gens in sets):
        a, b = (sv.ApproxSet(epsilon=0.1, generators=gens,
                             box=sv.CapitalBox(lo=gens.min(axis=0), hi=gens.max(axis=0)),
                             ideal=gens.min(axis=0)) for gens in sets)
        assert sv.hausdorff_distance(a, b) == _tensor_hausdorff(a.generators, b.generators)


def _same_bits_alone_and_in_any_order(net, xs, seed):
    totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
    perm = np.random.default_rng(seed).permutation(xs.shape[0])
    shuffled, shuffled_grads = sv.aggregate_en_many(net, xs[perm], supergradients=True)
    assert np.array_equal(shuffled, totals[perm])
    assert np.array_equal(shuffled_grads, grads[perm])
    for k, x in enumerate(xs):
        alone, alone_grads = sv.aggregate_en_many(net, x[None, :], supergradients=True)
        assert np.array_equal(alone, totals[k:k + 1])
        assert np.array_equal(alone_grads[0], grads[k])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=seeds)
def test_row_results_do_not_depend_on_the_batch(seed):
    # a row's total and supergradient are the same bits alone, in the full
    # batch and under a row permutation: on leaky cycles, where rows settle
    # in different rounds, and at 70 banks, where patterns take two key words
    net, xs = _leaky_cycle_instance(seed, 8, 60)
    seeded = _picard_seed(net, xs)
    final = np.array([sv.clearing_lp(net, x).defaults for x in xs])
    assert np.any(seeded != final)
    _same_bits_alone_and_in_any_order(net, xs, seed)

    net, xs, _ = _instance(seed, 70, 40)
    xs[::2, :64] += net.pbar[:64]
    _same_bits_alone_and_in_any_order(net, xs, seed)


def _pipeline_bytes(workdir: str, net_seed: int, nodes: int, n: int, seed: int) -> dict:
    """Run gen-network, sample-shocks, saa --algo 1 and scalarize --weights 1,1
    in-process; return exit codes and artifact bytes, manifests without their
    wall time."""
    p = {name: os.path.join(workdir, name)
         for name in ("net.json", "scen.csv", "set.json", "ws.json")}
    risk = ["--network", p["net.json"], "--scenarios", p["scen.csv"],
            "--alpha-frac", "0.8", "--lambda", "0.25"]
    codes = [
        main(["gen-network", "--nodes", str(nodes), "--core-size", "2", "--theta", "0.2",
              "--eta", "0.6", "--zeta", "0.2", "--delta-in", "0.5", "--delta-out", "0.5",
              "--m", "4,2,3,1.5", "--seed", str(net_seed), "--out", p["net.json"]]),
        main(["sample-shocks", "--network", p["net.json"], "--nu", "3", "--beta", "1.0,0.5",
              "--rho", "0.3", "--n", str(n), "--seed", str(seed), "--out", p["scen.csv"]]),
        main(["saa", *risk, "--epsilon", "1.0", "--algo", "1", "--out", p["set.json"]]),
        main(["scalarize", *risk, "--weights", "1,1", "--out", p["ws.json"]]),
    ]
    out = {"codes": codes}
    for name in ("scen.csv", "set.json", "ws.json"):
        path = Path(p[name])
        out[name] = path.read_bytes() if path.exists() else None
        manifest = Path(p[name] + ".manifest.json")
        if manifest.exists():
            payload = json.loads(manifest.read_text())
            payload.pop("wall_time_s")
            out[name + ".manifest"] = payload
    return out


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(net_seed=st.integers(0, 1000), nodes=st.integers(6, 10), n=st.integers(1, 20),
       seed=st.integers(0, 2**70))
def test_pipeline_artifacts_identical_across_reruns(net_seed, nodes, n, seed):
    with tempfile.TemporaryDirectory() as workdir:
        first = _pipeline_bytes(workdir, net_seed, nodes, n, seed)
        for name in os.listdir(workdir):
            os.unlink(os.path.join(workdir, name))
        second = _pipeline_bytes(workdir, net_seed, nodes, n, seed)
    assert first["codes"][:2] == [0, 0]
    assert first == second
