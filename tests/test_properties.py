"""Property tests on small random networks.

For the batched clearing kernel the references are the payment LP's dual
(``_lp_supergradient``), the aggregation function itself through the global
supergradient inequality, and the scalar fixed-point engine.  For the
membership oracle they are the two properties the grid search relies on:
monotonicity and translativity in the capital vector.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sysvar as sv
from sysvar.clearing import _lp_supergradient, _sort_by_pattern
from sysvar.util import DEFAULT_TOL, max_violations, violates
from conftest import exp_scenarios, random_network, two_group_split

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)


def _instance(seed: int, d: int, n: int):
    rng = np.random.default_rng(seed)
    net = random_network(rng, d)
    return net, rng.exponential(0.5, size=(n, d)), rng


def _nondegenerate(net, x, margin=1e-6) -> bool:
    """Every bank is strictly solvent or strictly inside its payment range."""
    p = sv.clearing_fixed_point(net, x).p
    inflow = net.pi.T @ p + x
    defaulted = p < net.pbar - margin
    return bool(np.all(np.where(defaulted, p > margin, inflow > net.pbar + margin)))


@_SETTINGS
@given(seed=seeds, d=st.integers(2, 7))
def test_closed_form_matches_lp_dual(seed, d):
    net, xs, _ = _instance(seed, d, 1)
    x = xs[0]
    assume(_nondegenerate(net, x))
    _, grads = sv.aggregate_en_many(net, xs, supergradients=True)
    assert np.abs(grads[0] - _lp_supergradient(net, x)).max() <= 1e-9


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
        defaults = sv.clearing_fixed_point(net, x).defaults
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
    net.validate()
    xs = rng.exponential(0.05, size=(n, d)) * pbar * (rng.random((n, d)) < 0.6)
    xs[0] = 0.0
    return net, xs


@_SETTINGS
@given(seed=seeds, d=st.integers(3, 9), n=st.integers(1, 30))
def test_rounds_match_scalar_engine_on_leaky_cycles(seed, d, n):
    net, xs = _leaky_cycle_instance(seed, d, n)
    totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
    seeded = xs + net.pbar @ net.pi < net.pbar - DEFAULT_TOL
    needs_rounds = 0
    for k, x in enumerate(xs):
        defaults = sv.clearing_fixed_point(net, x).defaults
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
    seeded = xs + net.pbar @ net.pi < net.pbar - DEFAULT_TOL
    final = np.array([sv.clearing_fixed_point(net, x).defaults for x in xs])
    assert np.any(seeded != final)
    _same_bits_alone_and_in_any_order(net, xs, seed)

    net, xs, _ = _instance(seed, 70, 40)
    xs[::2, :64] += net.pbar[:64]
    _same_bits_alone_and_in_any_order(net, xs, seed)
