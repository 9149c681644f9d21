"""Property tests of the batched clearing kernel on small random networks.

The references are the payment LP's dual (``_lp_supergradient``), the
aggregation function itself through the global supergradient inequality,
and the scalar fixed-point engine.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sysvar as sv
from sysvar.clearing import _group_by_pattern, _lp_supergradient
from conftest import random_network

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


@_SETTINGS
@given(seed=seeds, d=st.integers(1, 200), n=st.integers(1, 60))
def test_pattern_groups_partition_rows(seed, d, n):
    rng = np.random.default_rng(seed)
    base = rng.random((4, d)) < 0.5
    base[1::2, :64] = base[0, :64]   # patterns that differ only past bank 64
    masks = base[rng.integers(0, 4, size=n)]
    groups = _group_by_pattern(masks)
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(n))
    for members in groups:
        assert np.all(np.diff(members) > 0)
        assert (masks[members] == masks[members[0]]).all()
    firsts = np.array([masks[members[0]] for members in groups])
    assert len(np.unique(firsts, axis=0)) == len(groups)
