import numpy as np
import pytest

import sysvar as sv
import sysvar.risk
import sysvar.scalarize
from sysvar.risk import _ScenarioLabels
from sysvar.util import ValidationError, max_violations
from conftest import (
    exp_scenarios,
    random_network,
    ring2,
    ring_grid_distance,
    subset_oracle_weighted,
    two_group_split,
)


def instance(rng, d=4, n_scen=6, lam=0.3, alpha_frac=0.85, scale=0.3):
    net = random_network(rng, d, pbar_range=(0.5, 2.0))
    grouping = two_group_split(rng, d)
    scen = exp_scenarios(rng, n_scen, d, scale)
    spec = sv.RiskSpec(alpha=alpha_frac * net.total_obligations, lam=lam)
    return net, grouping, scen, spec


def bisection_instance():
    # both unit-weight values lie strictly inside the box
    return instance(np.random.default_rng(0), d=6, n_scen=30, lam=0.1,
                    alpha_frac=0.97, scale=0.2)


def plain_bisection(net, grouping, scen, spec, j, box):
    """Bisection along axis j with record-free membership calls only."""
    def accepted(t):
        z = np.array(box.hi, dtype=float)
        z[j] = t
        return sv.membership(net, grouping, scen, spec, z).accepted

    if accepted(box.lo[j]):
        return float(box.lo[j])
    left, right = float(box.lo[j]), float(box.hi[j])
    while right - left > 1e-6:
        mid = 0.5 * (left + right)
        if accepted(mid):
            right = mid
        else:
            left = mid
    return right


def count_record_free_calls(monkeypatch):
    """Count bisection_unit's membership calls made without a record."""
    calls = []
    real = sysvar.scalarize.membership

    def spy(*args, labels=None):
        calls.append(labels is None)
        return real(*args, labels=labels)

    monkeypatch.setattr(sysvar.scalarize, "membership", spy)
    return calls


class TestBounds:
    def test_lower_corner_nonpositive_for_nonnegative_scenarios(self, rng):
        net, grouping, scen, _ = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        assert np.all(box.lo <= 0)

    def test_singleton_groups_take_own_obligations(self):
        net = ring2([200.0, 300.0])
        grouping = sv.Grouping(g=2, assignment=np.array([0, 1]))
        scen = sv.ScenarioSet(values=np.array([[5.0, 7.0]]))
        box = sv.z_bounds(net, grouping, scen)
        assert np.allclose(box.hi, [200.0, 300.0])

    def test_single_group_lower_corner(self):
        net = ring2([1.0, 1.0])
        grouping = sv.Grouping(g=1, assignment=np.array([0, 0]))
        scen = sv.ScenarioSet(values=np.array([[5.0, 7.0]]))
        box = sv.z_bounds(net, grouping, scen)
        assert box.lo[0] == pytest.approx(-5.0)
        assert box.hi[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("lo, hi", [
        (np.zeros(3), np.ones(3)),
        (np.ones(2), np.zeros(2)),
        (np.array([-np.inf, 0.0]), np.ones(2)),
        (np.zeros(2), np.array([1.0, np.nan])),
    ], ids=["wrong-length", "empty", "infinite", "nan"])
    @pytest.mark.parametrize("solve", [
        lambda *a, box: sv.weighted_sum(*a, np.ones(2), box=box),
        lambda *a, box: sv.norm_min(*a, np.zeros(2), box=box),
        lambda *a, box: sv.bisection_unit(*a, 0, box=box),
        lambda *a, box: sv.ideal_point(*a, box=box),
        lambda *a, box: sv.approximate_by_clearing(*a, 0.3, box=box),
        lambda *a, box: sv.approximate_by_norm_min(*a, 0.3, box=box),
    ], ids=["weighted_sum", "norm_min", "bisection_unit", "ideal_point",
            "algorithm_1", "algorithm_2"])
    def test_every_entry_point_rejects_a_bad_box(self, rng, lo, hi, solve):
        net, grouping, scen, spec = instance(rng)
        with pytest.raises(ValidationError):
            solve(net, grouping, scen, spec, box=sv.CapitalBox(lo=lo, hi=hi))


class TestWeightedSum:
    def test_infeasible_exactly_above_total_obligations(self, rng):
        net, grouping, scen, _ = instance(rng)
        total = net.total_obligations
        w = np.array([1.0, 1.0])
        at = sv.weighted_sum(net, grouping, scen,
                             sv.RiskSpec(alpha=total, lam=0.3), w)
        above = sv.weighted_sum(net, grouping, scen,
                                sv.RiskSpec(alpha=total + 1e-3, lam=0.3), w)
        below = sv.weighted_sum(net, grouping, scen,
                                sv.RiskSpec(alpha=total - 1e-3, lam=0.3), w)
        assert at.status == "optimal"
        assert below.status == "optimal"
        assert above.status == "infeasible"

    def test_vacuous_level_hits_box_corner(self, rng):
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=0.9 * net.total_obligations, lam=1.0 - 1e-12)
        box = sv.z_bounds(net, grouping, scen)
        res = sv.weighted_sum(net, grouping, scen, spec, np.array([2.0, 1.0]))
        assert res.value == pytest.approx(float(np.array([2.0, 1.0]) @ box.lo))

    def test_matches_subset_enumeration(self, rng):
        for _ in range(6):
            net, grouping, scen, spec = instance(rng, n_scen=int(rng.integers(4, 8)))
            w = rng.uniform(0.1, 1.0, size=2)
            res = sv.weighted_sum(net, grouping, scen, spec, w)
            box = sv.z_bounds(net, grouping, scen)
            oracle = subset_oracle_weighted(net, grouping, scen, spec, w, box)
            assert res.value == pytest.approx(oracle, abs=1e-6)

    def test_weight_scaling_invariance(self, rng):
        net, grouping, scen, spec = instance(rng)
        w = np.array([0.7, 1.3])
        res = sv.weighted_sum(net, grouping, scen, spec, w)
        res2 = sv.weighted_sum(net, grouping, scen, spec, 2.0 * w)
        assert res2.value == pytest.approx(2.0 * res.value, abs=1e-6)
        # the original optimizer stays optimal-valued under the scaled weights
        assert float(2.0 * w @ res.z) == pytest.approx(res2.value, abs=1e-6)

    def test_nonconverged_leaf_raises(self, rng, monkeypatch):
        # one cut round cannot settle a leaf whose forced scenarios fail at
        # the box bottom, so the first incumbent's leaf solve gives up
        monkeypatch.setattr(sv.mip, "_NODE_MAX_ROUNDS", 1)
        net, grouping, scen, spec = instance(rng, alpha_frac=0.999)
        box = sv.z_bounds(net, grouping, scen)
        bottom = sv.aggregate_en_many(
            net, np.maximum(scen.values + grouping.spread(box.lo), 0.0))
        # more failures than the level allows, so every leaf forces one
        assert (bottom < spec.alpha).sum() > max_violations(scen.n, spec.lam)
        model = sv.ScenarioMip(
            net=net, grouping=grouping, scenarios=scen, alpha=spec.alpha,
            lam=spec.lam, z_lower=box.lo, z_upper=box.hi, weights=np.ones(2))
        with pytest.raises(sv.SolverError, match="failed to converge"):
            sv.branch_and_bound(model)

    def test_rejects_bad_weights(self, rng):
        net, grouping, scen, spec = instance(rng)
        with pytest.raises(ValidationError):
            sv.weighted_sum(net, grouping, scen, spec, np.zeros(2))
        with pytest.raises(ValidationError):
            sv.weighted_sum(net, grouping, scen, spec, np.array([1.0, -0.2]))


class TestNormMin:
    def test_membership_short_circuit(self, rng):
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        res = sv.norm_min(net, grouping, scen, spec, box.hi)
        assert res.value == 0.0
        assert np.array_equal(res.z, box.hi)

    def test_point_below_box_is_dominated(self, rng):
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        v = box.lo - 1.0
        res = sv.norm_min(net, grouping, scen, spec, v)
        assert res.value > 0
        assert np.all(res.z >= v - 1e-9)

    def test_matches_grid_scan_on_ring(self, rng):
        for _ in range(4):
            net = ring2(rng.uniform(0.4, 1.2, 2))
            grouping = sv.Grouping(g=2, assignment=np.array([0, 1]))
            scen = exp_scenarios(rng, 4, 2, 0.15)
            spec = sv.RiskSpec(alpha=0.85 * net.total_obligations, lam=0.3)
            box = sv.z_bounds(net, grouping, scen)
            v = box.lo + rng.uniform(0, 0.25, 2) - 0.05
            res = sv.norm_min(net, grouping, scen, spec, v)
            oracle = ring_grid_distance(net, grouping, scen, spec, v, box)
            assert res.value == pytest.approx(oracle, abs=2e-3)

    def test_distance_is_lipschitz(self, rng):
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        for _ in range(10):
            v1 = rng.uniform(box.lo - 0.3, box.hi)
            v2 = v1 + rng.normal(scale=0.1, size=2)
            d1 = sv.norm_min(net, grouping, scen, spec, v1).value
            d2 = sv.norm_min(net, grouping, scen, spec, np.minimum(v2, box.hi)).value
            v2c = np.minimum(v2, box.hi)
            assert abs(d1 - d2) <= np.linalg.norm(v1 - v2c) + 2e-6

    def test_infeasible_spec(self, rng):
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=net.total_obligations + 1.0, lam=0.3)
        assert sv.norm_min(net, grouping, scen, spec, np.zeros(2)).status == "infeasible"


class TestIdealPoint:
    def test_single_group_scalar_minimum(self, rng):
        net = random_network(rng, 3)
        grouping = sv.Grouping(g=1, assignment=np.zeros(3, dtype=int))
        scen = exp_scenarios(rng, 5, 3, 0.3)
        spec = sv.RiskSpec(alpha=0.85 * net.total_obligations, lam=0.3)
        ideal = sv.ideal_point(net, grouping, scen, spec)
        res = sv.weighted_sum(net, grouping, scen, spec, np.array([1.0]))
        assert ideal[0] == pytest.approx(res.value, abs=1e-9)

    def test_bisection_cross_check(self, rng):
        for _ in range(4):
            net, grouping, scen, spec = instance(rng, d=6, n_scen=10)
            ideal = sv.ideal_point(net, grouping, scen, spec, method="milp")
            for j in range(grouping.g):
                b = sv.bisection_unit(net, grouping, scen, spec, j)
                assert abs(ideal[j] - b) <= 1e-5

    def test_minimality_probe(self, rng):
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        ideal = sv.ideal_point(net, grouping, scen, spec)
        for j in range(grouping.g):
            z = box.hi.copy()
            z[j] = ideal[j] - 1e-4
            assert not sv.membership(net, grouping, scen, spec, z).accepted

    def test_componentwise_floor_of_solutions(self, rng):
        net, grouping, scen, spec = instance(rng)
        ideal = sv.ideal_point(net, grouping, scen, spec)
        for w in (np.array([1.0, 1.0]), np.array([0.3, 1.7]), np.array([1.0, 0.1])):
            res = sv.weighted_sum(net, grouping, scen, spec, w)
            assert np.all(res.z >= ideal - 1e-7)


class TestBisection:
    def test_returns_floor_when_always_acceptable(self, rng):
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=0.9 * net.total_obligations, lam=1.0 - 1e-12)
        box = sv.z_bounds(net, grouping, scen)
        assert sv.bisection_unit(net, grouping, scen, spec, 0) == pytest.approx(box.lo[0])

    def test_terminates_at_exact_total_threshold(self, rng):
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=net.total_obligations, lam=0.3)
        box = sv.z_bounds(net, grouping, scen)
        value = sv.bisection_unit(net, grouping, scen, spec, 0)
        assert box.lo[0] - 1e-9 <= value <= box.hi[0] + 1e-9
        top = box.hi.copy()
        top[0] = value
        assert sv.membership(net, grouping, scen, spec, top).accepted

    def test_matches_weighted_sum_on_random_instances(self, rng):
        for _ in range(6):
            net, grouping, scen, spec = instance(
                rng, d=6, n_scen=int(rng.integers(6, 12)),
                lam=float(rng.uniform(0.2, 0.5)))
            j = int(rng.integers(0, 2))
            w = np.zeros(2)
            w[j] = 1.0
            milp = sv.weighted_sum(net, grouping, scen, spec, w)
            bis = sv.bisection_unit(net, grouping, scen, spec, j)
            assert abs(milp.value - bis) <= 1e-5

    def test_record_backed_bracket_is_confirmed_by_two_calls(self, monkeypatch):
        net, grouping, scen, spec = bisection_instance()
        box = sv.z_bounds(net, grouping, scen)
        plain = [plain_bisection(net, grouping, scen, spec, j, box) for j in range(2)]
        assert all(lo < v for lo, v in zip(box.lo, plain))
        calls = count_record_free_calls(monkeypatch)
        labels = _ScenarioLabels(scen.n, grouping.g)
        for j in range(2):
            calls.clear()
            assert sv.bisection_unit(net, grouping, scen, spec, j, box=box,
                                     labels=labels) == plain[j]
            # right accepted and left rejected without the record; no rerun
            assert sum(calls) == 2
        assert 0 < labels.rows_decided

    @pytest.mark.parametrize("where", ["top", "bottom", "below_top"])
    def test_wrong_record_falls_back_to_plain_bisection(self, monkeypatch, where):
        # a record that labels every scenario wrongly at one point: failing
        # at the top (the top is rejected), passing at the bottom (the floor
        # is accepted), or failing just below the top (the left end of the
        # bracket is acceptable)
        net, grouping, scen, spec = bisection_instance()
        box = sv.z_bounds(net, grouping, scen)
        plain = plain_bisection(net, grouping, scen, spec, 0, box)
        z = {"top": box.hi, "bottom": box.lo,
             "below_top": box.hi - np.array([1e-3, 0.0])}[where]
        assert box.lo[0] < plain < box.hi[0] - 1e-3
        labels = _ScenarioLabels(scen.n, grouping.g)
        labels.add(np.array(z, dtype=float), np.full(scen.n, where == "bottom"))
        calls = count_record_free_calls(monkeypatch)
        assert sv.bisection_unit(net, grouping, scen, spec, 0, box=box,
                                 labels=labels) == plain
        # the rerun makes every call of a plain bisection without the record
        assert sum(calls) > 20

    def test_non_monotone_scenarios_fall_back_to_plain_bisection(self, monkeypatch):
        # two scenarios on the 2-ring, told apart by bank 1's cash; along
        # t = z_0, scenario A passes iff t >= 0.15 and scenario B iff
        # t < 0.1 or t >= 0.5.  Record-free membership (both must pass) is
        # monotone with threshold 0.5, but B's pass at t = 0 makes the
        # record pass B everywhere, so the record-backed search would stop
        # near 0.15
        net = ring2([1.0, 1.0])
        grouping = sv.Grouping(g=2, assignment=np.array([0, 1]))
        scen = sv.ScenarioSet(values=np.array([[0.0, 0.0], [0.0, 1.0]]))
        spec = sv.RiskSpec(alpha=1.0, lam=0.1)
        box = sv.CapitalBox(lo=np.zeros(2), hi=np.ones(2))

        def aggregates(net, xs):
            t, is_b = xs[:, 0], xs[:, 1] > 1.5
            passes = np.where(is_b, (t < 0.1) | (t >= 0.5), t >= 0.15)
            return np.where(passes, 2.0, 0.0)

        monkeypatch.setattr(sysvar.risk, "aggregate_en_many", aggregates)
        assert plain_bisection(net, grouping, scen, spec, 0, box) == 0.5
        calls = count_record_free_calls(monkeypatch)
        assert sv.bisection_unit(net, grouping, scen, spec, 0, box=box) == 0.5
        assert sum(calls) > 20
