import hashlib
from collections import Counter

import numpy as np
import pytest

import sysvar as sv
import sysvar.clearing
import sysvar.risk
import sysvar.scalarize
from sysvar.mip import rounding_pattern
from sysvar.util import VIOL_TOL, ValidationError, max_violations, required_hits
from conftest import (
    exp_scenarios,
    plain_bisection,
    random_network,
    readme_instance,
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


def count_oracle_calls(monkeypatch):
    """Record bisection_unit's membership calls."""
    calls = []
    real = sysvar.scalarize.membership

    def spy(net, grouping, scenarios, spec, z, *rest):
        calls.append(z)
        return real(net, grouping, scenarios, spec, z, *rest)

    monkeypatch.setattr(sysvar.scalarize, "membership", spy)
    return calls


def undecided(net, xs, alpha):
    """Picard bounds that decide no row, so every row reaches the kernel."""
    return np.zeros(len(xs), dtype=bool), np.zeros(len(xs), dtype=bool)


def force_cut(monkeypatch, value):
    """Make the acceptance cut predict ``value``, with no verdict at the
    floor, as a record of ray thresholds all equal to ``value`` would."""
    monkeypatch.setattr(sysvar.scalarize, "_acceptance_cut", lambda *args: (value, False))


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
        # a wrong-length box is well formed, so each entry point checks its
        # length against g; the other boxes are refused when built (see
        # TestConstruction), before any entry point sees them
        net, grouping, scen, spec = instance(rng)
        with pytest.raises(ValidationError):
            solve(net, grouping, scen, spec, box=sv.CapitalBox(lo=lo, hi=hi))


class TestConstruction:
    @pytest.mark.parametrize("lo, hi", [
        (np.array([-np.inf, 0.0]), np.ones(2)),
        (np.zeros(2), np.array([1.0, np.nan])),
        (np.ones(2), np.zeros(2)),
        (np.zeros(2), np.ones(3)),
        (np.zeros((1, 2)), np.ones((1, 2))),
    ], ids=["infinite", "nan", "inverted", "ragged", "matrix"])
    def test_capital_box_rejects_bad_bounds_when_built(self, lo, hi):
        with pytest.raises(ValidationError):
            sv.CapitalBox(lo=lo, hi=hi)

    def test_capital_box_keeps_read_only_copies(self):
        lo, hi = np.zeros(2), np.array([1.0, 2.0])
        box = sv.CapitalBox(lo=lo, hi=hi)
        for arr in (box.lo, box.hi, box.rows, box.rhs):
            with pytest.raises(ValueError):
                arr[0] = 5.0
        # the caller's arrays stay writable and apart from the box's
        lo[0] = hi[0] = -1.0
        assert box.lo.tolist() == [0.0, 0.0] and box.hi.tolist() == [1.0, 2.0]
        # the projector's rows per axis: z_j <= hi_j, then -z_j <= -lo_j
        assert box.rows.tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        assert box.rhs.tolist() == [1.0, 0.0, 2.0, 0.0]
        # lo may exceed hi by rounding
        assert sv.CapitalBox(lo=[1.0 + 1e-13], hi=[1.0]).lo[0] > 1.0

    @pytest.mark.parametrize("alpha, lam", [
        (0.0, 0.2), (-1.0, 0.2), (np.nan, 0.2), (np.inf, 0.2), (1.0, 0.0), (1.0, 1.0),
        (1.0, 1.5), (1.0, np.nan),
    ], ids=["alpha-zero", "alpha-negative", "alpha-nan", "alpha-inf", "lambda-zero",
            "lambda-one", "lambda-above-one", "lambda-nan"])
    def test_risk_spec_rejects_bad_parameters_when_built(self, alpha, lam):
        with pytest.raises(ValidationError):
            sv.RiskSpec(alpha=alpha, lam=lam)

    _RING = [[0.0, 1.0], [1.0, 0.0]]
    _SHOCK = dict(nu=3.0, beta_by_group=[1.0, 0.5], rho=0.3, n=5, seed=1)
    _GROWTH = dict(theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5, delta_out=0.5,
                   target_nodes=5, seed=1)

    @staticmethod
    def _model(**objective):
        return sv.ScenarioMip(
            net=ring2([2.0, 2.0]), grouping=sv.Grouping(g=2, assignment=[0, 1]),
            scenarios=sv.ScenarioSet(values=np.ones((3, 2))),
            spec=sv.RiskSpec(alpha=3.0, lam=0.2), box=sv.CapitalBox(lo=[0, 0], hi=[2, 2]),
            **objective)

    @pytest.mark.parametrize("build", [
        lambda: sv.FinancialNetwork(d=2, pi=TestConstruction._RING, pbar=[1.0, np.nan]),
        lambda: sv.FinancialNetwork(d=2, pi=[[0.0, np.inf], [1.0, 0.0]], pbar=[1.0, 1.0]),
        lambda: sv.FinancialNetwork(d=2, pi=[[0.5, 0.5], [1.0, 0.0]], pbar=[1.0, 1.0]),
        lambda: sv.FinancialNetwork(d=2, pi=[[0.0, 0.9], [1.0, 0.0]], pbar=[1.0, 1.0]),
        lambda: sv.FinancialNetwork(d=2.5, pi=TestConstruction._RING, pbar=[1.0, 1.0]),
        lambda: sv.Grouping(g=2, assignment=[0, 2]),
        lambda: sv.Grouping(g=3, assignment=[0, 1]),
        lambda: sv.Grouping(g=2, assignment=[0.7, 1]),
        lambda: sv.Grouping(g=2.5, assignment=[0, 1]),
        lambda: sv.ScenarioSet(values=[[1.0, np.nan]]),
        lambda: sv.ScenarioSet(values=[[1.0, np.inf]]),
        lambda: sv.ScenarioSet(values=[1.0, 2.0]),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "nu": np.nan}),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "beta_by_group": [1.0, np.nan]}),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "rho": np.nan}),
        lambda: sv.BollobasParams(**{**TestConstruction._GROWTH, "theta": np.nan}),
        lambda: sv.BollobasParams(**{**TestConstruction._GROWTH, "delta_in": np.nan}),
        lambda: sv.BollobasParams(**{**TestConstruction._GROWTH, "delta_out": np.inf}),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "n": 2.5}),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "n": 0}),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "seed": -1}),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "seed": 2**128}),
        lambda: sv.ShockParams(**{**TestConstruction._SHOCK, "seed": 1.0}),
        lambda: sv.BollobasParams(**{**TestConstruction._GROWTH, "target_nodes": 2.5}),
        lambda: sv.BollobasParams(**{**TestConstruction._GROWTH, "target_nodes": 0}),
        lambda: sv.BollobasParams(**{**TestConstruction._GROWTH, "seed": -3}),
        lambda: sv.BollobasParams(**{**TestConstruction._GROWTH, "seed": 7.5}),
        lambda: sv.IntergroupLiabilityMatrix(values=[[4.0, np.nan], [3.0, 1.5]]),
        lambda: sv.IntergroupLiabilityMatrix(values=[[4.0, -2.0], [3.0, 1.5]]),
        lambda: TestConstruction._model(center=[np.nan, 0.0]),
        lambda: TestConstruction._model(center=[0.0, 0.0, 0.0]),
        lambda: TestConstruction._model(weights=[1.0, 1.0, 1.0]),
        lambda: TestConstruction._model(weights=[np.nan, 1.0]),
        lambda: TestConstruction._model(weights=[0.0, 0.0]),
        lambda: TestConstruction._model(weights=[1.0, 1.0], center=[0.0, 0.0]),
    ], ids=["network-nan-pbar", "network-inf-pi", "network-diagonal", "network-row-sum",
            "network-fraction-d", "grouping-range", "grouping-empty-group", "grouping-fraction",
            "grouping-fraction-g", "scenarios-nan",
            "scenarios-inf", "scenarios-vector", "shocks-nan-nu", "shocks-nan-beta", "shocks-nan-rho",
            "growth-nan-theta", "growth-nan-delta", "growth-inf-delta",
            "shocks-fraction-n", "shocks-zero-n", "shocks-negative-seed",
            "shocks-seed-past-key-range", "shocks-float-seed", "growth-fraction-nodes",
            "growth-zero-nodes", "growth-negative-seed", "growth-float-seed", "intergroup-nan",
            "intergroup-negative", "model-nan-center", "model-long-center",
            "model-long-weights", "model-nan-weights", "model-zero-weights",
            "model-two-objectives"])
    def test_every_value_type_rejects_a_bad_field_when_built(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_grouping_and_scenarios_keep_read_only_arrays(self):
        # the table's bases are valid, so each case above fails on its field
        sv.ShockParams(**self._SHOCK), sv.BollobasParams(**self._GROWTH)
        assert not self._model(weights=[1.0, 2.0]).weights.flags.writeable
        assignment, values = np.array([0, 1, 1]), -np.ones((2, 3))
        grouping = sv.Grouping(g=2, assignment=assignment)
        scen = sv.ScenarioSet(values=values)
        for arr in (grouping.assignment, scen.values):
            with pytest.raises(ValueError):
                arr[0] = 1
        # the assignment is a copy; the scenarios are a view of the caller's
        # writable array, and a negative cash flow is refused only on demand
        assignment[0] = 1
        assert grouping.assignment.tolist() == [0, 1, 1]
        # whole counts given as floats are kept as ints
        assert type(sv.Grouping(g=2.0, assignment=[0.0, 1.0]).g) is int
        assert type(sv.FinancialNetwork(d=2.0, pi=self._RING, pbar=[1.0, 1.0]).d) is int
        assert type(sv.ShockParams(**{**self._SHOCK, "n": 5.0}).n) is int
        assert type(sv.BollobasParams(**{**self._GROWTH, "target_nodes": 5.0}).target_nodes) is int
        # seeds are not counts: those past 2**53 build, up to Philox's key range
        sv.ShockParams(**{**self._SHOCK, "seed": 2**128 - 1})
        sv.BollobasParams(**{**self._GROWTH, "seed": 2**70})
        assert np.shares_memory(scen.values, values) and values.flags.writeable
        with pytest.raises(ValidationError):
            scen.check_nonnegative()
        with pytest.raises(ValidationError, match="nonnegative"):
            sv.z_bounds(random_network(np.random.default_rng(1), 3), grouping, scen)
        with pytest.raises(ValidationError, match="bank count"):
            grouping.check_banks(2)

    @pytest.mark.parametrize("objective", [{"center": np.array([0.0, 20.0])},
                                           {"weights": np.ones(2)}],
                             ids=["center", "weights"])
    def test_model_rejects_a_box_of_the_wrong_length(self, objective):
        # the README network has g = 2; a 1-entry box would broadcast, and
        # with the vacuous level the center would be clipped into it
        net, grouping, scen, _ = readme_instance()
        spec = sv.RiskSpec(alpha=0.8 * net.total_obligations, lam=1.0 - 1e-12)
        with pytest.raises(ValidationError, match="one entry per group"):
            sv.ScenarioMip(net=net, grouping=grouping, scenarios=scen, spec=spec,
                           box=sv.CapitalBox(lo=[5.0], hi=[9.0]), **objective)


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
        model = sv.ScenarioMip(net=net, grouping=grouping, scenarios=scen, spec=spec,
                               box=box, weights=np.ones(2))
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


def cross_check_unit_values(net, grouping, scen, spec):
    """Each axis's bisection against the exact unit-weight value, at the
    bisection tolerance; the ideal point, the least accepted t, never falls
    more than the branch-and-bound gap (1e-6) below the exact value."""
    ideal = sv.ideal_point(net, grouping, scen, spec)
    for j in range(grouping.g):
        exact = sv.weighted_sum(net, grouping, scen, spec, np.eye(grouping.g)[j]).value
        assert abs(sv.bisection_unit(net, grouping, scen, spec, j) - exact) <= 1e-5
        assert ideal[j] >= exact - 1e-6


class TestIdealPoint:
    def test_single_group_scalar_minimum(self, rng):
        net = random_network(rng, 3)
        grouping = sv.Grouping(g=1, assignment=np.zeros(3, dtype=int))
        scen = exp_scenarios(rng, 5, 3, 0.3)
        spec = sv.RiskSpec(alpha=0.85 * net.total_obligations, lam=0.3)
        cross_check_unit_values(net, grouping, scen, spec)

    def test_bisection_cross_check(self, rng):
        for _ in range(4):
            cross_check_unit_values(*instance(rng, d=6, n_scen=10))

    def test_grid_floor_is_the_ideal_point(self):
        # the README instance: the set algorithm 1 builds is floored at the
        # ideal point less its margin, and each component is that axis's
        # bisection, bit for bit
        net, grouping, scen, spec = readme_instance(n=50)
        ideal = sv.ideal_point(net, grouping, scen, spec)
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, 25.0)
        assert np.array_equal(approx.ideal, ideal - 1e-5)
        for j in range(grouping.g):
            assert ideal[j] == sv.bisection_unit(net, grouping, scen, spec, j)

    @pytest.mark.parametrize("excess", [1e-3, 2e-9], ids=["some-fail", "past-the-tolerance"])
    def test_empty_set_is_refused(self, rng, excess):
        # alpha more than VIOL_TOL above the total obligations empties the
        # set, as weighted_sum and the grid searches see it, unless the
        # count lets every scenario fail
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=net.total_obligations + excess, lam=0.3)
        assert sv.weighted_sum(net, grouping, scen, spec, np.ones(2)).status == "infeasible"
        with pytest.raises(ValidationError, match="alpha exceeds total obligations"):
            sv.ideal_point(net, grouping, scen, spec)

    def test_one_rule_for_the_empty_set(self):
        # the oracle's verdict at the box top, where every bank pays in
        # full, is every route's: alpha within VIOL_TOL above the total
        # obligations, or a level that lets every scenario fail, leaves the
        # set nonempty for the oracle, both scalarizations, the ideal point
        # and the grid search alike
        net, grouping, scen, _ = readme_instance()
        total = net.total_obligations
        box = sv.z_bounds(net, grouping, scen)
        verdicts = []
        for alpha, lam in ((total + 5e-10, 0.2), (total + 0.999e-9, 0.2),
                           (1.01 * total, 1.0 - 1e-11),
                           (total + 2e-9, 0.2), (1.01 * total, 0.2)):
            spec = sv.RiskSpec(alpha=alpha, lam=lam)
            accepted = sv.membership(net, grouping, scen, spec, box.hi).accepted
            assert sysvar.risk.out_of_reach(net, scen.n, spec) is not accepted
            ws = sv.weighted_sum(net, grouping, scen, spec, np.ones(2))
            nm = sv.norm_min(net, grouping, scen, spec, np.zeros(2))
            approx = sv.approximate_by_clearing(net, grouping, scen, spec, 25.0)
            assert (ws.status == "optimal") is (nm.status == "optimal") is accepted
            assert approx.feasible is accepted
            assert (len(approx.generators) > 0) is accepted
            if accepted:
                ideal = sv.ideal_point(net, grouping, scen, spec)
                assert sv.membership(net, grouping, scen, spec, ws.z).accepted
                assert np.all(ws.z >= ideal - 1e-6)
            else:
                with pytest.raises(ValidationError, match="risk set is empty"):
                    sv.ideal_point(net, grouping, scen, spec)
            verdicts.append(accepted)
        assert verdicts == [True, True, True, False, False]

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_cuts_keep_the_box_top_within_the_tolerance_band(self, seed):
        # alpha just under T + VIOL_TOL: membership accepts the box top, and
        # branch-and-bound's cuts, taken at T there, keep it feasible (cuts at
        # alpha itself cut it off, and solve_lp found no corner)
        net, grouping, scen, _ = instance(np.random.default_rng(seed))
        spec = sv.RiskSpec(alpha=net.total_obligations + 0.999e-9, lam=0.2)
        ws = sv.weighted_sum(net, grouping, scen, spec, np.ones(2))
        nm = sv.norm_min(net, grouping, scen, spec, np.zeros(2))
        assert ws.status == nm.status == "optimal"
        assert sv.membership(net, grouping, scen, spec, ws.z).accepted

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

    def test_threshold_bracket_is_confirmed_by_two_calls(self, monkeypatch):
        net, grouping, scen, spec = bisection_instance()
        box = sv.z_bounds(net, grouping, scen)
        plain = [plain_bisection(net, grouping, scen, spec, j, box) for j in range(2)]
        assert all(lo < v for lo, v in zip(box.lo, plain))
        calls = count_oracle_calls(monkeypatch)
        for j in range(2):
            calls.clear()
            work = Counter()
            assert sysvar.scalarize._bisection_unit(net, grouping, scen, spec, j, box,
                                                    work) == plain[j]
            # right accepted and left rejected, with no rerun; the Newton
            # steps clear fewer rows than the plain bisection's 22 calls
            assert len(calls) == 2 and work["reruns"] == 0
            assert work["rows_cleared"] < 22 * scen.n

    def test_confirmations_count_kernel_rows_by_path(self, monkeypatch):
        # the README network at N = 1,000 (seed 41): the Picard bounds pass
        # every row of axis 0 at its floor, so the cut is the floor, and
        # membership there would repeat that computation on the same rows:
        # the floor call's verdict stands in for its confirmation call, no
        # row reaches the kernel, and the floor's rows count as bounded
        net, grouping, scen, spec = readme_instance(n=1000, seed=41)
        box = sv.z_bounds(net, grouping, scen)
        kernel = []
        for module in (sysvar.clearing, sysvar.risk):
            real = module.aggregate_en_many
            monkeypatch.setattr(module, "aggregate_en_many",
                                lambda net, xs, *rest, real=real, **kwargs:
                                kernel.append(len(xs)) or real(net, xs, *rest, **kwargs))
        calls = count_oracle_calls(monkeypatch)
        work = Counter()
        ideal = sysvar.scalarize._bisection_unit(net, grouping, scen, spec, 0, box, work)
        assert ideal == box.lo[0] and len(calls) == 0
        assert kernel == []
        assert work["rows_cleared"] == work["kernel_calls"] == 0
        assert work["rows_bounded"] == scen.n

    def test_a_row_open_at_the_floor_keeps_the_confirmation(self, monkeypatch):
        # with axis 1's top at 223.75, the bounds pass 999 of the 1,000
        # rows at axis 0's floor: the cut is still the floor, but the
        # floor's bounds did not accept it, so membership is asked
        net, grouping, scen, spec = readme_instance(n=1000, seed=41)
        full = sv.z_bounds(net, grouping, scen)
        box = sv.CapitalBox(lo=full.lo, hi=np.array([full.hi[0], 223.75]))
        cut = Counter()
        assert sysvar.scalarize._acceptance_cut(net, grouping, scen, spec, 0, box.lo[0],
                                                box.hi, cut) == (box.lo[0], False)
        assert cut == Counter(rows_bounded=scen.n - 1)
        calls = count_oracle_calls(monkeypatch)
        work = Counter()
        assert sysvar.scalarize._bisection_unit(net, grouping, scen, spec, 0, box,
                                                work) == box.lo[0]
        assert len(calls) == 1 and work["reruns"] == 0
        assert work["rows_bounded"] + work["rows_cleared"] == 2 * scen.n - 1

    @pytest.mark.parametrize("where", ["top", "bottom", "below_top"])
    def test_wrong_record_falls_back_to_plain_bisection(self, monkeypatch, where):
        # a wrong cut: past the top (the top is predicted rejected), at the
        # floor (the floor is predicted accepted), or just below the top
        # (the left end of the predicted bracket is acceptable)
        net, grouping, scen, spec = bisection_instance()
        box = sv.z_bounds(net, grouping, scen)
        plain = plain_bisection(net, grouping, scen, spec, 0, box)
        assert box.lo[0] < plain < box.hi[0] - 1e-3
        force_cut(monkeypatch, {"top": np.inf, "bottom": box.lo[0],
                                "below_top": box.hi[0] - 1e-3}[where])
        calls = count_oracle_calls(monkeypatch)
        work = Counter()
        assert sysvar.scalarize._bisection_unit(net, grouping, scen, spec, 0, box,
                                                work) == plain
        # the rerun makes every call of a plain bisection
        assert len(calls) > 20 and work["reruns"] == 1

    def test_rejected_top_raises(self, rng):
        # the top is rejected by the count (a box whose top is its floor)
        # and by the orthant (the other group's top below the sample)
        net, grouping, scen, spec = instance(rng, alpha_frac=0.99, lam=0.1)
        box = sv.z_bounds(net, grouping, scen)
        assert not sv.membership(net, grouping, scen, spec, box.lo).accepted
        below = box.lo - np.array([0.0, 1.0])
        for bad in (sv.CapitalBox(lo=box.lo, hi=box.lo),
                    sv.CapitalBox(lo=below, hi=np.array([box.hi[0], below[1]]))):
            with pytest.raises(ValidationError, match="empty even at the box top"):
                sv.bisection_unit(net, grouping, scen, spec, 0, box=bad)

    def test_non_monotone_scenarios_fall_back_to_plain_bisection(self, monkeypatch):
        # two scenarios on the 2-ring, told apart by bank 1's cash; along
        # t = z_0, scenario A passes iff t >= 0.15 and scenario B iff
        # t < 0.1 or t >= 0.5.  Membership (both must pass) is monotone with
        # threshold 0.5, but B's pass at t = 0 gives it the ray threshold 0,
        # and A's unit slope takes its Newton step from 0 to the top, so the
        # predicted bracket would end near the top
        net = ring2([1.0, 1.0])
        grouping = sv.Grouping(g=2, assignment=np.array([0, 1]))
        scen = sv.ScenarioSet(values=np.array([[0.0, 0.0], [0.0, 1.0]]))
        spec = sv.RiskSpec(alpha=1.0, lam=0.1)
        box = sv.CapitalBox(lo=np.zeros(2), hi=np.ones(2))

        def aggregates(net, xs, supergradients=False):
            t, is_b = xs[:, 0], xs[:, 1] > 1.5
            passes = np.where(is_b, (t < 0.1) | (t >= 0.5), t >= 0.15)
            values = np.where(passes, 2.0, 0.0)
            return (values, np.ones(xs.shape)) if supergradients else values

        # the Picard bounds would read the real ring, so every row goes to
        # the fake kernel instead
        monkeypatch.setattr(sysvar.risk, "_picard_bounds", undecided)
        monkeypatch.setattr(sysvar.risk, "aggregate_en_many", aggregates)
        monkeypatch.setattr(sysvar.clearing, "aggregate_en_many", aggregates)
        assert plain_bisection(net, grouping, scen, spec, 0, box) == 0.5
        calls = count_oracle_calls(monkeypatch)
        assert sv.bisection_unit(net, grouping, scen, spec, 0, box=box) == 0.5
        assert len(calls) > 20


class TestRayThresholds:
    @staticmethod
    def thresholds(net, grouping, scen, spec, j, box, work=None):
        return sysvar.scalarize._ray_thresholds(
            net, grouping, scen.values, spec.alpha, j, box.lo[j], box.hi,
            Counter() if work is None else work)

    def test_each_threshold_is_where_its_scenario_starts_to_pass(self, rng):
        # low boxes, so some scenarios still fail at the top
        kinds = set()
        for _ in range(4):
            net, grouping, scen, spec = instance(rng, d=6, n_scen=20, alpha_frac=0.99)
            full = sv.z_bounds(net, grouping, scen)
            box = sv.CapitalBox(lo=full.lo, hi=full.lo + 0.25 * (full.hi - full.lo))
            for j in range(2):
                ts = self.thresholds(net, grouping, scen, spec, j, box)
                kinds.update("top" if np.isinf(t) else "floor" if t == box.lo[j]
                             else "inside" for t in ts)

                def passes(n, t):
                    z = box.hi.copy()
                    z[j] = t
                    x = np.maximum(scen.values[n] + grouping.spread(z), 0.0)
                    return sv.aggregate_en(net, x) >= spec.alpha - VIOL_TOL

                for n, t in enumerate(ts):
                    if np.isinf(t):
                        assert not passes(n, box.hi[j])
                    else:
                        assert box.lo[j] <= t <= box.hi[j] and passes(n, t)
                        assert t == box.lo[j] or not passes(n, t - 1e-7)
        assert kinds == {"floor", "inside", "top"}

    def test_zero_nan_and_tiny_slopes_leave_after_one_step(self, monkeypatch):
        # every row fails at the floor: slope 0 and NaN never reach alpha,
        # slope 1e-300 steps past the top, and slope 1e30 stalls in rounding
        net, grouping, scen, spec = bisection_instance()
        box = sv.z_bounds(net, grouping, scen)
        slopes = np.array([0.0, np.nan, 1e-300, 1e30])
        calls = []

        def kernel(net, xs, supergradients=False):
            calls.append(len(xs))
            grads = np.zeros(xs.shape)
            grads[:, grouping.assignment == 0] = slopes[:len(xs), None]
            return np.zeros(len(xs)), grads

        monkeypatch.setattr(sysvar.clearing, "aggregate_en_many", kernel)
        few = sv.ScenarioSet(values=scen.values[:4])
        ts = self.thresholds(net, grouping, few, spec, 0, box)
        assert calls == [4]
        assert np.array_equal(ts, [np.inf, np.inf, np.inf, np.nextafter(box.lo[0], np.inf)])

    def test_newton_steps_are_capped(self, monkeypatch):
        # steps of 1e-6 that never pass stop after 2d + 8, at their last iterate
        net, grouping, scen, spec = bisection_instance()
        box = sv.z_bounds(net, grouping, scen)
        calls = []

        def kernel(net, xs, supergradients=False):
            calls.append(len(xs))
            return np.zeros(len(xs)), np.full(xs.shape, spec.alpha * 1e6)

        monkeypatch.setattr(sysvar.clearing, "aggregate_en_many", kernel)
        work = Counter()
        ts = self.thresholds(net, grouping, scen, spec, 0, box, work)
        steps = 2 * net.d + 8
        assert len(calls) == work["kernel_calls"] == steps
        assert work["rows_cleared"] == steps * scen.n
        assert np.all((box.lo[0] < ts) & (ts < box.lo[0] + 1e-4))


    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_bounds_at_the_floor_send_only_open_rows_to_the_kernel(self, monkeypatch,
                                                                      offset):
        # two scenarios, both of which must pass: at the floor, a rich row
        # the Picard bounds pass never reaches the kernel, and a row within
        # the bounds' margin of the line, on either side of it, does; the
        # cut is the one the Newton steps alone give
        net, grouping, scen, spec = bisection_instance()
        # ten times every obligation: solvent at every point of the box
        xs = np.vstack([scen.values[:1], 10 * net.pbar])
        two = sv.ScenarioSet(values=xs)
        box = sv.z_bounds(net, grouping, two)
        floor = box.hi.copy()
        floor[0] = box.lo[0]
        at_floor = np.maximum(xs + grouping.spread(floor), 0.0)
        margin = sysvar.risk._BOUND_MARGIN * net.total_obligations
        alpha = float(sv.aggregate_en_many(net, at_floor)[0]) + VIOL_TOL + offset * margin
        both = sv.RiskSpec(alpha=alpha, lam=0.1)
        assert max_violations(2, both.lam) == 0
        calls = []
        real = sysvar.clearing.aggregate_en_many

        def kernel(net, rows, supergradients=False):
            calls.append(rows.copy())
            return real(net, rows, supergradients=supergradients)

        monkeypatch.setattr(sysvar.clearing, "aggregate_en_many", kernel)
        work = Counter()
        cut, _ = sysvar.scalarize._acceptance_cut(net, grouping, two, both, 0, box.lo[0],
                                                  box.hi, work)
        assert calls and not any((rows >= 5 * net.pbar).all(axis=1).any() for rows in calls)
        assert np.array_equal(calls[0], at_floor[:1])
        assert (cut == box.lo[0]) == (offset < 0)
        assert work["rows_bounded"] == 1
        assert work["rows_cleared"] == sum(len(rows) for rows in calls)
        steps = sysvar.scalarize._ray_thresholds(net, grouping, xs, alpha, 0, box.lo[0],
                                                 box.hi, Counter())
        assert cut == steps.max()


def cut_and_work(net, grouping, scen, spec, j, box):
    work = Counter()
    cut, _ = sysvar.scalarize._acceptance_cut(net, grouping, scen, spec, j, box.lo[j],
                                              box.hi, work)
    return cut, work


class TestThresholdBrackets:
    """The acceptance cut clears only the rows whose certified brackets
    straddle the order statistic; the README network at N = 1,000 (scenario
    seed 41), whose axis 1 leaves about 950 rows open at its floor."""

    @pytest.fixture(scope="class")
    def readme(self):
        net, grouping, scen, spec = readme_instance(n=1000, seed=41)
        box = sv.z_bounds(net, grouping, scen)
        return net, grouping, scen, spec, box

    def test_ideal_point_clears_few_rows_and_keeps_its_bits(self, readme, monkeypatch):
        # 2,220 kernel rows in 7 calls when every open row took Newton steps
        net, grouping, scen, spec, box = readme
        lines = []
        monkeypatch.setattr(sysvar.scalarize, "log_event",
                            lambda event, **fields: lines.append(fields))
        ideal = sv.ideal_point(net, grouping, scen, spec)
        assert [float(v).hex() for v in ideal] == ["-0x1.df8135ba75100p-6",
                                                   "0x1.8c5303b7e0a6bp+5"]
        assert lines[0]["rows_cleared"] < 50 and lines[0]["reruns"] == 0

    def test_bounds_that_decide_nothing_leave_every_row_straddling(self, readme,
                                                                     monkeypatch):
        net, grouping, scen, spec, box = readme
        cut, work = cut_and_work(net, grouping, scen, spec, 1, box)
        monkeypatch.setattr(sysvar.risk, "_picard_bounds", undecided)
        calls = []
        real = sysvar.clearing.aggregate_en_many
        monkeypatch.setattr(sysvar.clearing, "aggregate_en_many",
                            lambda net, xs, **kwargs: calls.append(len(xs)) or
                            real(net, xs, **kwargs))
        forced, forced_work = cut_and_work(net, grouping, scen, spec, 1, box)
        assert forced == cut
        assert calls[0] == scen.n and forced_work["rows_bounded"] == 0
        assert work["rows_cleared"] < 50 < forced_work["rows_cleared"]

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_a_wrong_proposal_is_refused_by_the_bounds(self, readme, monkeypatch, shift):
        # a proposal one unit off puts the line outside [low, up]: the
        # bounds refuse the end on the wrong side of every open row, so
        # every row they leave open at the floor straddles, and the cut is
        # unchanged
        net, grouping, scen, spec, box = readme
        cut, _ = cut_and_work(net, grouping, scen, spec, 1, box)
        floor = box.hi.copy()
        floor[1] = box.lo[1]
        _, passes = sysvar.risk._picard_bounds(
            net, np.maximum(scen.values + grouping.spread(floor), 0.0), spec.alpha)
        real = sysvar.scalarize._proposal
        monkeypatch.setattr(sysvar.scalarize, "_proposal",
                            lambda *args: tuple(end + shift for end in real(*args)))
        calls = []
        real_kernel = sysvar.clearing.aggregate_en_many
        monkeypatch.setattr(sysvar.clearing, "aggregate_en_many",
                            lambda net, xs, **kwargs: calls.append(len(xs)) or
                            real_kernel(net, xs, **kwargs))
        forced, work = cut_and_work(net, grouping, scen, spec, 1, box)
        assert forced == cut
        assert 0 < work["rows_bounded"] == np.count_nonzero(passes)
        assert calls[0] == scen.n - work["rows_bounded"]


# the README instance's solutions: z and objective bits, nodes, gap and the
# incumbent trace, and the kernel calls one solve made when every node
# cleared its own uncut first round
README_SOLUTIONS = {
    "weights": dict(
        z=["-0x1.b63b8e544e220p-3", "0x1.9d10cd4e4a10ap+7"],
        objective="0x1.9ca33e6ab4fd1p+7", nodes=2, gap=0.0,
        trace=[(0, "0x1.9fc15886c886bp+7"), (2, "0x1.9ca33e6ab4fd1p+7")],
        kernel_calls=36),
    "point": dict(
        z=["0x1.1cc13a08ddd12p+6", "0x1.63f1888b15456p+7"],
        objective="0x1.1f0b8b9d952e1p+15", nodes=2, gap=0.0,
        trace=[(0, "0x1.23656b4d6e909p+15"), (2, "0x1.1f0b8b9d952e1p+15")],
        kernel_calls=37),
}


def scalarize(mode, net, grouping, scen, spec):
    if mode == "weights":
        return sv.weighted_sum(net, grouping, scen, spec, np.ones(2))
    return sv.norm_min(net, grouping, scen, spec, np.zeros(2))


class TestUncutPoint:
    @pytest.mark.parametrize("mode", ["weights", "point"])
    def test_each_solve_clears_the_uncut_point_once(self, monkeypatch, mode):
        net, grouping, scen, spec = readme_instance()
        solves, starts = [], []
        bnb = sysvar.scalarize.branch_and_bound
        relax = sysvar.mip._node_relax
        kernel = sysvar.mip.aggregate_en_many

        def spy_bnb(*args, **kwargs):
            solves.append([])
            return bnb(*args, **kwargs)

        def spy_relax(model, y_fix, hits, cuts, *rest):
            # the node's kind, and whether its forced pattern has no cuts yet
            forced = frozenset(np.flatnonzero(y_fix == 1).tolist())
            kind = ("root" if np.all(y_fix == -1) else "leaf" if np.all(y_fix != -1)
                    else "value-0 child" if np.any(y_fix == 0) else "value-1 child")
            starts.append((kind, not len(cuts.get(forced, ((), ()))[0])))
            return relax(model, y_fix, hits, cuts, *rest)

        def spy_kernel(net, xs, supergradients=False):
            solves[-1].append(xs.tobytes())
            return kernel(net, xs, supergradients)

        monkeypatch.setattr(sysvar.scalarize, "branch_and_bound", spy_bnb)
        monkeypatch.setattr(sysvar.mip, "_node_relax", spy_relax)
        monkeypatch.setattr(sysvar.mip, "aggregate_en_many", spy_kernel)
        res = scalarize(mode, net, grouping, scen, spec)
        assert len(solves) == 1
        inputs = solves[0]
        # the root starts uncut, so its first clearing is the uncut point;
        # a value-0 child and a fresh leaf start uncut too and reuse it
        assert starts[0] == ("root", True)
        uncut = {kind for kind, fresh in starts[1:] if fresh}
        assert {"value-0 child", "leaf"} <= uncut
        assert inputs.count(inputs[0]) == 1
        # every other round is cleared as before: only the reused ones are gone
        pins = README_SOLUTIONS[mode]
        reused = sum(fresh for _, fresh in starts) - 1
        assert len(inputs) + reused == pins["kernel_calls"]

        sol = res.solution
        assert [float(v).hex() for v in sol.z] == pins["z"]
        assert sol.objective.hex() == pins["objective"]
        assert sol.nodes == pins["nodes"] and sol.gap == pins["gap"]
        assert [(k, v.hex()) for k, v in sol.incumbent_trace] == pins["trace"]

    def test_readme_solutions_match_the_subset_oracle(self):
        # the criterion-4 oracle enumerates the scenario subsets of the
        # required size, one LP each
        net, grouping, scen, spec = readme_instance()
        box = sv.z_bounds(net, grouping, scen)
        z = {mode: np.array([float.fromhex(v) for v in pins["z"]])
             for mode, pins in README_SOLUTIONS.items()}
        ws = float.fromhex(README_SOLUTIONS["weights"]["objective"])
        assert ws == pytest.approx(subset_oracle_weighted(net, grouping, scen, spec,
                                                          np.ones(2), box), abs=1e-6)
        assert ws == pytest.approx(z["weights"].sum(), abs=1e-9)
        # least distance from the origin: its optimum is in the set, and no
        # point of the set is closer, since every z in the set has
        # |z| >= u.z >= min over the set of u.z for the unit vector u
        # towards that optimum
        distance = np.sqrt(float.fromhex(README_SOLUTIONS["point"]["objective"]))
        assert np.linalg.norm(z["point"]) == pytest.approx(distance, rel=1e-12)
        assert sv.membership(net, grouping, scen, spec, z["point"]).accepted
        u = z["point"] / np.linalg.norm(z["point"])
        assert subset_oracle_weighted(net, grouping, scen, spec, u, box) >= distance - 1e-6


class TestLargeSample:
    def test_both_scalarizations_at_two_hundred_scenarios(self):
        # the README network on sample-shocks --n 200 --seed 36, pinned to
        # the bit: the cuts built by stacked products and the rounding
        # pattern by lexsort keep the per-scenario loops' values, points
        # and node counts
        net, grouping, scen, spec = readme_instance(n=200, seed=36)
        ws = sv.weighted_sum(net, grouping, scen, spec, np.ones(2))
        assert ws.value == float.fromhex("0x1.9fcc0b7f66963p+7")
        assert ws.z.tolist() == [float.fromhex("-0x1.483380b604980p-5"),
                                 float.fromhex("0x1.9fe08eb771f68p+7")]
        assert ws.solution.nodes == 46
        nm = sv.norm_min(net, grouping, scen, spec, np.zeros(2))
        assert nm.solution.objective == float.fromhex("0x1.232992b34526dp+15")
        assert nm.value == 193.05125361927205
        assert nm.z.tolist() == [float.fromhex("0x1.1eca2c925d1cbp+6"),
                                 float.fromhex("0x1.667cb7b6f463ep+7")]
        assert nm.solution.nodes == 46
        for z in (ws.z, nm.z):
            assert sv.membership(net, grouping, scen, spec, z).accepted


def sorted_rounding_pattern(totals, y_fix, hits):
    """The rounded pattern by a sort over the free scenarios, largest total
    first and ties to the lower index."""
    forced = set(np.flatnonzero(y_fix == 1).tolist())
    free = sorted((n for n in range(len(totals)) if y_fix[n] == -1),
                  key=lambda n: (-totals[n], n))
    return frozenset(forced | set(free[:max(hits - len(forced), 0)]))


class TestRoundingPattern:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_sorted_reference(self, seed):
        # the README network's totals at N = 200 and z = (590, 590): every
        # solvent row pays the total obligations, so about half the totals tie
        rng = np.random.default_rng(seed)
        net, grouping, scen, spec = readme_instance(n=200, seed=36)
        totals = sv.aggregate_en_many(net, scen.values + grouping.spread(np.full(2, 590.0)))
        assert 50 < np.count_nonzero(totals == net.total_obligations) < 150
        hits = required_hits(200, spec.lam)
        y_fix = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=200, p=[0.6, 0.2, 0.2])
        for k in (0, 1, hits, 199, 200):
            assert rounding_pattern(totals, y_fix, k) == sorted_rounding_pattern(totals, y_fix, k)

    def test_no_extra_rows_once_enough_are_forced(self):
        totals = np.array([3.0, 5.0, 5.0, 1.0, 5.0])
        y_fix = np.array([1, -1, 1, 0, -1], dtype=np.int8)
        assert rounding_pattern(totals, y_fix, 2) == frozenset({0, 2})
        assert rounding_pattern(totals, y_fix, 3) == frozenset({0, 1, 2})
        assert rounding_pattern(totals, np.full(5, -1, dtype=np.int8), 3) == frozenset({1, 2, 4})
        assert all(type(n) is int for n in rounding_pattern(totals, y_fix, 3))


# the branch-and-bound work of the README instance's three solves: solves,
# nodes, node relaxations, cut rounds (a reused uncut round included),
# inner LP and QP solves, and kernel calls of branch-and-bound and of the
# membership oracle
README_WORK = {
    "weights": dict(solves=1, nodes=2, relaxations=7, rounds=36, lp=30, qp=0,
                    kernel=30, membership_kernel=0),
    "point": dict(solves=1, nodes=2, relaxations=7, rounds=37, lp=0, qp=31,
                  kernel=31, membership_kernel=0),
    "algo2": dict(solves=10, nodes=14, relaxations=50, rounds=108, lp=0, qp=68,
                  kernel=68, membership_kernel=2),
}


class TestBranchAndBoundWork:
    @pytest.mark.parametrize("mode", list(README_WORK))
    def test_readme_work_is_pinned(self, monkeypatch, mode):
        # scalarize --weights 1,1, scalarize --point 0,0 and saa --algo 2
        # --epsilon 200 on the README instance
        net, grouping, scen, spec = readme_instance()
        work = Counter()

        def count(module, name, key, extra=None):
            raw = getattr(module, name)

            def spy(*args, **kwargs):
                out = raw(*args, **kwargs)
                work[key] += 1
                if extra is not None:
                    work[extra[0]] += extra[1](out)
                return out

            monkeypatch.setattr(module, name, spy)

        count(sysvar.scalarize, "branch_and_bound", "solves", ("nodes", lambda s: s.nodes))
        count(sysvar.mip, "_node_relax", "relaxations", ("rounds", lambda r: r.rounds))
        count(sysvar.mip, "solve_lp", "lp")
        count(sysvar.mip, "min_norm_qp", "qp")
        count(sysvar.mip, "aggregate_en_many", "kernel")
        count(sysvar.risk, "aggregate_en_many", "membership_kernel")
        if mode == "algo2":
            assert sv.approximate_by_norm_min(net, grouping, scen, spec, 200.0).feasible
        else:
            assert scalarize(mode, net, grouping, scen, spec).status == "optimal"
        pins = README_WORK[mode]
        assert {key: work[key] for key in pins} == pins



# sha256 of the weighted sum (1, 1) z, value and nodes, the norm minimum
# from (0, 0) likewise, and algorithm 2's generators at epsilon 200, on the
# README network and sample-shocks --n 10 for each seed
TEN_SCENARIO_DIGESTS = {
    11: "13a715ca3bd334b9173070e5d24cce6f2d1c680bad63bf6090dbcef2b5c9e3f3",
    36: "1dae6258dd4c919a1be171e20997dfbbcacd65d83d453e31d97d5c1b191bda3c",
    492: "e58749932c68810c80a0aafd71c516ac2e4852ffb351ab1752e61ebc76a027b2",
    924: "2fe26c688db6a3c4eee50c846a80cfc31c62b1081ad0264d52c293f9036a7cbc",
}


class TestTenScenarios:
    @pytest.mark.parametrize("seed", list(TEN_SCENARIO_DIGESTS))
    def test_branch_and_bound_bits_are_pinned(self, seed):
        # the benchmark's N = 10 branch-and-bound path, where every cut
        # round is one kernel call with supergradients: a kernel change
        # that moves a bit moves the digest
        net, grouping, scen, spec = readme_instance(n=10, seed=seed)
        ws = sv.weighted_sum(net, grouping, scen, spec, np.ones(2))
        nm = sv.norm_min(net, grouping, scen, spec, np.zeros(2))
        a2 = sv.approximate_by_norm_min(net, grouping, scen, spec, 200.0)
        assert (ws.status, nm.status) == ("optimal", "optimal")
        digest = hashlib.sha256()
        for res in (ws, nm):
            digest.update(res.z.tobytes() + np.float64(res.value).tobytes()
                          + np.int64(res.solution.nodes).tobytes())
        digest.update(np.ascontiguousarray(a2.generators).tobytes())
        assert digest.hexdigest() == TEN_SCENARIO_DIGESTS[seed]
