import hashlib
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

import sysvar as sv
import sysvar.mip
import sysvar.risk
import sysvar.saa
from sysvar.risk import _ScenarioLabels
from sysvar.saa import _BALL_SHRINK, Grid, _mark_ball
from sysvar.util import ValidationError, max_violations
from conftest import (
    exhaustive_grid_generators,
    exp_scenarios,
    random_network,
    readme_instance,
    ring2,
    two_group_split,
)


def instance(rng, d=4, n_scen=8, lam=0.3, alpha_frac=0.85, scale=0.3):
    net = random_network(rng, d, pbar_range=(0.5, 1.6))
    grouping = two_group_split(rng, d)
    scen = exp_scenarios(rng, n_scen, d, scale)
    spec = sv.RiskSpec(alpha=alpha_frac * net.total_obligations, lam=lam)
    return net, grouping, scen, spec


def three_group_instance(rng, d=6, n_scen=12, lam=0.2):
    net = random_network(rng, d, pbar_range=(0.5, 1.6))
    assignment = np.sort(rng.integers(0, 3, size=d))
    assignment[:3] = [0, 1, 2]
    grouping = sv.Grouping(g=3, assignment=np.sort(assignment))
    scen = exp_scenarios(rng, n_scen, d, 0.3)
    spec = sv.RiskSpec(alpha=0.9 * net.total_obligations, lam=lam)
    return net, grouping, scen, spec


def criterion9_instance():
    params = sv.BollobasParams(theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5,
                               delta_out=0.5, target_nodes=10, seed=5)
    m = sv.IntergroupLiabilityMatrix(values=np.array([[4.0, 2.0], [3.0, 1.5]]))
    net, grouping = sv.build_liabilities(sv.generate_bollobas(params), 2, m)
    spec = sv.RiskSpec(alpha=0.8 * net.total_obligations, lam=0.2)
    shock = sv.ShockParams(nu=3.0, beta_by_group=np.array([1.0, 0.5]),
                           rho=0.3, n=400, seed=0)
    return net, grouping, sv.sample_shocks(shock, grouping), spec


def done_event(caplog, event):
    lines = [json.loads(r.getMessage()) for r in caplog.records if r.name == "sysvar"]
    return [line for line in lines if line["event"] == event][-1]


class TestMembership:
    def test_box_top_always_accepted(self, rng):
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        res = sv.membership(net, grouping, scen, spec, box.hi)
        assert res.accepted
        assert res.violation_fraction == 0.0

    def test_negative_entry_rejected(self, rng):
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        z = box.lo.copy()
        z[0] -= 0.5
        res = sv.membership(net, grouping, scen, spec, z)
        assert not res.accepted

    def test_monotone_on_random_pairs(self, rng):
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        for _ in range(200):
            z = rng.uniform(box.lo - 0.2, box.hi)
            w = rng.uniform(0.0, 0.5, size=2)
            if sv.membership(net, grouping, scen, spec, z).accepted:
                assert sv.membership(net, grouping, scen, spec, z + w).accepted

    def test_box_restriction_is_lossless(self, rng):
        # points above the box clip onto it without changing acceptance
        net, grouping, scen, spec = instance(rng)
        box = sv.z_bounds(net, grouping, scen)
        for _ in range(40):
            z = rng.uniform(box.lo, box.hi + 1.0)
            clipped = np.minimum(z, box.hi)
            assert (sv.membership(net, grouping, scen, spec, z).accepted
                    == sv.membership(net, grouping, scen, spec, clipped).accepted)

    def test_record_clears_scenarios_it_labels_both_ways(self, rng):
        # off monotonicity a scenario can pass below z and fail above it;
        # the record then decides nothing and membership clears it
        net, grouping, scen, spec = instance(rng, alpha_frac=0.99)
        box = sv.z_bounds(net, grouping, scen)
        labels = _ScenarioLabels(scen.n, grouping.g)
        labels.add(box.lo, np.ones(scen.n, dtype=bool))
        labels.add(box.hi, np.zeros(scen.n, dtype=bool))
        full = sv.membership(net, grouping, scen, spec, box.lo)
        assert full.violation_fraction > 0
        assert sv.membership(net, grouping, scen, spec, box.lo, labels=labels) == full
        assert labels.rows_decided == 0 and labels.rows_cleared == scen.n

    def test_rows_inside_the_bound_margin_reach_the_kernel(self, monkeypatch):
        # every bank holds more cash than it owes, so both Picard bounds are
        # the total obligations T.  At alpha = T and T + half the margin
        # every row lies within the margin, and the kernel passes them all
        # at T and fails them all above it, with and without a record
        rng = np.random.default_rng(5)
        net = random_network(rng, 4)
        grouping = two_group_split(rng, 4)
        scen = sv.ScenarioSet(values=net.pbar + rng.uniform(0.0, 1.0, size=(6, 4)))
        kernel, cleared = sysvar.risk.aggregate_en_many, []

        def spy(net, xs):
            cleared.append(len(xs))
            return kernel(net, xs)

        monkeypatch.setattr(sysvar.risk, "aggregate_en_many", spy)
        total = net.total_obligations
        margin = sysvar.risk._BOUND_MARGIN * total
        for alpha, fraction in ((total, 0.0), (total + 0.5 * margin, 1.0)):
            spec = sv.RiskSpec(alpha=alpha, lam=0.5)
            labels = _ScenarioLabels(scen.n, grouping.g)
            for record in (None, labels):
                res = sv.membership(net, grouping, scen, spec, np.zeros(2), labels=record)
                assert res.violation_fraction == fraction
            assert labels.rows_cleared == scen.n and labels.rows_bounded == 0
        assert cleared == [scen.n] * 4

    @pytest.mark.parametrize("budget, stored", [(4 << 20, 40), (3 * 29, 3)])
    def test_record_grows_up_to_its_budget(self, monkeypatch, budget, stored):
        # at N = 100 and g = 2 a point takes 13 bitmap bytes and 2 floats, 29 bytes
        monkeypatch.setattr(sysvar.risk, "_LABEL_BUDGET_BYTES", budget)
        rng = np.random.default_rng(3)
        zs, passes = rng.random((40, 2)), rng.random((40, 100)) < 0.5
        labels = _ScenarioLabels(100, 2)
        for z, passed in zip(zs, passes):
            labels.add(z, passed)
        assert labels.size == stored <= len(labels.passes)
        assert np.array_equal(labels.points[:, :stored], zs[:stored].T)
        unpacked = np.unpackbits(labels.passes[:stored], axis=1, count=100, bitorder="little")
        assert np.array_equal(unpacked.view(bool), passes[:stored])


class TestGrid:
    def test_covering_invariant(self, rng):
        lo = np.array([-0.3, 0.1])
        hi = np.array([1.1, 0.9])
        grid = Grid.build(lo, hi, epsilon=0.37)
        step = 0.37 / np.sqrt(2)
        assert all(lv[0] == h for lv, h in zip(grid.levels, hi))
        for _ in range(300):
            v = rng.uniform(lo, hi)
            cover = np.array([lv[lv >= v[j] - 1e-12].min()
                              for j, lv in enumerate(grid.levels)])
            assert np.all(cover >= v - 1e-12)
            assert np.all(cover <= v + step + 1e-12)

    def test_capacity_guard(self):
        with pytest.raises(sv.CapacityError):
            Grid.build(np.zeros(2), np.ones(2) * 1e6, epsilon=0.01)
        # one axis alone is too long to allocate: the cap must fire first
        with pytest.raises(sv.CapacityError):
            Grid.build(np.zeros(2), np.array([1e12, 1.0]), epsilon=0.01)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, rng, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            Grid.build(np.zeros(2), np.ones(2), epsilon=epsilon)
        # an alpha above the total obligations returns the empty set before
        # any grid is built, and still refuses the epsilon
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=2.0 * net.total_obligations, lam=0.2)
        for algorithm in (sv.approximate_by_clearing, sv.approximate_by_norm_min):
            with pytest.raises(ValidationError, match="epsilon"):
                algorithm(net, grouping, scen, spec, epsilon)

    def test_ball_slice_matches_full_mesh(self, rng):
        for g in (1, 2, 3):
            for _ in range(150):
                lo = rng.uniform(-1.0, 0.5, size=g)
                grid = Grid.build(lo, lo + rng.uniform(0.0, 2.0, size=g),
                                  float(rng.uniform(0.05, 0.5)))
                status = rng.choice(np.array([0, 0, 1, 2], dtype=np.int8), size=grid.shape)
                z = rng.uniform(lo - 0.5, grid.hi + 0.5)
                # radii at exact level distances probe the slice boundary
                radius = float(rng.choice([rng.uniform(-0.1, 1.5),
                                           abs(grid.levels[0][-1] - z[0])]))
                expected = status.copy()
                if radius > 0:
                    sq = sum(np.ix_(*[np.maximum(lv - zj, 0) ** 2
                                       for lv, zj in zip(grid.levels, z)]))
                    expected[(expected == 0) & (np.sqrt(sq) < radius)] = 2
                _mark_ball(grid, status, z, radius)
                assert np.array_equal(status, expected)

    @pytest.mark.parametrize("make", [instance, three_group_instance])
    def test_ball_lower_closure_holds_only_rejected_points(self, rng, make):
        # for each rejected grid point z, every point labelled from
        # norm_min(z)'s distance is rejected by membership too, and the
        # lower closure labels points the ball alone misses
        beyond_ball = 0
        for _ in range(2):
            net, grouping, scen, spec = make(rng)
            eps = 0.3
            approx = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
            grid = Grid.build(approx.ideal, approx.box.hi, eps)
            accepted = np.zeros(grid.shape, dtype=bool)
            for idx in np.ndindex(*grid.shape):
                accepted[idx] = sv.membership(net, grouping, scen, spec,
                                              grid.value(idx)).accepted
            for idx in zip(*np.nonzero(~accepted)):
                z = grid.value(idx)
                res = sv.norm_min(net, grouping, scen, spec, z, box=approx.box)
                status = np.zeros(grid.shape, dtype=np.int8)
                _mark_ball(grid, status, z, res.value - _BALL_SHRINK)
                assert status[idx] == 2
                assert not np.any(accepted[status == 2])
                sq = sum(np.ix_(*[(lv - zj) ** 2 for lv, zj in zip(grid.levels, z)]))
                beyond_ball += int(np.count_nonzero(status == 2)
                                   - np.count_nonzero(np.sqrt(sq) < res.value - _BALL_SHRINK))
        assert beyond_ball > 0

    def test_ball_lower_closure_meshes_no_more_floats_than_the_ball(self):
        # 2,001 x 1,501 levels, z mid-grid, a radius past the grid's
        # diagonal: the old ball's bounding box is the whole grid, and the
        # call's peak stays below one float64 array over it
        grid = Grid.build(np.zeros(2), np.array([2.0, 1.5]), 0.001 * math.sqrt(2))
        assert grid.shape == (2001, 1501)
        status = np.zeros(grid.shape, dtype=np.int8)
        z = grid.value((1000, 750))
        tracemalloc.start()
        try:
            labelled = _mark_ball(grid, status, z, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labelled == grid.size and np.all(status == 2)
        assert peak < 8 * grid.size


class TestGridAlgorithms:
    def test_both_algorithms_match_exhaustive(self, rng):
        for trial in range(3):
            net, grouping, scen, spec = instance(rng, n_scen=6, lam=0.35)
            eps = 0.3
            a1 = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
            a2 = sv.approximate_by_norm_min(net, grouping, scen, spec, eps)
            grid = Grid.build(a1.ideal, a1.box.hi, eps)
            expected = exhaustive_grid_generators(net, grouping, scen, spec, grid)
            assert np.array_equal(a1.generators, expected)
            assert np.array_equal(a2.generators, expected)

    def test_both_algorithms_match_exhaustive_three_groups(self, rng):
        for _ in range(2):
            net, grouping, scen, spec = three_group_instance(rng)
            eps = 0.3
            a1 = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
            a2 = sv.approximate_by_norm_min(net, grouping, scen, spec, eps)
            grid = Grid.build(a1.ideal, a1.box.hi, eps)
            assert len(grid.shape) == 3 and min(grid.shape) > 1
            expected = exhaustive_grid_generators(net, grouping, scen, spec, grid)
            assert len(expected) > 1
            assert np.array_equal(a1.generators, expected)
            assert np.array_equal(a2.generators, expected)

    def test_algorithms_agree_with_five_groups(self, monkeypatch):
        # one bank per group; algorithm 2 projects onto cut polyhedra in
        # five dimensions
        rng = np.random.default_rng(0)
        net = random_network(rng, 5, pbar_range=(0.5, 1.6))
        grouping = sv.Grouping(g=5, assignment=np.arange(5))
        scen = exp_scenarios(rng, 4, 5, 0.3)
        spec = sv.RiskSpec(alpha=0.9 * net.total_obligations, lam=0.2)
        eps = 1.4
        projections = []
        project = sysvar.mip.min_norm_qp

        def spy(*args):
            res = project(*args)
            projections.append(res.distance > 0)
            return res

        monkeypatch.setattr(sysvar.mip, "min_norm_qp", spy)
        a1 = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
        a2 = sv.approximate_by_norm_min(net, grouping, scen, spec, eps)
        assert Grid.build(a1.ideal, a1.box.hi, eps).shape == (3, 4, 4, 4, 4)
        assert any(projections)
        assert len(a1.generators) > 1
        assert np.array_equal(a1.generators, a2.generators)

    def test_budget_fallback_matches_clearing(self, rng, caplog, monkeypatch):
        # with no node to expand, some solves end budget_exhausted; their
        # points are labelled from norm_min's own membership call, and
        # algorithm 2 makes none of its own
        caplog.set_level(logging.DEBUG, logger="sysvar")
        calls = []
        monkeypatch.setattr(sysvar.saa, "membership",
                            lambda *args, labels=None: calls.append(args))
        net, grouping, scen, spec = three_group_instance(rng)
        a2 = sv.approximate_by_norm_min(net, grouping, scen, spec, 0.3, node_budget=0)
        assert done_event(caplog, "grid_norm_min_done")["fallbacks"] > 0
        assert calls == []
        monkeypatch.undo()
        a1 = sv.approximate_by_clearing(net, grouping, scen, spec, 0.3)
        assert len(a1.generators) > 1
        assert np.array_equal(a1.generators, a2.generators)

    @pytest.mark.parametrize("epsilon, digest", [
        (10.0, "e6b626de576c1aa9be219bce01036b2d2c5cbd2194e7f2bf5ce3bc362a338702"),
        (4.0, "0462798bca5a64e837f7b7d963c503ae20160bfd6a25c01800399f3aab987998"),
    ])
    def test_readme_generators_keep_their_bytes(self, epsilon, digest):
        # algorithm 1 on the README network and sample-shocks --n 1000
        # --seed 36: the generators' bytes when every open scenario went to
        # the clearing kernel, before the Picard bounds decided most of them
        net, grouping, scen, spec = readme_instance(n=1000, seed=36)
        gens = sv.approximate_by_clearing(net, grouping, scen, spec, epsilon).generators
        assert hashlib.sha256(np.ascontiguousarray(gens).tobytes()).hexdigest() == digest

    def test_boundary_search_call_bound(self, rng, caplog):
        caplog.set_level(logging.DEBUG, logger="sysvar")
        cases = [instance(rng, n_scen=8) + (0.15,) for _ in range(3)]
        cases.append(criterion9_instance() + (0.4,))
        for net, grouping, scen, spec, eps in cases:
            approx = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
            shape = Grid.build(approx.ideal, approx.box.hi, eps).shape
            line = max(shape)
            bound = math.prod(shape) // line * math.ceil(math.log2(line + 1))
            done = done_event(caplog, "grid_clearing_done")
            assert done["points"] == math.prod(shape)
            assert done["evaluations"] <= bound
        # the criterion-9 grid, (30, 14): a sweep in coordinate-sum order
        # needed 375 calls
        assert shape == (30, 14)
        assert done["evaluations"] <= 70

    def test_lowest_lines_first_on_criterion9_grid(self, caplog):
        # lines are taken from the lowest levels of the other axis up, so
        # each line's open run is the part beyond the previous line's
        # boundary; highest levels first took 60 evaluations
        caplog.set_level(logging.DEBUG, logger="sysvar")
        net, grouping, scen, spec = criterion9_instance()
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, 0.4)
        assert Grid.build(approx.ideal, approx.box.hi, 0.4).shape == (30, 14)
        assert done_event(caplog, "grid_clearing_done")["evaluations"] == 24

    def test_search_labels_every_point_for_non_monotone_oracle(self, rng, monkeypatch):
        net, grouping, scen, spec = instance(rng, n_scen=6)
        box = sv.z_bounds(net, grouping, scen)
        flips = np.random.default_rng(7)
        answers = {}

        def oracle(net, grouping, scenarios, spec, z, labels=None):
            answers[tuple(z)] = bool(flips.random() < 0.5)
            return sv.MembershipResult(accepted=answers[tuple(z)], violation_fraction=0.0)

        seen = []
        real_generators = sysvar.saa._generators

        def generators(grid, status):
            seen.append((grid, status.copy()))
            return real_generators(grid, status)

        monkeypatch.setattr(sysvar.saa, "membership", oracle)
        monkeypatch.setattr(sysvar.saa, "_generators", generators)
        sv.approximate_by_clearing(net, grouping, scen, spec, 0.1,
                                   box=box, grid_lo=box.lo)
        grid, status = seen[0]
        assert grid.size > 100
        assert np.all(status != 0)
        assert 0 < len(answers) <= grid.size
        # every visited point keeps the label the oracle gave it
        for idx in np.ndindex(*grid.shape):
            z = tuple(grid.value(idx))
            if z in answers:
                assert status[idx] == (1 if answers[z] else 2)

    def test_traversal_order_is_irrelevant(self, rng, monkeypatch):
        net, grouping, scen, spec = instance(rng, n_scen=6)
        base = sv.approximate_by_clearing(net, grouping, scen, spec, 0.25)
        for seed in range(3):
            def static_order(grid, status, seed=seed):
                perm = np.random.default_rng(seed).permutation(grid.size)
                return zip(*(i.tolist() for i in np.unravel_index(perm, grid.shape)))

            monkeypatch.setattr(sysvar.saa, "_traversal", static_order)
            for algorithm in (sv.approximate_by_clearing, sv.approximate_by_norm_min):
                shuffled = algorithm(net, grouping, scen, spec, 0.25)
                assert np.array_equal(base.generators, shuffled.generators)

    def test_vacuous_level_single_floor_generator(self, rng):
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=0.9 * net.total_obligations, lam=1.0 - 1e-12)
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, 0.25)
        assert len(approx.generators) == 1
        gen = approx.generators[0]
        box = sv.z_bounds(net, grouping, scen)
        step = 0.25 / np.sqrt(2)
        assert np.all(gen >= box.lo - 1e-12)
        assert np.all(gen <= box.lo + step + 1e-9)

    def test_infeasible_spec_flagged_empty(self, rng):
        net, grouping, scen, _ = instance(rng)
        spec = sv.RiskSpec(alpha=net.total_obligations + 1.0, lam=0.3)
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, 0.25)
        assert not approx.feasible
        assert approx.generators.size == 0
        assert sv.distance_probe(np.zeros(2), approx) == np.inf

    def test_generators_pass_membership_and_form_antichain(self, rng):
        net, grouping, scen, spec = instance(rng, n_scen=10)
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, 0.2)
        gens = approx.generators
        assert len(gens) >= 1
        for g in gens:
            assert sv.membership(net, grouping, scen, spec, g).accepted
        for i in range(len(gens)):
            for j in range(len(gens)):
                if i != j:
                    assert not np.all(gens[i] <= gens[j] + 1e-12)

    def test_epsilon_refinement_is_nested(self, rng):
        net, grouping, scen, spec = instance(rng, n_scen=8)
        coarse = sv.approximate_by_clearing(net, grouping, scen, spec, 0.5)
        fine = sv.approximate_by_clearing(net, grouping, scen, spec, 0.15)
        # the coarse inner set lies within the fine epsilon tube of the
        # finer inner set
        for g in coarse.generators:
            assert sv.distance_probe(g, fine) <= 0.15 + 1e-9

    def test_accepted_points_lie_within_epsilon(self, rng):
        net, grouping, scen, spec = instance(rng, n_scen=8)
        eps = 0.25
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
        box = sv.z_bounds(net, grouping, scen)
        hits = 0
        for _ in range(300):
            v = rng.uniform(box.lo, box.hi)
            if sv.membership(net, grouping, scen, spec, v).accepted:
                hits += 1
                assert sv.distance_probe(v, approx) <= eps + 1e-9
        assert hits > 10

    def test_level_nestedness(self, rng):
        net, grouping, scen, _ = instance(rng, n_scen=10)
        box = sv.z_bounds(net, grouping, scen)
        lo_grid = box.lo - 1e-6
        sets = []
        for lam in (0.15, 0.45):
            spec = sv.RiskSpec(alpha=0.85 * net.total_obligations, lam=lam)
            sets.append(sv.approximate_by_clearing(
                net, grouping, scen, spec, 0.2, box=box, grid_lo=lo_grid))
        tight, loose = sets
        for g in tight.generators:
            assert loose.contains(g)

    def test_translativity_exact(self, rng):
        # dyadic grid and shift make every float operation exact
        net, grouping, scen, spec = instance(rng, n_scen=8)
        eps = 0.25 * np.sqrt(2)
        w = np.array([8.0, 16.0])
        box = sv.z_bounds(net, grouping, scen)
        lo = np.floor(box.lo * 4) / 4
        hi = np.ceil(box.hi * 4) / 4
        base = sv.approximate_by_clearing(
            net, grouping, scen, spec, eps,
            box=sv.CapitalBox(lo=lo, hi=hi), grid_lo=lo)
        shifted_scen = sv.ScenarioSet(
            values=scen.values + grouping.spread(w)[None, :])
        shifted = sv.approximate_by_clearing(
            net, grouping, shifted_scen, spec, eps,
            box=sv.CapitalBox(lo=lo - w, hi=hi - w), grid_lo=lo - w)
        assert np.array_equal(base.generators - w, shifted.generators)


class TestSetMetrics:
    def make(self, gens, eps=0.1):
        arr = np.asarray(gens, dtype=float)
        return sv.ApproxSet(
            epsilon=eps, generators=arr,
            box=sv.CapitalBox(lo=arr.min(axis=0) - 1, hi=arr.max(axis=0) + 1),
            ideal=arr.min(axis=0))

    def test_identical_sets_at_zero(self):
        a = self.make([[0.0, 1.0], [1.0, 0.0]])
        assert sv.hausdorff_distance(a, a) == 0.0

    def test_shifted_cone_closed_form(self):
        a = self.make([[0.0, 0.0]])
        b = self.make([[1.0, 1.0]])
        assert sv.hausdorff_distance(a, b) == pytest.approx(np.sqrt(2.0))

    def test_empty_set_rejected(self):
        a = self.make([[0.0, 0.0]])
        empty = sv.ApproxSet(epsilon=0.1, generators=np.empty((0, 2)),
                             box=a.box, ideal=a.ideal, feasible=False)
        with pytest.raises(ValidationError):
            sv.hausdorff_distance(a, empty)

    def test_against_dense_sampling(self, rng):
        a = self.make([[0.0, 0.6], [0.3, 0.2], [0.8, 0.0]])
        b = self.make([[0.1, 0.9], [0.5, 0.4], [1.1, 0.1]])
        closed = sv.hausdorff_distance(a, b)
        # sampled estimate: directed sup over dense boundary points of each
        # set of the distance to a dense point cloud of the other
        spans = np.linspace(0.0, 2.0, 220)
        def cloud(s):
            pts = [g + np.array([u, v]) for g in s.generators
                   for u in spans for v in spans]
            return np.asarray(pts)
        def directed(from_set, to_cloud):
            worst = 0.0
            for g in from_set.generators:
                d = np.linalg.norm(to_cloud - g, axis=1).min()
                worst = max(worst, d)
            return worst
        est = max(directed(a, cloud(b)), directed(b, cloud(a)))
        assert closed == pytest.approx(est, abs=2e-2)

    def test_memory_grows_with_one_generator_list(self):
        # a K x K x g tensor of the two 1,500-generator lists is 36 MB
        rng = np.random.default_rng(5)
        a, b = (self.make(np.sort(rng.uniform(0, 10, (1500, 2)), axis=0) * [1, -1])
                for _ in range(2))
        tracemalloc.start()
        try:
            sv.hausdorff_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_distance_probe_examples(self):
        s = self.make([[1.0, 2.0]])
        assert sv.distance_probe(np.array([1.5, 2.5]), s) == 0.0
        assert sv.distance_probe(np.array([0.0, 2.0]), s) == pytest.approx(1.0)

    def test_probe_tracks_norm_min_within_epsilon(self, rng):
        net, grouping, scen, spec = instance(rng, n_scen=8)
        eps = 0.2
        approx = sv.approximate_by_clearing(net, grouping, scen, spec, eps)
        box = sv.z_bounds(net, grouping, scen)
        for _ in range(6):
            v = rng.uniform(box.lo, box.hi)
            exact = sv.norm_min(net, grouping, scen, spec, v, box=box).value
            probe = sv.distance_probe(v, approx)
            assert exact - 1e-6 <= probe <= exact + eps + 1e-6


class TestInsensitive:
    def test_worked_example(self):
        spec = sv.RiskSpec(alpha=2.5, lam=0.25)
        assert sv.insensitive_saa(np.array([1.0, 2.0, 3.0, 4.0]), spec) == pytest.approx(0.5)

    def test_no_capital_needed_when_all_pass(self):
        spec = sv.RiskSpec(alpha=1.0, lam=0.2)
        r = sv.insensitive_saa(np.array([1.5, 2.0, 3.0]), spec)
        assert r <= 0.0

    def test_strict_level_uses_minimum(self):
        spec = sv.RiskSpec(alpha=5.0, lam=0.05)
        agg = np.array([2.0, 3.0, 4.0])
        assert sv.insensitive_saa(agg, spec) == pytest.approx(5.0 - 2.0)

    def test_bounds_and_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 40))
            agg = rng.normal(5.0, 2.0, size=n)
            spec = sv.RiskSpec(alpha=float(rng.uniform(2.0, 8.0)),
                               lam=float(rng.uniform(0.05, 0.95)))
            r = sv.insensitive_saa(agg, spec)
            assert spec.alpha - agg.max() - 1e-12 <= r <= spec.alpha - agg.min() + 1e-12
            ys = np.arange(spec.alpha - agg.max() - 2e-4, spec.alpha - agg.min() + 2e-4, 1e-4)
            counts = (agg[None, :] + ys[:, None] < spec.alpha).sum(axis=1)
            feasible = ys[counts <= int(np.floor(n * spec.lam + 1e-9))]
            assert r == pytest.approx(feasible.min(), abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sv.insensitive_saa(np.array([]), sv.RiskSpec(alpha=1.0, lam=0.5))

    def test_no_capital_bound_when_every_scenario_may_fail(self):
        # floor(N * lambda + 1e-9) = N: every y meets the count, as
        # membership accepts every z in the orthant
        spec = sv.RiskSpec(alpha=1.0, lam=1.0 - 1e-10)
        assert max_violations(10, spec.lam) == 10
        assert sv.insensitive_saa(np.arange(10.0), spec) == -np.inf


class TestConvergenceStudy:
    def test_reference_cell_is_zero(self, rng):
        net, grouping, _, spec = instance(rng, n_scen=8)
        params = sv.ShockParams(nu=3.0, beta_by_group=np.array([0.4, 0.2]),
                                rho=0.3, n=30, seed=0)
        rows = sv.convergence_study(
            net, grouping, params, spec, n_list=[30], seeds=[0, 1],
            epsilon=0.4, n_ref=30)
        data = [r for r in rows if isinstance(r["seed"], int)]
        assert all(r["hausdorff_to_ref"] == 0.0 for r in data)
        medians = [r for r in rows if r["seed"] == "median"]
        assert len(medians) == 1 and medians[0]["hausdorff_to_ref"] == 0.0

    def test_numpy_seeds_give_the_int_table(self, rng):
        # ShockParams takes numpy integers as seeds; the medians come from
        # the same per-seed rows either way
        net, grouping, _, spec = instance(rng, n_scen=8)
        params = sv.ShockParams(nu=3.0, beta_by_group=np.array([0.4, 0.2]),
                                rho=0.3, n=20, seed=0)
        tables = [sv.convergence_study(net, grouping, params, spec, n_list=[5, 10],
                                       seeds=seeds, epsilon=0.4, n_ref=20)
                  for seeds in ([0, 1], list(np.arange(2)))]
        assert tables[0] == tables[1]
        medians = [r for r in tables[1] if r["seed"] == "median"]
        assert len(medians) == 2
        assert all(np.isfinite(r["hausdorff_to_ref"]) for r in medians)

    def test_rows_cover_grid_of_cells(self, rng):
        net, grouping, _, spec = instance(rng, n_scen=8)
        params = sv.ShockParams(nu=3.0, beta_by_group=np.array([0.4, 0.2]),
                                rho=0.3, n=20, seed=0)
        rows = sv.convergence_study(
            net, grouping, params, spec, n_list=[5, 10], seeds=[0, 1, 2],
            epsilon=0.4, n_ref=20)
        data = [r for r in rows if isinstance(r["seed"], int)]
        assert len(data) == 6
        assert {r["N"] for r in data} == {5, 10}
        assert all(np.isfinite(r["hausdorff_to_ref"]) for r in data)
        assert all("probe_1" in r and "probe_2" in r for r in rows)

    @pytest.mark.parametrize("n_list, seeds", [([5, 10], []), ([], [0]), ([0, 10], [0]),
                                               ([-5, 10], [0])],
                             ids=["no-seeds", "no-sizes", "size-zero", "size-negative"])
    def test_empty_and_short_requests_are_rejected(self, rng, monkeypatch, n_list, seeds):
        # rejected before any set is computed
        net, grouping, _, spec = instance(rng, n_scen=8)
        params = sv.ShockParams(nu=3.0, beta_by_group=np.array([0.4, 0.2]),
                                rho=0.3, n=20, seed=0)
        monkeypatch.setattr(sysvar.saa, "sample_shocks", None)
        with pytest.raises(ValidationError):
            sv.convergence_study(net, grouping, params, spec, n_list=n_list, seeds=seeds,
                                 epsilon=0.4, n_ref=20)

    def test_default_probes_are_reference_corners(self, rng):
        # per seed: the distance from each sampled set to the reference's
        # ideal corner and to its middle generator
        net, grouping, _, spec = instance(rng, n_scen=8)
        params = sv.ShockParams(nu=3.0, beta_by_group=np.array([0.4, 0.2]),
                                rho=0.3, n=20, seed=0)
        rows = sv.convergence_study(
            net, grouping, params, spec, n_list=[5, 20], seeds=[0, 1],
            epsilon=0.2, n_ref=20)
        for seed in (0, 1):
            full = sv.sample_shocks(sv.ShockParams(
                nu=3.0, beta_by_group=np.array([0.4, 0.2]), rho=0.3, n=20, seed=seed),
                grouping)
            ref = sv.approximate_by_clearing(net, grouping, full, spec, 0.2)
            middle = ref.generators[len(ref.generators) // 2]
            for n in (5, 20):
                approx = sv.approximate_by_clearing(net, grouping, full.head(n), spec, 0.2)
                row = next(r for r in rows if r["seed"] == seed and r["N"] == n)
                assert row["probe_1"] == sv.distance_probe(ref.ideal, approx)
                assert row["probe_2"] == sv.distance_probe(middle, approx)
            # the reference holds its generators but not its ideal corner
            row = next(r for r in rows if r["seed"] == seed and r["N"] == 20)
            assert row["probe_1"] > 0.0 and row["probe_2"] == 0.0
