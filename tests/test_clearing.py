import hashlib
import sys
from collections import Counter

import numpy as np
import pytest

import sysvar as sv
import sysvar.clearing as clearing
import sysvar.risk
from sysvar.clearing import polytope_contains
from sysvar.io import read_network, write_network
from sysvar.util import VIOL_TOL, CapacityError, ValidationError, row_block
from conftest import blocks_of, picard_totals, random_network, readme_instance, ring2


_inv = np.linalg.inv


def _break_pattern_inverse(monkeypatch, fake):
    """Make ``np.linalg.inv`` return ``fake(m)`` when called from the
    clearing module; the LP solver inverts its bases with the same function."""
    def patched(m):
        if sys._getframe(1).f_globals["__name__"] == clearing.__name__:
            return fake(m)
        return _inv(m)

    monkeypatch.setattr(clearing.np.linalg, "inv", patched)


def _singular(m):
    raise np.linalg.LinAlgError("forced")


def _count_lp_calls(monkeypatch):
    """Record every payment-LP solve the clearing module makes."""
    calls = []
    solve = clearing.solve_lp
    monkeypatch.setattr(clearing, "solve_lp", lambda lp: calls.append(lp) or solve(lp))
    return calls


def _lp_dual(net, x):
    """The payment LP's row duals at x: a supergradient found without the
    kernel."""
    return clearing._dual_supergradient(clearing._solve_payment_lp(net, x)[1])


class _NoGradient(clearing._PatternSystem):
    """A pattern system with its true inverse but no usable gradient."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        if self.idx.size:
            self.grad = None


class TestEngines:
    def test_fully_solvent_pair(self):
        net = ring2([1.0, 1.0])
        res = sv.clearing_fixed_point(net, np.array([1.0, 1.0]))
        assert np.allclose(res.p, [1.0, 1.0])
        assert res.total_payment == pytest.approx(2.0)
        assert not res.defaults.any()
        assert res.iterations == 1

    def test_one_sided_cash_flow(self):
        net = ring2([2.0, 2.0])
        for engine in (sv.clearing_fixed_point, sv.clearing_lp):
            res = engine(net, np.array([1.0, 0.0]))
            assert np.allclose(res.p, [2.0, 2.0], atol=1e-9)
            assert res.total_payment == pytest.approx(4.0)

    def test_circular_zero_cash(self):
        # fixed points are the whole segment {(t, t)}; both engines return
        # the maximal one
        net = ring2([2.0, 2.0])
        assert np.allclose(sv.clearing_fixed_point(net, np.zeros(2)).p, [2.0, 2.0])
        assert np.allclose(sv.clearing_lp(net, np.zeros(2)).p, [2.0, 2.0])

    def test_rejects_negative_cash(self):
        net = ring2([1.0, 1.0])
        with pytest.raises(ValidationError):
            sv.clearing_fixed_point(net, np.array([-0.1, 1.0]))

    def test_engines_agree_on_random_networks(self, rng):
        from scipy.optimize import linprog

        for _ in range(25):
            d = int(rng.integers(2, 12))
            net = random_network(rng, d)
            x = rng.exponential(0.5, size=d)
            fp = sv.clearing_fixed_point(net, x)
            lp = sv.clearing_lp(net, x)
            assert np.abs(fp.p - lp.p).max() <= 1e-7
            # objective reweighting does not change the optimum: HiGHS on
            # the payment LP with bank 0 weighted 100 times the rest
            weights = np.ones(d) + 99 * (np.arange(d) == 0)
            ref = linprog(-weights, A_ub=np.eye(d) - net.pi.T, b_ub=x,
                          bounds=list(zip(np.zeros(d), net.pbar)), method="highs")
            assert ref.status == 0
            assert np.abs(lp.p - ref.x).max() <= 1e-7

    def test_matches_picard_oracle(self, rng):
        for _ in range(10):
            net = random_network(rng, 5)
            x = rng.exponential(0.4, size=5)
            assert sv.clearing_fixed_point(net, x).total_payment == pytest.approx(
                float(picard_totals(net, x[None, :])[0]), abs=1e-8)


class TestAggregation:
    def test_off_domain_is_minus_infinity(self):
        net = ring2([1.0, 1.0])
        assert sv.aggregate_en(net, np.array([-0.1, 0.5])) == -np.inf

    def test_nan_rows_are_refused(self):
        # a cash flow holding NaN has no total: the batched calls refuse it,
        # as the one-row supergradient and fixed point do, instead of
        # clearing it to a finite number; a negative row still maps to -inf
        net, _, scen, _ = readme_instance()
        x = scen.values[0].copy()
        x[3] = np.nan
        for engine in (sv.aggregate_en, sv.en_supergradient, sv.clearing_fixed_point):
            with pytest.raises(ValidationError):
                engine(net, x)
        for rows in ([4], [4, 7]):
            xs = scen.values.copy()
            xs[7, 0] = -1.0
            xs[rows, 3] = np.nan
            for supergradients in (False, True):
                with pytest.raises(ValidationError):
                    sv.aggregate_en_many(net, xs, supergradients=supergradients)
        xs[rows, 3] = 0.0
        assert sv.aggregate_en_many(net, xs)[7] == -np.inf

    def test_saturates_at_total_obligations(self, rng, monkeypatch):
        # at and above the solvent floor x >= pbar - pi^T pbar every bank
        # pays in full: the row settles in its first round, on the empty
        # pattern, with no payment LP
        calls = _count_lp_calls(monkeypatch)
        nets = [random_network(rng, 6) for _ in range(10)] + [readme_instance()[0]]
        for net in nets:
            floor = np.maximum(net.pbar - net.pi.T @ net.pbar, 0.0)
            xs = np.vstack([floor, floor + rng.exponential(1.0, size=net.d),
                            net.pbar + rng.exponential(1.0, size=net.d)])
            totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
            assert totals.tolist() == [net.total_obligations] * 3
            assert not grads.any()
            for x in xs:
                res = sv.clearing_fixed_point(net, x)
                assert np.array_equal(res.p, net.pbar) and res.iterations == 1
        assert calls == []

    def test_example_value(self):
        net = ring2([2.0, 2.0])
        assert sv.aggregate_en(net, np.array([1.0, 0.0])) == pytest.approx(4.0)

    def test_monotone_and_bounded(self, rng):
        net = random_network(rng, 5)
        for _ in range(60):
            x = rng.exponential(0.4, size=5)
            w = rng.exponential(0.3, size=5)
            a, b = sv.aggregate_en(net, x), sv.aggregate_en(net, x + w)
            assert a <= b + 1e-9
            assert -1e-9 <= a <= net.total_obligations + 1e-9

    def test_midpoint_concavity(self, rng):
        net = random_network(rng, 5)
        for _ in range(60):
            x1 = rng.exponential(0.4, size=5)
            x2 = rng.exponential(0.4, size=5)
            mid = sv.aggregate_en(net, (x1 + x2) / 2)
            assert mid >= (sv.aggregate_en(net, x1) + sv.aggregate_en(net, x2)) / 2 - 1e-9

    def test_batched_matches_scalar(self, rng):
        net = random_network(rng, 6)
        xs = rng.exponential(0.5, size=(200, 6))
        batch = sv.aggregate_en_many(net, xs)
        single = np.array([sv.aggregate_en(net, x) for x in xs])
        assert np.array_equal(batch, single)


class TestSupergradient:
    def test_zero_on_flat_region(self, rng):
        net = random_network(rng, 4)
        mu = sv.en_supergradient(net, net.pbar + 5.0)
        assert np.allclose(mu, 0.0, atol=1e-9)

    def test_finite_differences_at_smooth_points(self, rng):
        net = random_network(rng, 4)
        h = 1e-5
        checked = 0
        while checked < 6:
            x = rng.exponential(0.5, size=4) + 0.2
            mu = sv.en_supergradient(net, x)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                up = sv.aggregate_en(net, x + e)
                dn = sv.aggregate_en(net, x - e)
                fwd = (up - sv.aggregate_en(net, x)) / h
                bwd = (sv.aggregate_en(net, x) - dn) / h
                if abs(fwd - bwd) > 1e-6:
                    continue  # kink: supergradient need not match the average
                assert (up - dn) / (2 * h) == pytest.approx(mu[i], abs=1e-6)
            checked += 1

    def test_global_inequality_on_sampled_pairs(self, rng):
        net = random_network(rng, 5)
        for _ in range(100):
            x = rng.exponential(0.5, size=5)
            x2 = rng.exponential(0.5, size=5)
            mu = sv.en_supergradient(net, x)
            lhs = sv.aggregate_en(net, x2)
            rhs = sv.aggregate_en(net, x) + mu @ (x2 - x)
            assert lhs <= rhs + 1e-8

    def test_lp_fallback_when_pattern_solve_fails(self, rng, monkeypatch):
        # the closed form rejects a singular defaulter system (a closed class)
        ring = ring2([2.0, 2.0])
        system = clearing._PatternSystem(ring.pi, ring.pbar, np.array([True, True]))
        assert system.inv is None and system.grad is None

        net = random_network(rng, 5)
        xs = rng.exponential(0.5, size=(30, 5))
        defaulting = sum(sv.clearing_lp(net, x).defaults.any() for x in xs)
        assert defaulting > 0
        lp_calls = _count_lp_calls(monkeypatch)
        monkeypatch.setattr(clearing, "_PatternSystem", _NoGradient)
        # first a usable inverse without a usable gradient, then an inverse
        # that raises, is not finite, or has negative column sums: either
        # way each defaulting row falls back and takes its total and duals
        # from exactly one payment LP
        for fake in (None, _singular, lambda m: np.full(m.shape, np.nan), lambda m: -_inv(m)):
            if fake is not None:
                _break_pattern_inverse(monkeypatch, fake)
            bare = sv.FinancialNetwork(d=5, pi=net.pi, pbar=net.pbar)
            solves = 0
            for x in xs:
                lp_calls.clear()
                totals, grads = sv.aggregate_en_many(bare, x[None, :], supergradients=True)
                mu = grads[0]
                solves += len(lp_calls)
                if lp_calls:
                    assert totals[0] == clearing._solve_payment_lp(net, x)[0].sum()
                    assert np.array_equal(mu, _lp_dual(net, x))
                x2 = rng.exponential(0.5, size=5)
                rhs = sv.aggregate_en(bare, x) + mu @ (x2 - x)
                assert sv.aggregate_en(bare, x2) <= rhs + 1e-8
            assert solves == defaulting

    def test_row_missed_by_picard_seed(self, monkeypatch):
        # banks 0 and 1 form a cycle leaking 0.2% per step to bank 2, so
        # three Picard steps from pbar show banks 0 and 1 short but move
        # their payments by well under 1%; the pattern solve drains the
        # cycle to half its obligations, and only then does bank 2, fed by
        # the leak, join the default set, in a later round, with no
        # payment LP
        pi = np.array([[0.0, 1.0, 0.0, 0.0], [0.998, 0.0, 0.002, 0.0],
                       [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        net = sv.FinancialNetwork(d=4, pi=pi, pbar=np.array([1.0, 1.0, 0.0015, 0.001]))
        x = np.array([0.0, 0.0, 0.0, 3e-4])
        patterns = []
        calls = _count_lp_calls(monkeypatch)
        system = clearing._pattern_system
        monkeypatch.setattr(clearing, "_pattern_system", lambda cache, pi, pbar, mask:
                            patterns.append(np.flatnonzero(mask).tolist())
                            or system(cache, pi, pbar, mask))
        mu = sv.en_supergradient(net, x)
        assert len(calls) == 0
        assert patterns[:2] == [[0, 1], [0, 1, 2]]
        assert sv.clearing_lp(net, x).defaults.tolist() == [True, True, True, False]
        # the three seed steps from pbar, then one round per pattern
        assert sv.clearing_fixed_point(net, x).iterations == 5
        assert np.allclose(mu, _lp_dual(net, x), atol=1e-9)
        rng = np.random.default_rng(3)
        for x2 in x + rng.uniform(-3e-4, 3e-3, size=(50, 4)):
            x2 = np.maximum(x2, 0.0)
            rhs = sv.aggregate_en(net, x) + mu @ (x2 - x)
            assert sv.aggregate_en(net, x2) <= rhs + 1e-8

    @staticmethod
    def _fallback_instance(rng):
        net = random_network(rng, 6)
        xs = rng.exponential(0.3, size=(40, 6))
        xs[:3] += net.pbar          # fully solvent: no solve, no fallback
        xs[3, 0] = -1.0             # off the domain
        refs = [sv.clearing_lp(net, x) for x in np.maximum(xs, 0.0)]
        expected = sum(ref.defaults.any() for ref in refs[4:])
        assert expected > 30
        ref_totals = np.array([ref.total_payment for ref in refs])
        ref_totals[3] = -np.inf
        return net, xs, expected, ref_totals

    def test_every_row_falls_back_when_solve_raises(self, rng, monkeypatch):
        # every pattern's inverse fails to build, so every row with a
        # defaulter takes its total from one payment LP
        net, xs, expected, ref_totals = self._fallback_instance(rng)
        _break_pattern_inverse(monkeypatch, _singular)
        calls = _count_lp_calls(monkeypatch)
        totals = sv.aggregate_en_many(net, xs)
        assert len(calls) == expected
        assert totals[3] == -np.inf
        keep = np.arange(40) != 3
        assert np.abs(totals[keep] - ref_totals[keep]).max() <= 1e-9

    def test_out_of_range_rows_fall_back(self, rng, monkeypatch):
        # a negated inverse gives defaulters negative payments, which send
        # their rows to the payment LP; rows without defaulters still
        # settle in the kernel
        net, xs, expected, ref_totals = self._fallback_instance(rng)
        _break_pattern_inverse(monkeypatch, lambda m: -_inv(m))
        calls = _count_lp_calls(monkeypatch)
        totals = sv.aggregate_en_many(net, xs)
        assert len(calls) == expected
        assert np.abs(totals[4:] - ref_totals[4:]).max() <= 1e-9
        assert totals[:3].tolist() == [net.total_obligations] * 3

    def test_fixed_point_returns_the_lp_answer_on_fallback(self, rng, monkeypatch):
        # a row the kernel hands to the payment LP reports the LP's
        # payments and defaults, from that one solve
        net, xs, expected, _ = self._fallback_instance(rng)
        refs = [sv.clearing_lp(net, x) for x in xs[4:]]
        _break_pattern_inverse(monkeypatch, _singular)
        calls = _count_lp_calls(monkeypatch)
        for x, ref in zip(xs[4:], refs):
            res = sv.clearing_fixed_point(net, x)
            assert np.array_equal(res.p, ref.p)
            assert np.array_equal(res.defaults, ref.defaults)
            assert res.total_payment == ref.total_payment
        assert len(calls) == expected


class TestPatternSystems:
    def test_zero_budget_stores_nothing_and_changes_no_bit(self, rng, monkeypatch):
        net = random_network(rng, 7)
        xs = rng.exponential(0.4, size=(300, 7))
        totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
        assert net.derived.entries and net.derived.nbytes > 0
        monkeypatch.setattr(clearing, "_PATTERN_BUDGET_BYTES", 0)
        bare = sv.FinancialNetwork(d=7, pi=net.pi, pbar=net.pbar)
        for _ in range(2):
            totals0, grads0 = sv.aggregate_en_many(bare, xs, supergradients=True)
            assert np.array_equal(totals0, totals)
            assert np.array_equal(grads0, grads)
            assert bare.derived.entries == {} and bare.derived.nbytes == 0

    def test_network_arrays_are_read_only_copies(self, rng):
        # rows just above the solvent floor, where the one-step masks and
        # the range bound decide, so a stale constant would show
        pi = random_network(rng, 6).pi.copy()
        pbar = rng.uniform(0.5, 3.0, size=6)
        net = sv.FinancialNetwork(d=6, pi=pi, pbar=pbar)
        floor = net.pbar - net.pi.T @ net.pbar
        xs = rng.exponential(0.4, size=(200, 6))
        xs[:60] = np.maximum(floor, 0.0) * rng.uniform(0.98, 1.05, size=(60, 6))
        totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
        # an in-place edit of the network's arrays is refused
        for arr in (net.pi, net.pbar):
            with pytest.raises(ValueError):
                arr[0] = 2.0
        # an edit to the caller's arrays does not reach the network
        kept_pi, kept_pbar = pi.copy(), pbar.copy()
        pi[0, 1:] = rng.dirichlet(np.ones(5))
        pbar *= 2.0
        assert np.array_equal(net.pi, kept_pi) and np.array_equal(net.pbar, kept_pbar)
        # the constants built with the network equal a fresh network's
        fresh = sv.FinancialNetwork(d=6, pi=kept_pi, pbar=kept_pbar)
        for name in ("one_step", "short_at", "pay_cap", "total"):
            assert np.array_equal(getattr(net.derived, name), getattr(fresh.derived, name))
        totals0, grads0 = sv.aggregate_en_many(fresh, xs, supergradients=True)
        assert np.array_equal(totals, totals0)
        assert np.array_equal(grads, grads0, equal_nan=True)

    def test_cache_is_not_part_of_the_network_value(self, rng, tmp_path):
        net = random_network(rng, 5)
        other = sv.FinancialNetwork(d=5, pi=net.pi, pbar=net.pbar)
        text = repr(other)
        sv.aggregate_en_many(net, rng.exponential(0.4, size=(50, 5)))
        assert net.derived.entries
        assert net == other and repr(net) == text
        assert "derived" not in text
        grouping = sv.Grouping(g=2, assignment=np.array([0, 0, 1, 1, 1]))
        write_network(str(tmp_path / "a.json"), net, grouping)
        write_network(str(tmp_path / "b.json"), other, grouping)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        back, _ = read_network(str(tmp_path / "a.json"))
        assert np.array_equal(back.pi, net.pi) and np.array_equal(back.pbar, net.pbar)
        assert back.derived.entries == {}


class TestRowBlocks:
    """Blocks of 7 rows give the bits of one block of at least N rows."""

    @pytest.mark.parametrize("path", ["fallback", "dual"])
    def test_kernel_totals_and_supergradients(self, rng, monkeypatch, path):
        net = random_network(rng, 6)
        xs = rng.exponential(0.3, size=(40, 6))
        floor = net.pbar - net.pi.T @ net.pbar
        # each kind of row on both sides of a block edge (7, 14, 21, 28)
        xs[[6, 7], 2] = -1.0                            # off the domain
        xs[[13, 14]] = np.maximum(floor, 0.0) + 0.1     # all solvent
        # only bank b is short one step from pbar, and every other bank
        # holds more cash than b's whole shortfall, so no Picard step shows
        # it short: these rows start and settle on the one-defaulter
        # pattern {b}
        b = int(np.argmax(floor))
        xs[[20, 21, 27]] = np.maximum(floor, 0.0) + floor[b] + 0.1
        xs[[20, 21, 27], b] = 0.0
        if path == "fallback":
            # one-defaulter patterns are singular: their rows fall back to
            # the payment LP
            _break_pattern_inverse(
                monkeypatch, lambda m: _singular(m) if m.shape == (1, 1) else _inv(m))
        else:
            # patterns without a usable gradient send their rows to the
            # payment LP, for their totals and duals
            monkeypatch.setattr(clearing, "_PatternSystem", _NoGradient)
        calls = _count_lp_calls(monkeypatch)
        runs = []
        for rows in (7, 40):
            blocks_of(monkeypatch, rows)
            calls.clear()
            bare = sv.FinancialNetwork(d=6, pi=net.pi, pbar=net.pbar)
            totals, grads = sv.aggregate_en_many(bare, xs, supergradients=True)
            solved = [k for k, x in enumerate(xs)
                      if any(np.array_equal(lp.b_ub, x) for lp in calls)]
            runs.append((totals.tobytes(), grads.tobytes(), solved))
        assert runs[0] == runs[1]
        assert {20, 21, 27} <= set(runs[0][2])
        assert np.isinf(totals[[6, 7]]).all() and np.isnan(grads[[6, 7]]).all()
        assert totals[[13, 14]].tolist() == [net.total_obligations] * 2

    def test_readme_sample_totals_and_supergradients_are_pinned(self):
        # the README network on sample-shocks --n 7000 --seed 36, which
        # spans three blocks of 3,276 rows: the kernel's totals and
        # supergradients keep their bits whatever default mask a row's
        # rounds start from
        net, _, scen, _ = readme_instance(n=7000, seed=36)
        assert scen.n > 2 * row_block(net.d)
        totals, grads = sv.aggregate_en_many(net, scen.values, supergradients=True)
        digest = hashlib.sha256(totals.tobytes() + grads.tobytes()).hexdigest()
        assert digest == "e123e5cd5c067ae063fa3858d5afb5a55398cd26d6fb1a5ca278ea9045cdbf2d"

    def test_readme_sample_payments_are_pinned(self):
        # the one-row path on the same sample: clearing_fixed_point's
        # payments on its first 200 rows, each a defaulting row, keep their
        # bits
        net, _, scen, _ = readme_instance(n=7000, seed=36)
        payments = np.stack([sv.clearing_fixed_point(net, x).p for x in scen.values[:200]])
        assert (payments < net.pbar - 1e-9).any(axis=1).all()
        digest = hashlib.sha256(payments.tobytes()).hexdigest()
        assert digest == "3410e43159748487b63d9be176ab4f8bacb6a6bfae51ad455d133d402f94f4fb"

    @pytest.mark.parametrize("labelled", [False, True])
    def test_membership(self, monkeypatch, labelled):
        net, grouping, scen, spec = readme_instance(n=100)
        box = sv.z_bounds(net, grouping, scen)
        middle = np.array([150.0, 30.0])
        # alpha on one row's total at the middle point, so the Picard
        # bounds leave that row to the kernel there; near the total
        # obligations the upper bound fails rows by itself
        shifted = np.maximum(scen.values + grouping.spread(middle), 0.0)
        specs = [sv.RiskSpec(alpha=alpha, lam=spec.lam) for alpha in (
            float(clearing.aggregate_en_many(net, shifted)[50]) + VIOL_TOL,
            0.99 * net.total_obligations)]
        # about a fifth of the rows leave the orthant below each group's quantile
        least = np.stack([scen.values[:, grouping.assignment == j].min(axis=1)
                          for j in range(grouping.g)], axis=1)
        outside = -np.quantile(least, 0.2, axis=0)
        zs = [box.hi, middle, outside, (box.lo + box.hi) / 2, middle + 1.0, box.lo]
        kernel = Counter()
        raw = sysvar.risk.aggregate_en_many

        def spy(net, xs, *args, **kwargs):
            kernel["calls"] += 1
            return raw(net, xs, *args, **kwargs)

        monkeypatch.setattr(sysvar.risk, "aggregate_en_many", spy)
        runs = []
        for rows in (7, scen.n):
            blocks_of(monkeypatch, rows)
            kernel.clear()
            run = []
            for spec in specs:
                labels = sysvar.risk._ScenarioLabels(scen.n, grouping.g) if labelled else None
                results = [sv.membership(net, grouping, scen, spec, z, labels) for z in zs]
                counts = (() if labels is None else
                          (labels.rows_cleared, labels.rows_decided, labels.rows_bounded))
                run.append((results, counts))
            runs.append((run, kernel["calls"]))
        assert runs[0] == runs[1]
        ((near_row, _), (near_total, _)), calls = runs[0]
        assert calls > 0
        assert 0 < near_row[2].violation_fraction < 1 and not near_row[2].accepted
        assert near_total[1].violation_fraction == 1.0

    def test_sampler(self, monkeypatch):
        params = sv.ShockParams(nu=3.0, beta_by_group=np.array([100.0, 50.0]), rho=0.3,
                                n=40, seed=11)
        grouping = sv.Grouping(g=2, assignment=np.array([0, 0, 1, 1, 1]))
        values = []
        for rows in (7, 40):
            blocks_of(monkeypatch, rows)
            values.append(sv.sample_shocks(params, grouping).values.tobytes())
        assert values[0] == values[1]


class TestEnumeration:
    def test_circular_example(self):
        net = ring2([2.0, 2.0])
        polys = sv.enumerate_clearing_vectors(net, np.zeros(2))
        by_pattern = {tuple(p.y): p for p in polys}
        assert (0, 0) in by_pattern and (1, 1) in by_pattern
        # default-default pattern carries the segment p1 = p2 in [0, 2]
        seg = by_pattern[(0, 0)]
        for t in np.linspace(0, 2, 9):
            assert polytope_contains(seg, np.array([t, t]), net.pbar)
        assert not polytope_contains(seg, np.array([1.0, 0.5]), net.pbar)
        # full-payment pattern pins the single point (2, 2)
        top = by_pattern[(1, 1)]
        assert polytope_contains(top, np.array([2.0, 2.0]), net.pbar)
        assert not polytope_contains(top, np.array([1.9, 1.9]), net.pbar, tol=1e-3)

    def test_fully_solvent_unique_pattern(self):
        net = ring2([1.0, 1.0])
        polys = sv.enumerate_clearing_vectors(net, np.array([1.0, 1.0]))
        assert [tuple(p.y) for p in polys] == [(1, 1)]
        assert polytope_contains(polys[0], np.array([1.0, 1.0]), net.pbar)

    def test_patterns_and_equalities_match_a_per_bank_loop(self, rng):
        # the equality rows written out bank by bank: full payment where
        # y_i = 1, exact pass-through where y_i = 0, patterns in mask order;
        # zero cash leaves more than one pattern
        seen = 0
        for d, zero in [(2, True), (4, True), (6, True), (4, False), (6, False)]:
            net = random_network(rng, d, pbar_range=(0.5, 1.5))
            x = np.zeros(d) if zero else rng.exponential(0.3, size=d)
            flow = np.eye(d) - net.pi.T
            polys = sv.enumerate_clearing_vectors(net, x)
            masks = [sum(int(v) << i for i, v in enumerate(p.y)) for p in polys]
            assert masks == sorted(masks)
            seen += len(polys)
            for poly in polys:
                rows, rhs = [], []
                for i in range(d):
                    if poly.y[i] == 1:
                        rows.append(np.eye(d)[i])
                        rhs.append(net.pbar[i])
                    else:
                        rows.append(flow[i])
                        rhs.append(x[i])
                assert poly.y.dtype.kind == "i"
                assert np.vstack(rows).tobytes() == poly.a_eq.tobytes()
                assert np.asarray(rhs).tobytes() == poly.b_eq.tobytes()
        assert seen > 5

    def test_patterns_match_highs_on_the_written_rows(self, rng):
        # every pattern's written system, 0 <= p <= pbar with a_ub p <= b_ub,
        # is feasible for HiGHS exactly when the enumeration lists it: zero
        # cash, cash at the solvency floor (p = pbar sits on every face the
        # floor reaches) and random cash, on random networks and the ring
        from scipy.optimize import linprog

        def floor(net):
            return np.maximum(net.pbar - net.pi.T @ net.pbar, 0.0)

        cases = [(ring2([2.0, 2.0]), np.zeros(2)), (ring2([1.0, 3.0]), np.array([0.5, 0.0]))]
        for d, cash in [(2, "zero"), (3, "floor"), (4, "random"), (5, "zero"),
                        (6, "floor"), (6, "half"), (8, "random"), (10, "zero")]:
            net = random_network(rng, d, pbar_range=(0.5, 1.5))
            x = {"zero": np.zeros(d), "floor": floor(net),
                 "random": rng.exponential(0.3, size=d),
                 "half": np.where(np.arange(d) % 2, rng.exponential(0.3, size=d), 0.0)}[cash]
            cases.append((net, x))
        cases.append((ring2([2.0, 2.0]), floor(ring2([2.0, 2.0]))))
        listed_total = 0
        for net, x in cases:
            d = net.d
            listed = {tuple(p.y) for p in sv.enumerate_clearing_vectors(net, x)}
            flow = np.eye(d) - net.pi.T
            q = float(np.max(net.pi.T @ net.pbar + x))
            for y in (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1:
                ref = linprog(np.zeros(d), A_ub=np.vstack([flow, -np.eye(d), -flow]),
                              b_ub=np.concatenate([x, -net.pbar * y, q * y - x]),
                              bounds=list(zip(np.zeros(d), net.pbar)), method="highs")
                assert ref.status in (0, 2)
                assert (tuple(y) in listed) == (ref.status == 0), (d, y.tolist())
            listed_total += len(listed)
        assert listed_total > 2 * len(cases)

    def test_capacity_guard(self, rng):
        net = random_network(rng, 13)
        with pytest.raises(CapacityError):
            sv.enumerate_clearing_vectors(net, np.ones(13))

    def test_union_matches_brute_force_scan(self, rng):
        tol = 1e-6
        for _ in range(5):
            net = random_network(rng, 3, pbar_range=(0.5, 1.5))
            x = rng.exponential(0.3, size=3)
            polys = sv.enumerate_clearing_vectors(net, x)
            axes = [np.linspace(0, b, 30) for b in net.pbar]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
            inflow = pts @ net.pi + x
            clearing = (
                (pts <= inflow + tol).all(axis=1)
                & ((pts >= net.pbar - tol) | (np.abs(pts - inflow) <= tol)).all(axis=1)
            )
            in_union = np.zeros(len(pts), dtype=bool)
            for poly in polys:
                ok = (pts @ poly.a_ub.T <= poly.b_ub + tol).all(axis=1)
                ok &= (np.abs(pts @ poly.a_eq.T - poly.b_eq) <= tol).all(axis=1)
                in_union |= ok
            assert np.array_equal(clearing, in_union)
