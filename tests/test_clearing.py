import sys

import numpy as np
import pytest

import sysvar as sv
import sysvar.clearing as clearing
from sysvar.clearing import polytope_contains
from sysvar.io import read_network, write_network
from sysvar.util import CapacityError, ValidationError
from conftest import picard_totals, random_network, ring2


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


class TestEngines:
    def test_fully_solvent_pair(self):
        net = ring2([1.0, 1.0])
        res = sv.clearing_fixed_point(net, np.array([1.0, 1.0]))
        assert np.allclose(res.p, [1.0, 1.0])
        assert res.total_payment == pytest.approx(2.0)
        assert not res.defaults.any()

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
        for _ in range(25):
            d = int(rng.integers(2, 12))
            net = random_network(rng, d)
            x = rng.exponential(0.5, size=d)
            fp = sv.clearing_fixed_point(net, x)
            lp = sv.clearing_lp(net, x)
            assert np.abs(fp.p - lp.p).max() <= 1e-7
            # objective reweighting does not change the optimum
            lp2 = sv.clearing_lp(net, x, f_weights=np.ones(d) + 99 * (np.arange(d) == 0))
            assert np.abs(lp.p - lp2.p).max() <= 1e-7

    def test_singular_defaulter_solve_falls_back_to_picard(self, rng, monkeypatch):
        nets = [random_network(rng, 6) for _ in range(5)]
        xs = [rng.exponential(0.3, size=6) for _ in range(5)]
        refs = [sv.clearing_lp(net, x).p for net, x in zip(nets, xs)]
        calls = []
        picard = clearing._picard_subsystem

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(clearing.np.linalg, "solve", singular)
        monkeypatch.setattr(clearing, "_picard_subsystem",
                            lambda *args: calls.append(args) or picard(*args))
        for net, x, ref in zip(nets, xs, refs):
            res = sv.clearing_fixed_point(net, x)
            assert res.defaults.any()
            assert np.abs(res.p - ref).max() <= 1e-9
        assert len(calls) >= len(nets)

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

    def test_saturates_at_total_obligations(self, rng):
        for _ in range(10):
            net = random_network(rng, 6)
            x = net.pbar + rng.exponential(1.0, size=6)
            assert sv.aggregate_en(net, x) == pytest.approx(net.total_obligations, abs=1e-9)

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
        # stacked-rhs solves may differ from per-row solves by ulps
        assert np.abs(batch - single).max() <= 1e-10


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

        lp_calls = []
        lp = clearing._lp_supergradient
        monkeypatch.setattr(clearing, "_lp_supergradient",
                            lambda net, x: lp_calls.append(x) or lp(net, x))
        net = random_network(rng, 5)
        xs = rng.exponential(0.5, size=(30, 5))
        defaulting = sum(sv.clearing_fixed_point(net, x).defaults.any() for x in xs)
        assert defaulting > 0
        # an inverse that raises, is not finite, or has negative column sums
        for fake in (_singular, lambda m: np.full(m.shape, np.nan), lambda m: -_inv(m)):
            _break_pattern_inverse(monkeypatch, fake)
            bare = sv.FinancialNetwork(d=5, pi=net.pi, pbar=net.pbar)
            lp_calls.clear()
            for x in xs:
                x2 = rng.exponential(0.5, size=5)
                mu = sv.en_supergradient(bare, x)
                rhs = sv.aggregate_en(bare, x) + mu @ (x2 - x)
                assert sv.aggregate_en(bare, x2) <= rhs + 1e-8
            assert len(lp_calls) == defaulting

    def test_row_missed_by_picard_seed(self, monkeypatch):
        # banks 0 and 1 form a cycle leaking 1% per round, so one step from
        # pbar shows only bank 0 short; bank 1 and then bank 2 (fed by the
        # leak) join the default set in later rounds, with no scalar engine
        pi = np.array([[0.0, 1.0, 0.0, 0.0], [0.99, 0.0, 0.01, 0.0],
                       [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        net = sv.FinancialNetwork(d=4, pi=pi, pbar=np.array([1.0, 1.0, 0.005, 0.001]))
        net.validate()
        x = np.array([0.0, 0.0, 0.0, 3e-4])
        calls, patterns = [], []
        engine = clearing.clearing_fixed_point
        system = clearing._pattern_system
        monkeypatch.setattr(clearing, "clearing_fixed_point",
                            lambda net, x: calls.append(x) or engine(net, x))
        monkeypatch.setattr(clearing, "_pattern_system", lambda cache, pi, pbar, mask:
                            patterns.append(np.flatnonzero(mask).tolist())
                            or system(cache, pi, pbar, mask))
        mu = sv.en_supergradient(net, x)
        assert len(calls) == 0
        assert patterns[:3] == [[0], [0, 1], [0, 1, 2]]
        assert engine(net, x).defaults.tolist() == [True, True, True, False]
        assert np.allclose(mu, clearing._lp_supergradient(net, x), atol=1e-9)
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

    def _count_fallbacks(self, monkeypatch):
        calls = []
        engine = clearing.clearing_fixed_point
        monkeypatch.setattr(clearing, "clearing_fixed_point",
                            lambda net, x: calls.append(x) or engine(net, x))
        return calls

    def test_every_row_falls_back_when_solve_raises(self, rng, monkeypatch):
        # every pattern's inverse fails to build, so every row with a
        # defaulter goes to the scalar engine
        net, xs, expected, ref_totals = self._fallback_instance(rng)
        _break_pattern_inverse(monkeypatch, _singular)
        calls = self._count_fallbacks(monkeypatch)
        totals = sv.aggregate_en_many(net, xs)
        assert len(calls) == expected
        assert totals[3] == -np.inf
        keep = np.arange(40) != 3
        assert np.abs(totals[keep] - ref_totals[keep]).max() <= 1e-9

    def test_out_of_range_rows_fall_back(self, rng, monkeypatch):
        # a negated inverse gives defaulters negative payments, which send
        # their rows to the scalar engine; rows without defaulters still
        # settle in the kernel
        net, xs, expected, ref_totals = self._fallback_instance(rng)
        _break_pattern_inverse(monkeypatch, lambda m: -_inv(m))
        calls = self._count_fallbacks(monkeypatch)
        totals = sv.aggregate_en_many(net, xs)
        assert len(calls) == expected
        assert np.abs(totals[4:] - ref_totals[4:]).max() <= 1e-9
        assert totals[:3].tolist() == [net.total_obligations] * 3


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

    def test_in_place_edit_of_pbar_resets_the_cache(self, rng):
        net = random_network(rng, 6)
        xs = rng.exponential(0.4, size=(200, 6))
        sv.aggregate_en_many(net, xs, supergradients=True)
        net.pbar[:] = net.pbar * rng.uniform(0.5, 1.5, size=6)
        net.pi[0, 1:] = rng.dirichlet(np.ones(5))
        fresh = sv.FinancialNetwork(d=6, pi=net.pi.copy(), pbar=net.pbar.copy())
        totals, grads = sv.aggregate_en_many(net, xs, supergradients=True)
        totals0, grads0 = sv.aggregate_en_many(fresh, xs, supergradients=True)
        assert np.array_equal(totals, totals0)
        assert np.array_equal(grads, grads0)
        assert np.array_equal(net.derived.pbar, net.pbar)

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
