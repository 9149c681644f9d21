import numpy as np
import pytest

import sysvar as sv
import sysvar.optim
from sysvar.optim import LinearProgram, min_norm_qp, solve_lp
from sysvar.risk import CapitalBox
from sysvar.util import SolverError, ValidationError, required_hits
from conftest import (
    exp_scenarios,
    random_network,
    ring2,
    subset_oracle_weighted,
    two_group_split,
)


def dual_objective(lp: LinearProgram, res) -> float:
    """Bound-adjusted dual objective: duals.b plus, over the nonbasic
    structurals, reduced cost times the active bound.  Equals the primal
    objective at optimality."""
    total = float(np.asarray(lp.b_ub, dtype=float) @ res.duals_ub)
    sgn = 1.0 if lp.sense == "min" else -1.0
    for j, red in enumerate(res.reduced_costs):
        r = sgn * red
        if abs(r) <= 1e-11:
            continue
        total += sgn * r * (lp.lower[j] if r > 0 else lp.upper[j])
    return total


def readme_payment_lp() -> LinearProgram:
    """The payment LP of the README network (gen-network --seed 7) at the
    first cash-flow row of scenario seed 494."""
    graph = sv.generate_bollobas(sv.BollobasParams(
        theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5, delta_out=0.5,
        target_nodes=20, seed=7))
    net, grouping = sv.build_liabilities(graph, 4, sv.IntergroupLiabilityMatrix(
        values=np.array([[400.0, 200.0], [300.0, 150.0]])))
    x = sv.sample_shocks(sv.ShockParams(
        nu=3.0, beta_by_group=np.array([100.0, 50.0]), rho=0.3, n=10, seed=494),
        grouping).values[0]
    return LinearProgram(c=np.ones(net.d), a_ub=np.eye(net.d) - net.pi.T, b_ub=x,
                         lower=np.zeros(net.d), upper=net.pbar, sense="max")


def corner_feasible_rows(rng, m: int, lower: np.ndarray, upper: np.ndarray):
    """Random rows a x <= b that a box corner, lower or upper at random,
    satisfies: each right side is lifted to the corner's row value where
    the corner would violate it, so the corner is tight on those rows."""
    a = rng.normal(size=(m, lower.size))
    corner = lower if rng.random() < 0.5 else upper
    return a, np.maximum(rng.normal(size=m) + 0.5, a @ corner)


def agree_with_highs(rng) -> None:
    """Solve 300 random box-bounded LPs that a box corner satisfies with
    solve_lp and with HiGHS; assert HiGHS finds each optimal, with the same
    objective, and that strong duality holds."""
    from scipy.optimize import linprog

    for _ in range(300):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 10))
        lower = -2 * rng.random(n)
        upper = 2 * rng.random(n)
        a, b = corner_feasible_rows(rng, m, lower, upper)
        lp = LinearProgram(c=rng.normal(size=n), a_ub=a, b_ub=b, lower=lower, upper=upper)
        res = solve_lp(lp)
        ref = linprog(
            lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub,
            bounds=list(zip(lower, upper)), method="highs")
        assert ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
        assert res.objective == pytest.approx(dual_objective(lp, res), abs=1e-6)


class TestSolveLp:
    def test_single_binding_constraint(self):
        res = solve_lp(LinearProgram(
            c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([3.0]),
            lower=np.array([0.0]), upper=np.array([10.0]), sense="max"))
        assert res.x[0] == pytest.approx(3.0)
        assert res.objective == pytest.approx(3.0)

    def test_infeasible_and_infinite_bound(self):
        # an infeasible program has no feasible corner, and an empty box
        # none either: both are refused
        with pytest.raises(ValidationError, match="neither box corner"):
            solve_lp(LinearProgram(
                c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([-1.0]),
                lower=np.array([0.0]), upper=np.array([10.0])))
        with pytest.raises(ValidationError, match="lower bound exceeds"):
            solve_lp(LinearProgram(c=np.array([1.0]), lower=np.array([1.0]),
                                   upper=np.array([0.0])))
        with pytest.raises(ValidationError):
            solve_lp(LinearProgram(
                c=np.array([1.0]), lower=np.array([0.0]), upper=np.array([np.inf]),
                sense="max"))

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_non_finite_bounds_rejected(self, bad):
        lower = np.array([0.0, bad])
        with pytest.raises(ValidationError):
            solve_lp(LinearProgram(c=np.ones(2), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                                   lower=lower, upper=np.ones(2)))
        with pytest.raises(ValidationError):
            CapitalBox(lower, np.ones(2))

    def test_step_without_blocking_bound_raises(self, monkeypatch):
        # from the lower corner, the step that frees x0 >= 0 meets the row
        # x0 + x1 <= 1 and the bound x0 <= 2 at rate 1, which a pivot
        # tolerance of 2 counts as zero, so nothing blocks it
        monkeypatch.setattr(sysvar.optim, "_PIVOT_TOL", 2.0)
        with pytest.raises(SolverError, match="no bound"):
            solve_lp(LinearProgram(
                c=np.array([-1.0, 0.0]), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                lower=np.zeros(2), upper=np.full(2, 2.0)))

    def test_result_does_not_depend_on_uninitialized_memory(self, monkeypatch):
        # every nonbasic column starts with a defined status: whatever bytes a
        # fresh int8 array holds, the payment LP takes the same pivots
        ref = solve_lp(readme_payment_lp())
        empty = np.empty
        for fill in range(4):
            def filled(shape, dtype=float, *args, **kwargs):
                out = empty(shape, dtype, *args, **kwargs)
                if out.dtype == np.int8:
                    out.fill(fill)
                return out

            monkeypatch.setattr(sysvar.optim.np, "empty", filled)
            res = solve_lp(readme_payment_lp())
            monkeypatch.setattr(sysvar.optim.np, "empty", empty)
            assert res.iterations == ref.iterations
            assert np.array_equal(res.x, ref.x)
            assert np.array_equal(res.duals_ub, ref.duals_ub)

    def test_iteration_cap_and_singular_active_set_raise(self, monkeypatch):
        lp = LinearProgram(c=np.array([-1.0, 0.0]), a_ub=np.ones((1, 2)), b_ub=np.ones(1),
                           lower=np.zeros(2), upper=np.full(2, 2.0))
        with monkeypatch.context() as patch:
            patch.setattr(sysvar.optim, "_MAX_ITER", 0)
            with pytest.raises(SolverError, match="iteration cap"):
                solve_lp(lp)

        def singular(_):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(sysvar.optim.np.linalg, "inv", singular)
        with pytest.raises(SolverError, match="singular active set"):
            solve_lp(lp)

    def test_a_feasible_corner_needs_no_phase_one(self, monkeypatch):
        # the payment LP starts at p = 0, and a cut LP whose lower corner
        # is cut off starts at the box top
        from scipy.optimize import linprog

        starts = []
        vertex = sysvar.optim._vertex
        monkeypatch.setattr(sysvar.optim, "_vertex",
                            lambda *args: starts.append(args[3].tolist()) or vertex(*args))
        lp = readme_payment_lp()
        res = solve_lp(lp)
        assert starts == [[0.0] * lp.c.size]
        ref = linprog(-lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub,
                      bounds=list(zip(lp.lower, lp.upper)), method="highs")
        assert res.objective == pytest.approx(-ref.fun, rel=1e-9)
        assert res.duals_ub.min() >= 0.0
        assert res.objective == pytest.approx(dual_objective(lp, res), rel=1e-9)
        starts.clear()
        res = solve_lp(LinearProgram(c=np.ones(2), a_ub=-np.ones((1, 2)), b_ub=np.array([-1.0]),
                                     lower=np.zeros(2), upper=np.full(2, 2.0)))
        assert starts == [[2.0, 2.0]] and res.objective == pytest.approx(1.0)

    def test_clearing_lp_value(self):
        net = ring2([2.0, 2.0])
        res = solve_lp(LinearProgram(
            c=np.ones(2), a_ub=np.eye(2) - net.pi.T, b_ub=np.array([1.0, 0.0]),
            lower=np.zeros(2), upper=net.pbar.copy(), sense="max"))
        assert res.objective == pytest.approx(4.0)

    def test_strong_duality_on_random_programs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 9))
            lower = -2 * rng.random(n)
            upper = 2 * rng.random(n)
            a, b = corner_feasible_rows(rng, m, lower, upper)
            lp = LinearProgram(
                c=rng.normal(size=n),
                a_ub=a,
                b_ub=b,
                lower=lower,
                upper=upper,
                sense="min" if rng.random() < 0.5 else "max",
            )
            res = solve_lp(lp)
            assert abs(res.objective - dual_objective(lp, res)) <= 1e-6

    def test_matches_reference_solver(self, rng):
        # cross-check objective values against an unrelated implementation
        # on random boxes and inequalities
        agree_with_highs(rng)

    @pytest.mark.parametrize("knob, value", [("_BLAND_TRIGGER", 0), ("_REFACTOR_EVERY", 1)],
                             ids=["bland-from-the-start", "refresh-every-step"])
    def test_forced_paths_match_reference_solver(self, monkeypatch, rng, knob, value):
        # Bland's rule on every step, and the inverse recomputed after every
        # rank-one update, reach the same optima
        monkeypatch.setattr(sysvar.optim, knob, value)
        agree_with_highs(rng)

    def test_neither_corner_feasible_raises(self, monkeypatch):
        # x0 - x1 <= -1 cuts off both corners of [0, 2]^2 though (0, 1) is
        # feasible, and the reversed row as well leaves nothing feasible:
        # both are refused before any vertex step
        calls = []
        vertex = sysvar.optim._vertex
        monkeypatch.setattr(sysvar.optim, "_vertex",
                            lambda *args: calls.append(args[2]) or vertex(*args))
        box = dict(lower=np.zeros(2), upper=np.full(2, 2.0))
        for a, b in ((np.array([[1.0, -1.0]]), np.array([-1.0])),
                     (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-1.0, -1.0]))):
            with pytest.raises(ValidationError, match="neither box corner"):
                solve_lp(LinearProgram(c=np.ones(2), a_ub=a, b_ub=b, **box))
        assert calls == []


class TestMinNormQp:
    def test_interior_point_is_fixed(self):
        res = min_norm_qp(np.array([0.2, 0.3]), None, None,
                          CapitalBox(np.zeros(2), np.ones(2)))
        assert res.distance == 0.0
        assert np.allclose(res.z, [0.2, 0.3])

    def test_orthant_corner(self):
        res = min_norm_qp(np.array([0.0, 0.0]),
                          np.array([[-1.0, 0.0], [0.0, -1.0]]),
                          np.array([-1.0, -1.0]),
                          CapitalBox(np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
        assert np.allclose(res.z, [1.0, 1.0])
        assert res.distance == pytest.approx(np.sqrt(2.0))

    def test_kkt_certificate_in_any_dimension(self, rng):
        projected = 0
        for _ in range(400):
            g = int(rng.integers(1, 9))
            a = rng.normal(size=(int(rng.integers(1, 3 * g + 2)), g))
            a *= rng.choice([1e-3, 1.0, 10.0], size=(len(a), 1))
            b = a @ rng.uniform(0.2, 0.8, size=g) + rng.uniform(0.0, 0.3, size=len(a))
            if rng.random() < 0.4:
                k = rng.integers(0, len(a), size=2)
                a, b = np.vstack([a, a[k]]), np.concatenate([b, b[k]])
            v = rng.uniform(-3.0, 3.0, size=g) * rng.choice([1.0, 100.0])
            res = min_norm_qp(v, a, b, CapitalBox(np.full(g, -1.0), np.full(g, 1.5)))
            assert_kkt(v, a, b, np.full(g, -1.0), np.full(g, 1.5), res)
            projected += res.distance > 0
        assert projected > 300

    def test_reused_box_gives_the_bits_of_a_fresh_one(self, rng):
        # one box per dimension serves every call, as in a branch-and-bound
        # solve; duplicated cut rows, points inside the region and calls
        # without cuts are mixed in.  Both also match the reference
        # formulation bit for bit, which pins the NNLS column order
        def fresh(g):
            return CapitalBox(np.full(g, -1.0), np.full(g, 1.5))

        boxes = {g: fresh(g) for g in range(1, 9)}
        inside = projected = 0
        for _ in range(400):
            g = int(rng.integers(1, 9))
            a = rng.normal(size=(int(rng.integers(1, 3 * g + 2)), g))
            a *= rng.choice([1e-3, 1.0, 10.0], size=(len(a), 1))
            c = rng.uniform(0.2, 0.8, size=g)
            b = a @ c + rng.uniform(0.0, 0.3, size=len(a))
            if rng.random() < 0.4:
                k = rng.integers(0, len(a), size=2)
                a, b = np.vstack([a, a[k]]), np.concatenate([b, b[k]])
            if rng.random() < 0.1:
                a = b = None
            v = c if rng.random() < 0.2 else rng.uniform(-3.0, 3.0, size=g)
            shared = min_norm_qp(v, a, b, boxes[g])
            alone = min_norm_qp(v, a, b, fresh(g))
            ref = reference_projection(v, a, b, np.full(g, -1.0), np.full(g, 1.5))
            for res in (alone, ref):
                assert shared.z.tobytes() == res.z.tobytes()
                assert shared.distance.hex() == res.distance.hex()
            inside += shared.distance == 0.0
            projected += shared.distance > 0.0
        assert inside > 50 and projected > 250
        for g, box in boxes.items():
            assert box.rows.tobytes() == fresh(g).rows.tobytes()
            assert box.rhs.tobytes() == fresh(g).rhs.tobytes()
            with pytest.raises(ValueError):
                box.rows[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_box_rejects_non_finite_bounds(self, bad):
        with pytest.raises(ValidationError):
            CapitalBox(np.array([0.0, bad]), np.ones(2))
        with pytest.raises(ValidationError):
            CapitalBox(np.zeros(2), np.array([bad, 1.0]))

    def test_box_and_point_dimensions_must_agree(self):
        with pytest.raises(ValidationError):
            CapitalBox(np.zeros(2), np.ones(3))
        with pytest.raises(ValidationError):
            min_norm_qp(np.zeros(3), None, None, CapitalBox(np.zeros(2), np.ones(2)))

    def test_singular_gram_takes_residual_path(self, monkeypatch):
        # duplicated rows give NNLS identical columns, so splitting a freed
        # column's weight with its twin is an equally optimal solution whose
        # passive Gram system is exactly singular
        nnls = sysvar.optim._nnls

        def split(e):
            w = nnls(e)
            j = int(np.argmax(w))
            twins = np.flatnonzero(np.all(e == e[:, [j]], axis=0))
            assert twins.size == 2
            w[twins] = w[j] / 2
            return w

        monkeypatch.setattr(sysvar.optim, "_nnls", split)
        grams = []
        solve = np.linalg.solve

        def spy(gram, rhs):
            grams.append(gram)
            return solve(gram, rhs)

        monkeypatch.setattr(sysvar.optim.np.linalg, "solve", spy)
        a = np.array([[-1.0, -2.0], [1.0, 0.0], [-1.0, -2.0]])
        b = np.array([-2.0, 3.0, -2.0])
        v = np.array([0.0, 0.0])
        lo, hi = np.full(2, -5.0), np.full(2, 5.0)
        res = min_norm_qp(v, a, b, CapitalBox(lo, hi))
        assert len(grams) == 1 and np.linalg.matrix_rank(grams[0]) == 1
        assert_kkt(v, a, b, lo, hi, res)
        assert np.allclose(res.z, [0.4, 0.8], atol=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sysvar.optim, "_NNLS_ROUNDS_PER_ROW", 0)
        with pytest.raises(SolverError):
            min_norm_qp(np.zeros(2), np.array([[-1.0, -1.0]]), np.array([-1.0]),
                        CapitalBox(np.zeros(2), np.ones(2)))

    def test_matches_dense_grid_scan(self, rng):
        for _ in range(5):
            a = rng.normal(size=(10, 2))
            b = a @ rng.uniform(0.2, 0.8, size=2) + rng.uniform(0.05, 0.3, size=10)
            lo, hi = np.array([-1.0, -1.0]), np.array([1.5, 1.5])
            v = rng.uniform(-1.0, 1.5, size=2)
            res = min_norm_qp(v, a, b, CapitalBox(lo, hi))
            step = 1e-3
            xs = np.arange(lo[0], hi[0] + step, step)
            ys = np.arange(lo[1], hi[1] + step, step)
            best = np.inf
            for start in range(0, len(xs), 300):
                zz = np.stack(np.meshgrid(xs[start:start + 300], ys, indexing="ij"),
                              -1).reshape(-1, 2)
                ok = (zz @ a.T <= b + 1e-12).all(axis=1)
                if ok.any():
                    best = min(best, float(np.linalg.norm(zz[ok] - v, axis=1).min()))
            assert res.distance == pytest.approx(best, abs=2e-3)

    def test_infeasible_region_raises(self):
        with pytest.raises(ValidationError):
            min_norm_qp(np.zeros(2),
                        np.array([[1.0, 0.0], [-1.0, 0.0]]),
                        np.array([-1.0, -1.0]),
                        CapitalBox(np.full(2, -5.0), np.full(2, 5.0)))


def reference_projection(v, a, b, lower, upper):
    """The projector written out per call: box rows built and stacked after
    the cut rows, per axis z_j <= upper_j then -z_j <= -lower_j, and every
    norm taken with np.linalg.norm."""
    g = v.size
    big_a = np.zeros((2 * g, g))
    big_a[2 * np.arange(g), np.arange(g)] = 1.0
    big_a[2 * np.arange(g) + 1, np.arange(g)] = -1.0
    big_b = np.column_stack([upper, -lower]).ravel()
    if a is not None:
        big_a, big_b = np.vstack([a, big_a]), np.concatenate([b, big_b])
    if np.all(big_a @ v <= big_b + 1e-9):
        return sysvar.optim.QpResult(z=v.copy(), distance=0.0)
    slack = big_b - big_a @ v
    scale = float(np.abs(slack).max())
    big_e = np.vstack([-big_a.T, -slack[None, :] / scale])
    norms = np.linalg.norm(big_e, axis=0)
    big_e /= np.where(norms > 0.0, norms, 1.0)
    w = sysvar.optim._nnls(big_e)
    r = big_e @ w
    r[g] -= 1.0
    assert np.linalg.norm(r) > sysvar.optim._EMPTY_TOL
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
    return sysvar.optim.QpResult(z=z, distance=float(np.linalg.norm(v - z)))


def assert_kkt(v, a, b, lower, upper, res):
    """Certificate for the projection of v onto {a z <= b, lower <= z <= upper}:
    z is feasible and z = v - A^T lam for multipliers lam >= 0 supported on
    the tight rows (complementary slackness)."""
    g = v.size
    big_a = np.vstack([a, np.eye(g), -np.eye(g)])
    big_b = np.concatenate([b, upper, -lower])
    z = res.z
    slack = big_b - big_a @ z
    assert slack.min() >= -1e-9
    assert res.distance == pytest.approx(float(np.linalg.norm(v - z)), abs=1e-12)
    tight = slack <= 1e-7 * max(1.0, float(np.abs(big_b).max()))
    lam = np.zeros(big_a.shape[0])
    lam[tight] = np.linalg.lstsq(big_a[tight].T, v - z, rcond=None)[0]
    assert lam.min() >= -1e-10
    assert np.allclose(big_a.T @ lam, v - z, rtol=0.0, atol=1e-8 * max(1.0, np.abs(v).max()))


def toy_model(rng, n_scen=4, lam=0.25, quadratic=False):
    net = random_network(rng, 4, pbar_range=(0.5, 2.0))
    grouping = two_group_split(rng, 4)
    scen = exp_scenarios(rng, n_scen, 4, 0.3)
    box = sv.z_bounds(net, grouping, scen)
    kwargs = dict(
        net=net, grouping=grouping, scenarios=scen,
        spec=sv.RiskSpec(alpha=0.85 * net.total_obligations, lam=lam), box=box,
    )
    if quadratic:
        kwargs["center"] = box.lo - 0.5
    else:
        kwargs["weights"] = np.array([1.0, 1.0])
    return sv.ScenarioMip(**kwargs), box


class TestBranchAndBound:
    def test_single_scenario_reduces_to_lp(self, rng):
        net = random_network(rng, 3)
        grouping = two_group_split(rng, 3)
        scen = exp_scenarios(rng, 1, 3, 0.3)
        box = sv.z_bounds(net, grouping, scen)
        spec = sv.RiskSpec(alpha=0.8 * net.total_obligations, lam=0.3)
        model = sv.ScenarioMip(
            net=net, grouping=grouping, scenarios=scen, spec=spec, box=box,
            weights=np.array([1.0, 1.0]))
        sol = sv.branch_and_bound(model)
        oracle = subset_oracle_weighted(
            net, grouping, scen, spec, np.array([1.0, 1.0]), box)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(oracle, abs=1e-7)
        assert sol.y.sum() == 1

    def test_matches_subset_enumeration(self, rng):
        for _ in range(8):
            model, box = toy_model(rng, n_scen=int(rng.integers(4, 8)),
                                   lam=float(rng.uniform(0.2, 0.5)))
            sol = sv.branch_and_bound(model)
            oracle = subset_oracle_weighted(
                model.net, model.grouping, model.scenarios, model.spec,
                model.weights, box)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(oracle, abs=1e-6)
            assert sol.gap <= 1e-6

    def test_vacuous_chance_constraint(self, rng):
        lam = 1.0 - 1e-12
        model, box = toy_model(rng, n_scen=3, lam=lam)
        assert required_hits(3, lam) == 0
        sol = sv.branch_and_bound(model)
        assert sol.objective == pytest.approx(float(model.weights @ box.lo))

    def test_infeasible_when_alpha_exceeds_obligations(self, rng):
        model, _ = toy_model(rng)
        bad = sv.ScenarioMip(
            net=model.net, grouping=model.grouping, scenarios=model.scenarios,
            spec=sv.RiskSpec(alpha=model.net.total_obligations + 1e-3, lam=model.spec.lam),
            box=model.box, weights=model.weights)
        assert sv.branch_and_bound(bad).status == "infeasible"

    def test_incumbent_trace_monotone_and_deterministic(self, rng):
        model, _ = toy_model(rng, n_scen=6, lam=0.4)
        sol1 = sv.branch_and_bound(model)
        sol2 = sv.branch_and_bound(model)
        values = [obj for _, obj in sol1.incumbent_trace]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert sol1.objective == sol2.objective
        assert np.array_equal(sol1.z, sol2.z)
        assert sol1.nodes == sol2.nodes

    def test_solution_passes_membership(self, rng):
        for quadratic in (False, True):
            model, _ = toy_model(rng, n_scen=5, lam=0.35, quadratic=quadratic)
            sol = sv.branch_and_bound(model)
            assert sv.membership(model.net, model.grouping, model.scenarios,
                                 model.spec, sol.z).accepted

    def test_node_budget_flagged(self, rng):
        model, _ = toy_model(rng, n_scen=8, lam=0.5)
        sol = sv.branch_and_bound(model, node_budget=1)
        assert sol.status in ("optimal", "budget_exhausted")
        if sol.status == "budget_exhausted":
            assert np.isfinite(sol.objective)

    def test_matches_reference_milp_at_scale(self, rng):
        # independent mixed-integer reference on instances too large for
        # subset enumeration
        from scipy.optimize import milp, LinearConstraint, Bounds

        for _ in range(5):
            d = int(rng.integers(5, 9))
            n = int(rng.integers(15, 25))
            net = random_network(rng, d, pbar_range=(0.5, 2.0))
            grouping = two_group_split(rng, d)
            scen = exp_scenarios(rng, n, d, 0.3)
            spec = sv.RiskSpec(alpha=float(rng.uniform(0.75, 0.92)) * net.total_obligations,
                               lam=float(rng.uniform(0.2, 0.5)))
            w = rng.uniform(0.1, 1.0, size=2)
            box = sv.z_bounds(net, grouping, scen)
            mine = sv.weighted_sum(net, grouping, scen, spec, w)

            g = grouping.g
            ncols = g + n * d + n
            y0 = g + n * d
            c = np.zeros(ncols)
            c[:g] = w
            flow = np.eye(d) - net.pi.T
            assignment = np.asarray(grouping.assignment)
            rows, lbs, ubs = [], [], []
            for k in range(n):
                a = np.zeros((d, ncols))
                a[:, g + k * d: g + (k + 1) * d] = flow
                a[np.arange(d), assignment] = -1.0
                rows.append(a)
                lbs.append(np.full(d, -np.inf))
                ubs.append(scen.values[k])
                agg = np.zeros(ncols)
                agg[g + k * d: g + (k + 1) * d] = 1.0
                agg[y0 + k] = -spec.alpha
                rows.append(agg[None, :])
                lbs.append(np.zeros(1))
                ubs.append(np.full(1, np.inf))
            chance = np.zeros(ncols)
            chance[y0:] = 1.0
            rows.append(chance[None, :])
            from sysvar.util import required_hits
            lbs.append(np.full(1, float(required_hits(n, spec.lam))))
            ubs.append(np.full(1, np.inf))
            lower = np.concatenate([box.lo, np.zeros(n * d), np.zeros(n)])
            upper = np.concatenate([box.hi, np.tile(net.pbar, n), np.ones(n)])
            integrality = np.zeros(ncols)
            integrality[y0:] = 1
            ref = milp(
                c,
                constraints=LinearConstraint(np.vstack(rows),
                                             np.concatenate(lbs),
                                             np.concatenate(ubs)),
                bounds=Bounds(lower, upper),
                integrality=integrality,
            )
            assert ref.status == 0
            assert mine.value == pytest.approx(ref.fun, abs=5e-6)
