import numpy as np
import pytest

import sysvar as sv
from sysvar.util import ValidationError


def bparams(**kw):
    base = dict(theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5, delta_out=0.5,
                target_nodes=20, seed=7)
    base.update(kw)
    return sv.BollobasParams(**base)


class TestGenerator:
    def test_probabilities_must_normalize(self):
        with pytest.raises(ValidationError):
            sv.generate_bollobas(bparams(theta=0.3))

    def test_target_nodes_positive(self):
        with pytest.raises(ValidationError):
            sv.generate_bollobas(bparams(target_nodes=0))

    def test_rejects_processes_that_cannot_grow(self):
        with pytest.raises(ValidationError):
            sv.generate_bollobas(bparams(theta=0.0, eta=1.0, zeta=0.0, target_nodes=5))
        # target 1 is fine even without growth events
        g = sv.generate_bollobas(bparams(theta=0.0, eta=1.0, zeta=0.0, target_nodes=1))
        assert g.n == 1

    def test_pure_new_node_rule(self):
        # theta = 1 forces the new-node-with-out-edge event every step
        g = sv.generate_bollobas(bparams(theta=1.0, eta=0.0, zeta=0.0, target_nodes=3))
        assert g.n == 3
        creation = [e for e in g.edges[1:]]
        out_deg = np.zeros(3)
        for s, _ in creation:
            out_deg[s] += 1
        # every added node is the source of exactly its own creation edge
        assert all(s == i + 1 for i, (s, _) in enumerate(creation))
        assert np.all(out_deg[1:] == 1)

    def test_node_count_and_determinism(self):
        p = bparams()
        g1 = sv.generate_bollobas(p)
        g2 = sv.generate_bollobas(p)
        assert g1.n == 20
        assert g1.edges == g2.edges
        assert sv.generate_bollobas(bparams(seed=8)).edges != g1.edges

    def test_rule_one_frequency_matches_theta(self):
        # theta=0.5, zeta=0.5: every step adds a node, either as edge source
        # (rule i) or edge target (rule iii); frequency must track theta
        theta = 0.5
        hits = 0
        total = 0
        for seed in range(500):
            g = sv.generate_bollobas(bparams(
                theta=theta, eta=0.0, zeta=0.5, target_nodes=50, seed=seed))
            next_new = 1
            for s, t in g.edges[1:]:
                if s == next_new:
                    hits += 1
                elif t != next_new:
                    raise AssertionError("step added no new node under eta=0")
                next_new += 1
                total += 1
        fraction = hits / total
        sigma = np.sqrt(theta * (1 - theta) / total)
        assert abs(fraction - theta) <= 3 * sigma


class TestLiabilities:
    def test_hand_built_two_node_example(self):
        graph = sv.DirectedMultigraph(n=2, edges=((0, 1), (1, 0)))
        m = sv.IntergroupLiabilityMatrix(values=np.array([[400.0, 200.0],
                                                          [300.0, 150.0]]))
        net, grouping = sv.build_liabilities(graph, core_size=1, intergroup=m)
        assert np.array_equal(grouping.assignment, [0, 1])
        assert np.allclose(net.pbar, [200.0, 300.0])
        assert np.allclose(net.pi, [[0.0, 1.0], [1.0, 0.0]])

    def test_benchmark_shape(self):
        g = sv.generate_bollobas(bparams())
        m = sv.IntergroupLiabilityMatrix(values=np.array([[400.0, 200.0],
                                                          [300.0, 150.0]]))
        net, grouping = sv.build_liabilities(g, core_size=4, intergroup=m)
        assert net.d == 20
        assert grouping.sizes.tolist() == [4, 16]
        assert np.all(net.pbar > 0)
        assert np.abs(net.pi.sum(axis=1) - 1.0).max() <= 1e-12

    def test_empty_adjacency_rejected(self):
        graph = sv.DirectedMultigraph(n=3, edges=((0, 0),))
        m = sv.IntergroupLiabilityMatrix(values=np.ones((2, 2)))
        with pytest.raises(ValidationError):
            sv.build_liabilities(graph, core_size=1, intergroup=m)

    def test_repair_gives_every_node_obligations(self):
        # node 2 has no outgoing edge; repair must add one liability
        graph = sv.DirectedMultigraph(n=3, edges=((0, 1), (1, 0), (0, 2)))
        m = sv.IntergroupLiabilityMatrix(values=np.array([[4.0, 2.0], [3.0, 1.5]]))
        net, _ = sv.build_liabilities(graph, core_size=1, intergroup=m)
        assert np.all(net.pbar > 0)
        with pytest.raises(ValidationError):
            sv.build_liabilities(graph, core_size=1, intergroup=m, repair=False)

    def test_row_sums_exact(self, rng):
        for seed in range(5):
            g = sv.generate_bollobas(bparams(seed=seed, target_nodes=15))
            m = sv.IntergroupLiabilityMatrix(values=np.array([[4.0, 2.0], [3.0, 1.5]]))
            net, _ = sv.build_liabilities(g, core_size=3, intergroup=m)
            assert np.abs(net.pi.sum(axis=1) - 1.0).max() <= 1e-12

    def test_equality_compares_array_values(self):
        pi = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.25, 0.75, 0.0]])
        pbar = np.array([1.0, 2.0, 3.0])
        net = sv.FinancialNetwork(d=3, pi=pi, pbar=pbar)
        assert net == sv.FinancialNetwork(d=3, pi=pi.copy(), pbar=pbar.copy())
        assert net != sv.FinancialNetwork(d=3, pi=pi, pbar=2 * pbar)
        assert net != sv.FinancialNetwork(d=3, pi=pi[[1, 2, 0]][:, [1, 2, 0]], pbar=pbar)
        assert net != sv.FinancialNetwork(d=2, pi=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                          pbar=pbar[:2])
        assert net != (3, pi, pbar)


class TestStats:
    def test_star(self):
        a = np.zeros((3, 3))
        a[1, 0] = a[2, 0] = 1
        st = sv.network_stats(a, sv.Grouping(g=2, assignment=np.array([0, 1, 1])))
        assert st.avg_degree == pytest.approx(2 / 3)
        assert st.density == pytest.approx(1 / 3)
        assert st.cpi == pytest.approx(1.0)

    def test_complete_graph_with_two_core(self):
        a = np.ones((4, 4)) - np.eye(4)
        st = sv.network_stats(a, sv.Grouping(g=2, assignment=np.array([0, 0, 1, 1])))
        assert st.density == pytest.approx(1.0)
        assert st.cpi == pytest.approx(5 / 6)

    def test_zero_edges_reports_nan(self):
        a = np.zeros((3, 3))
        st = sv.network_stats(a, sv.Grouping(g=2, assignment=np.array([0, 1, 1])))
        assert np.isnan(st.cpi) and np.isnan(st.cpe)
        assert st.avg_degree == 0.0

    def test_cpi_range_and_pp_characterization(self, rng):
        for seed in range(8):
            g = sv.generate_bollobas(bparams(seed=seed, target_nodes=12))
            a = g.simple_adjacency()
            if a.sum() == 0:
                continue
            grouping = sv.core_periphery_grouping(a, 3)
            st = sv.network_stats(a, grouping)
            assert 0.0 <= st.cpi <= 1.0
            peri = np.asarray(grouping.assignment) == 1
            pp = a[np.ix_(peri, peri)].sum()
            assert (st.cpi == 1.0) == (pp == 0)

    def test_degree_and_core_structure_grow_with_eta(self):
        # aggregate trend over seeds: more edge events mean denser graphs and
        # a stronger core-periphery structure (error down, endpoint index up)
        means = []
        for eta in (0.1, 0.45, 0.8):
            ad, cpi, cpe = [], [], []
            for seed in range(60):
                p = bparams(theta=0.1, eta=eta, zeta=0.9 - eta, target_nodes=20,
                            seed=seed)
                g = sv.generate_bollobas(p)
                a = g.simple_adjacency()
                st = sv.network_stats(a, sv.core_periphery_grouping(a, 4))
                ad.append(st.avg_degree)
                cpi.append(st.cpi)
                cpe.append(st.cpe)
            means.append((np.mean(ad), np.mean(cpi), np.mean(cpe)))
        assert means[0][0] < means[1][0] < means[2][0]
        assert means[0][2] > means[1][2] > means[2][2]
        assert means[2][1] > means[0][1]
