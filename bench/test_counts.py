"""Reproduce the work counts of the ROADMAP baseline with the benchmark's tracer.

Instance: the criterion-9 network (10 banks, 2 core, m = [[4, 2], [3, 1.5]],
network seed 5), Lomax scales (1, 0.5), scenario seed 0.  The counts are
exact, so they check both the tracer and that the library still does the
same work.  Run with ``python3 -m pytest bench/test_counts.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sysvar as sv  # noqa: E402
import sysvar.saa  # noqa: E402
import sysvar.scalarize  # noqa: E402
from tracing import Tracer  # noqa: E402


def _instance():
    params = sv.BollobasParams(theta=0.2, eta=0.6, zeta=0.2, delta_in=0.5,
                               delta_out=0.5, target_nodes=10, seed=5)
    m = sv.IntergroupLiabilityMatrix(values=np.array([[4.0, 2.0], [3.0, 1.5]]))
    net, grouping = sv.build_liabilities(sv.generate_bollobas(params), 2, m)
    spec = sv.RiskSpec(alpha=0.8 * net.total_obligations, lam=0.2)
    shock = sv.ShockParams(nu=3.0, beta_by_group=np.array([1.0, 0.5]), rho=0.3, n=400, seed=0)
    return net, grouping, sv.sample_shocks(shock, grouping), spec


def _traced(fn):
    tracer = Tracer()
    assert tracer.absent == []
    with tracer.traced_pass():
        fn()
    spans = tracer.passes[0]
    return tracer.pass_metrics(spans), spans


def _parents(spans, name):
    by_id = {s.id: s for s in spans}
    out: dict[str, int] = {}
    for s in spans:
        if s.name == name:
            parent = by_id[s.parent].name
            out[parent] = out.get(parent, 0) + 1
    return out


def test_grid_clearing_counts():
    net, grouping, scen, spec = _instance()
    metrics, spans = _traced(
        lambda: sysvar.saa.approximate_by_clearing(net, grouping, scen, spec, 0.4))
    assert metrics["saa.grid_points"] == 420
    assert metrics["risk.membership_calls"] == 402
    # the grid loop is called directly here, so its oracle calls hang off the root
    assert _parents(spans, "risk.membership") == {"bench.pass": 375, "scalarize.ideal_point": 27}


def test_weighted_sum_counts():
    net, grouping, scen, spec = _instance()
    metrics, spans = _traced(
        lambda: sysvar.scalarize.weighted_sum(net, grouping, scen.head(50), spec,
                                              np.array([1.0, 1.0])))
    assert metrics["mip.bnb_nodes"] == 17
    assert metrics["optim.lp_calls"] == 3710
    assert metrics["clearing.supergradient_calls"] == 3528
    assert _parents(spans, "optim.lp")["clearing.supergradient"] == 3528


def test_missing_binding_is_reported_absent(monkeypatch):
    import tracing
    kept = [b for b in tracing.BINDINGS if b[2] != "optim.qp"]
    monkeypatch.setattr(tracing, "BINDINGS", kept + [
        ("sysvar.mip", "no_such_kernel", "optim.qp", None),
        ("sysvar.no_such_module", "kernel", "shocks.sample", None),
    ])
    tracer = tracing.Tracer()
    assert tracer.absent == ["sysvar.mip.no_such_kernel", "sysvar.no_such_module.kernel"]
    assert tracer.absent_metrics == ["optim.qp_calls", "optim.qp_s"]
    with tracer.traced_pass():
        pass
    metrics, unstable = tracer.summary()
    assert metrics["optim.qp_calls"] == 0 and unstable == []
