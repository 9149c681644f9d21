"""Span recorder that traces the library from outside, per layer.

Every library function a workload reaches is replaced, for the duration of
one traced pass, at each module attribute that callers resolve at call time
(``from .clearing import aggregate_en_many`` binds the name in the importing
module, so each such binding is wrapped separately).  A span records its
name, parent span, start and end; spans stay in memory until the run ends and
are reduced to per-layer metrics afterwards.  Self time is a span's duration
minus the durations of its direct children.  A binding that does not exist
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from contextlib import contextmanager

_IO_READERS = ("read_network", "read_scenarios", "read_approx", "read_edges")
_IO_WRITERS = ("write_network", "write_scenarios", "write_approx", "write_edges",
               "write_table", "dump_json", "dump_json_list")


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _lp(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _bnb(args, kwargs, result):
    return {"nodes": int(result.nodes), "exhausted": result.status == "budget_exhausted"}


def _norm_min(args, kwargs, result):
    # membership of the reference point answers without branch-and-bound
    return {"short_circuit": result.solution is None and result.status == "optimal"}


def _grid(args, kwargs, result):
    return {"points": int(result.size)}


def _sampled(args, kwargs, result):
    return {"scenarios": int(result.n)}


def _written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, note taken from the call and its result)
BINDINGS: list[tuple[str, str, str, object]] = [
    ("sysvar.clearing", "aggregate_en_many", "clearing.aggregate", _rows),
    ("sysvar.risk", "aggregate_en_many", "clearing.aggregate", _rows),
    ("sysvar.mip", "aggregate_en_many", "clearing.aggregate", _rows),
    ("sysvar.clearing", "clearing_fixed_point", "clearing.fixed_point", None),
    ("sysvar.mip", "en_supergradient", "clearing.supergradient", None),
    ("sysvar.clearing", "solve_lp", "optim.lp", _lp),
    ("sysvar.mip", "solve_lp", "optim.lp", _lp),
    ("sysvar.mip", "min_norm_qp", "optim.qp", None),
    ("sysvar.risk", "membership", "risk.membership", None),
    ("sysvar.saa", "membership", "risk.membership", None),
    ("sysvar.scalarize", "membership", "risk.membership", None),
    ("sysvar.scalarize", "branch_and_bound", "mip.bnb", _bnb),
    ("sysvar.saa", "norm_min", "scalarize.norm_min", _norm_min),
    ("sysvar.cli", "norm_min", "scalarize.norm_min", _norm_min),
    ("sysvar.cli", "weighted_sum", "scalarize.weighted_sum", None),
    ("sysvar.saa", "ideal_point", "scalarize.ideal_point", None),
    ("sysvar.cli", "approximate_by_clearing", "saa.grid_algorithm", None),
    ("sysvar.cli", "approximate_by_norm_min", "saa.grid_algorithm", None),
    ("sysvar.saa", "Grid.build", "saa.grid_build", _grid),
    ("sysvar.cli", "sample_shocks", "shocks.sample", _sampled),
    ("sysvar.io", "read_scenarios", "io.read", None),
    *[("sysvar.cli", name, "io.read", None) for name in _IO_READERS],
    *[("sysvar.cli", name, "io.write", _written) for name in _IO_WRITERS],
    ("sysvar.cli", "main", "cli.main", None),
]

# per-layer metric -> (unit, span names it is computed from)
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "clearing.aggregate_calls": ("count", ("clearing.aggregate",)),
    "clearing.aggregate_rows": ("count", ("clearing.aggregate",)),
    "clearing.aggregate_s": ("s", ("clearing.aggregate",)),
    "clearing.ns_per_row": ("ns/row", ("clearing.aggregate",)),
    "clearing.scalar_fallback_calls": ("count", ("clearing.fixed_point",)),
    "clearing.supergradient_calls": ("count", ("clearing.supergradient",)),
    "clearing.supergradient_self_s": ("s", ("clearing.supergradient",)),
    "optim.lp_calls": ("count", ("optim.lp",)),
    "optim.lp_s": ("s", ("optim.lp",)),
    "optim.lp_iterations": ("count", ("optim.lp",)),
    "optim.qp_calls": ("count", ("optim.qp",)),
    "optim.qp_s": ("s", ("optim.qp",)),
    "mip.bnb_calls": ("count", ("mip.bnb",)),
    "mip.bnb_nodes": ("count", ("mip.bnb",)),
    "mip.bnb_self_s": ("s", ("mip.bnb",)),
    "mip.budget_exhausted": ("count", ("mip.bnb",)),
    "risk.membership_calls": ("count", ("risk.membership",)),
    "risk.membership_self_s": ("s", ("risk.membership",)),
    "saa.grid_points": ("count", ("saa.grid_build",)),
    "saa.oracle_calls": ("count", ("saa.grid_algorithm",)),
    "saa.oracle_per_point": ("calls/point", ("saa.grid_algorithm", "saa.grid_build")),
    "saa.self_s": ("s", ("saa.grid_algorithm",)),
    "scalarize.norm_min_calls": ("count", ("scalarize.norm_min",)),
    "scalarize.short_circuits": ("count", ("scalarize.norm_min",)),
    "scalarize.ideal_point_s": ("s", ("scalarize.ideal_point",)),
    "shocks.sample_s": ("s", ("shocks.sample",)),
    "shocks.us_per_scenario": ("us/scenario", ("shocks.sample",)),
    "io.read_s": ("s", ("io.read",)),
    "io.write_s": ("s", ("io.write",)),
    "io.bytes_written": ("bytes", ("io.write",)),
    "cli.self_s": ("s", ("cli.main",)),
}

# metrics that must repeat exactly between passes on the same inputs; bytes
# written are not among them, since each manifest records its wall time
COUNTS = {name for name, (unit, _) in METRICS.items() if unit in ("count", "calls/point")}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "note")

    def __init__(self, span_id: int, parent: int | None, name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.note: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers around one pass and keeps every span of the run."""

    def __init__(self):
        self.passes: list[list[Span]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._spans: list[Span] = []
        self._targets = []
        present: set[str] = set()
        for module_name, attr, name, note in BINDINGS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(leaf)
            if raw is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._targets.append((owner, leaf, raw, self._wrap(raw, name, note)))
            present.add(name)
        self.absent_metrics = sorted(
            metric for metric, (_, sources) in METRICS.items()
            if not any(src in present for src in sources))

    def _wrap(self, raw, name, note):
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self._spans), self._stack[-1], name)
            self._spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return staticmethod(traced) if static else traced

    @contextmanager
    def traced_pass(self):
        """Wrap every present binding while the body runs one pass."""
        self._spans = []
        root = Span(0, None, "bench.pass")
        self._spans.append(root)
        self._stack = [root.id]
        for owner, leaf, _, wrapped in self._targets:
            setattr(owner, leaf, wrapped)
        try:
            yield
        finally:
            root.end = time.perf_counter()
            for owner, leaf, raw, _ in self._targets:
                setattr(owner, leaf, raw)
            self._stack = []
            self.passes.append(self._spans)

    def pass_metrics(self, spans: list[Span]) -> dict[str, float]:
        """Reduce one pass's spans to the per-layer metrics."""
        by_id = {s.id: s for s in spans}
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration

        def named(name):
            return [s for s in spans if s.name == name]

        def total(name):
            return sum(s.duration for s in named(name))

        def self_time(name):
            return sum(s.duration - child_time[s.id] for s in named(name))

        def noted(name, key):
            return sum(s.note.get(key, 0) for s in named(name))

        aggregate_s = total("clearing.aggregate")
        rows = noted("clearing.aggregate", "rows")
        points = noted("saa.grid_build", "points")
        oracle = sum(1 for s in spans
                     if s.name in ("risk.membership", "scalarize.norm_min")
                     and s.parent is not None
                     and by_id[s.parent].name == "saa.grid_algorithm")
        sample_s = total("shocks.sample")
        scenarios = noted("shocks.sample", "scenarios")
        return {
            "clearing.aggregate_calls": len(named("clearing.aggregate")),
            "clearing.aggregate_rows": rows,
            "clearing.aggregate_s": aggregate_s,
            "clearing.ns_per_row": 1e9 * aggregate_s / rows if rows else 0.0,
            "clearing.scalar_fallback_calls": sum(
                1 for s in named("clearing.fixed_point")
                if by_id[s.parent].name == "clearing.aggregate"),
            "clearing.supergradient_calls": len(named("clearing.supergradient")),
            "clearing.supergradient_self_s": self_time("clearing.supergradient"),
            "optim.lp_calls": len(named("optim.lp")),
            "optim.lp_s": total("optim.lp"),
            "optim.lp_iterations": noted("optim.lp", "iterations"),
            "optim.qp_calls": len(named("optim.qp")),
            "optim.qp_s": total("optim.qp"),
            "mip.bnb_calls": len(named("mip.bnb")),
            "mip.bnb_nodes": noted("mip.bnb", "nodes"),
            "mip.bnb_self_s": self_time("mip.bnb"),
            "mip.budget_exhausted": noted("mip.bnb", "exhausted"),
            "risk.membership_calls": len(named("risk.membership")),
            "risk.membership_self_s": self_time("risk.membership"),
            "saa.grid_points": points,
            "saa.oracle_calls": oracle,
            "saa.oracle_per_point": oracle / points if points else 0.0,
            "saa.self_s": self_time("saa.grid_algorithm"),
            "scalarize.norm_min_calls": len(named("scalarize.norm_min")),
            "scalarize.short_circuits": noted("scalarize.norm_min", "short_circuit"),
            "scalarize.ideal_point_s": total("scalarize.ideal_point"),
            "shocks.sample_s": sample_s,
            "shocks.us_per_scenario": 1e6 * sample_s / scenarios if scenarios else 0.0,
            "io.read_s": total("io.read"),
            "io.write_s": total("io.write"),
            "io.bytes_written": noted("io.write", "bytes"),
            "cli.self_s": self_time("cli.main"),
        }

    def summary(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics over all traced passes: counts from the first
        pass, times as medians.  Also returns the counts that differed
        between passes on the same inputs."""
        per_pass = [self.pass_metrics(spans) for spans in self.passes]
        first = per_pass[0]
        unstable = sorted(name for name in COUNTS
                          if any(m[name] != first[name] for m in per_pass[1:]))
        out = {name: (first[name] if name in COUNTS
                      else statistics.median(m[name] for m in per_pass))
               for name in METRICS}
        return out, unstable
