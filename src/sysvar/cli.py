"""Command-line interface.

Subcommands cover the full pipeline: network generation, shock sampling,
clearing, enumeration of clearing vectors, scalarizations, grid-search set
approximation, convergence studies, network statistics, and plot-data
extraction.  Exit codes: 0 success, 2 validation error, 3 infeasibility,
4 solver capacity (including a branch-and-bound node budget exhausted before
optimality was proven).  Every run writes a manifest with the configuration, a
config hash, library versions, and wall time; numeric artifacts embed the
configuration but never timestamps or solver step counts, so reruns are
byte-identical and a solver change moves an artifact only through its
results.  ``clear`` records its solver's step count in the manifest.

A process that calls ``main`` many times builds the parser once and keeps
the last network file a command parsed (``read_network``).  A later command
whose network file holds the same bytes reuses that network and grouping,
with the pattern systems the clearing kernel cached on them, so it builds
none of them again.  The file is read in full by every command and its
bytes compared, so a rewritten file is always parsed anew; the objects are
read-only and the cached systems are those a fresh build gives, so the
artifacts are a fresh process's.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .clearing import clearing_fixed_point, clearing_lp, enumerate_clearing_vectors
from .io import (
    dump_json,
    dump_json_list,
    network_from_bytes,
    read_approx,
    read_edges,
    read_lines,
    read_scenarios,
    staircase_rows,
    write_approx,
    write_edges,
    write_network,
    write_scenarios,
    write_table,
)
from .network import (
    BollobasParams,
    FinancialNetwork,
    Grouping,
    IntergroupLiabilityMatrix,
    build_liabilities,
    core_periphery_grouping,
    generate_bollobas,
    network_stats,
)
from .risk import RiskSpec
from .saa import approximate_by_clearing, approximate_by_norm_min, convergence_study
from .scalarize import norm_min, weighted_sum
from .shocks import ShockParams, sample_shocks
from .util import CapacityError, SolverError, ValidationError, log_event

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4

# the last network file a command parsed in this process: its bytes, then
# the network and grouping built from them
_last_network: tuple[bytes, FinancialNetwork, Grouping] | None = None


class _JsonLineFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        try:
            json.loads(msg)
            return msg
        except (json.JSONDecodeError, ValueError):
            return json.dumps({"event": "log", "level": record.levelname, "message": msg})


def _numbers(text: str, kind) -> list:
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from exc


def _floats(text: str) -> list[float]:
    return _numbers(text, float)


def _ints(text: str) -> list[int]:
    return _numbers(text, int)


def read_network(path: str) -> tuple[FinancialNetwork, Grouping]:
    """The network file at path, as every command reads it.  The file is
    read in full every time.  When its bytes equal those of the last file
    parsed, that file's objects are returned, with the pattern systems the
    clearing kernel cached on them; otherwise the bytes are parsed
    (``io.network_from_bytes``, as ``io.read_network`` parses them) and
    kept."""
    global _last_network
    with open(path, "rb") as fh:
        raw = fh.read()
    if _last_network is None or _last_network[0] != raw:
        _last_network = (raw, *network_from_bytes(raw, path))
    return _last_network[1], _last_network[2]


def _read_x(arg: str, d: int) -> np.ndarray:
    text = arg
    if os.path.exists(arg):
        rows = read_lines(arg)
        if rows and rows[0].split(",")[0].strip() == "x1":
            rows = rows[1:]
        if not rows:
            raise ValidationError(f"{arg} contains no cash-flow row")
        text = rows[0]
    x = np.asarray(_floats(text), dtype=float)
    if x.shape != (d,):
        raise ValidationError(f"--x holds {x.size} values for a network of {d} banks")
    return x


def _risk_spec(args, net) -> RiskSpec:
    # the parser requires exactly one of --alpha and --alpha-frac
    if args.alpha is not None:
        return RiskSpec(alpha=args.alpha, lam=args.lam)
    return RiskSpec(alpha=args.alpha_frac * net.total_obligations, lam=args.lam)


def _shock_params(args, n: int) -> ShockParams:
    return ShockParams(nu=args.nu, beta_by_group=np.asarray(_floats(args.beta)),
                       rho=args.rho, n=n, seed=args.seed)


def _provenance(args: argparse.Namespace) -> dict:
    # runtime-only knobs do not determine the artifact and are excluded so
    # reruns stay byte-identical whatever --threads or --log-level says
    skip = {"func", "threads", "log_level"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return {"tool": "sysvar", "version": __version__, "config": config}


def _manifest(args: argparse.Namespace, artifacts: list[str], started: float,
              solver: dict | None) -> None:
    prov = _provenance(args)
    blob = json.dumps(prov["config"], sort_keys=True, default=str).encode()
    manifest = {
        "subcommand": args.command,
        "config": prov["config"],
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "versions": {
            "sysvar": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.monotonic() - started,
        "artifacts": artifacts,
    }
    if solver is not None:
        manifest["solver"] = solver
    out = getattr(args, "out", None)
    if out:
        dump_json(out + ".manifest.json", manifest)


# -- subcommand implementations ---------------------------------------------


def _cmd_gen_network(args) -> int:
    m = _floats(args.m)
    if len(m) != 4:
        raise ValidationError("--m expects four comma-separated values (2x2, row-major)")
    inter = IntergroupLiabilityMatrix(values=np.reshape(m, (2, 2)))
    graph = generate_bollobas(BollobasParams(
        theta=args.theta, eta=args.eta, zeta=args.zeta,
        delta_in=args.delta_in, delta_out=args.delta_out,
        target_nodes=args.nodes, seed=args.seed,
    ))
    net, grouping = build_liabilities(graph, args.core_size, inter,
                                       repair=not args.no_repair)
    write_network(args.out, net, grouping, provenance=_provenance(args))
    if args.graph_out:
        write_edges(args.graph_out, graph)
    return EXIT_OK


def _cmd_sample_shocks(args) -> int:
    net, grouping = read_network(args.network)
    scen = sample_shocks(_shock_params(args, args.n), grouping)
    write_scenarios(args.out, scen)
    return EXIT_OK


def _cmd_clear(args) -> tuple[int, dict]:
    net, _ = read_network(args.network)
    x = _read_x(args.x, net.d)
    if args.method == "fp":
        res = clearing_fixed_point(net, x)
    else:
        res = clearing_lp(net, x)
    dump_json(args.out, {
        "method": args.method,
        "p": res.p,
        "defaults": res.defaults.astype(int),
        "total_payment": res.total_payment,
        "provenance": _provenance(args),
    })
    return EXIT_OK, {"iterations": res.iterations}


def _cmd_enumerate(args) -> int:
    net, _ = read_network(args.network)
    x = _read_x(args.x, net.d)
    polys = enumerate_clearing_vectors(net, x)
    # fixed schema: a bare list of systems; provenance lives in the manifest
    dump_json_list(args.out, [
        {"y": p.y, "A_eq": p.a_eq, "b_eq": p.b_eq, "A_ub": p.a_ub, "b_ub": p.b_ub}
        for p in polys
    ])
    return EXIT_OK


def _cmd_scalarize(args) -> int:
    net, grouping = read_network(args.network)
    scen = read_scenarios(args.scenarios)
    spec = _risk_spec(args, net)
    if (args.weights is None) == (args.point is None):
        raise ValidationError("provide exactly one of --weights or --point")
    if args.weights is not None:
        res = weighted_sum(net, grouping, scen, spec,
                           np.asarray(_floats(args.weights)))
        payload = {"mode": "weighted_sum", "status": res.status,
                   "value": res.value, "z": res.z}
    else:
        res = norm_min(net, grouping, scen, spec, np.asarray(_floats(args.point)))
        payload = {"mode": "norm_min", "status": res.status,
                   "distance": res.value, "z": res.z}
    if res.solution is not None:
        payload["nodes"] = res.solution.nodes
        payload["gap"] = res.solution.gap
    payload["alpha"] = spec.alpha
    payload["lambda"] = spec.lam
    payload["provenance"] = _provenance(args)
    dump_json(args.out, payload)
    if res.status == "budget_exhausted":
        # the artifact holds the best incumbent and its gap, but optimality
        # is not proven
        log_event("budget_exhausted", level=logging.WARNING, mode=payload["mode"],
                  nodes=payload["nodes"], gap=payload["gap"])
        return EXIT_CAPACITY
    return EXIT_INFEASIBLE if res.status == "infeasible" else EXIT_OK


def _cmd_saa(args) -> int:
    net, grouping = read_network(args.network)
    scen = read_scenarios(args.scenarios)
    spec = _risk_spec(args, net)
    fn = approximate_by_clearing if args.algo == 1 else approximate_by_norm_min
    approx = fn(net, grouping, scen, spec, args.epsilon)
    write_approx(args.out, approx, provenance=_provenance(args))
    return EXIT_OK if approx.feasible else EXIT_INFEASIBLE


def _cmd_converge(args) -> int:
    net, grouping = read_network(args.network)
    rows = convergence_study(
        net, grouping, _shock_params(args, args.n_ref), _risk_spec(args, net),
        n_list=_ints(args.n_list),
        seeds=[args.seed + i for i in range(args.seeds)],
        epsilon=args.epsilon,
        n_ref=args.n_ref,
    )
    write_table(args.out, rows)
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph = read_edges(args.graph)
    adjacency = graph.simple_adjacency()
    if args.network:
        _, grouping = read_network(args.network)
    elif args.core_size:
        grouping = core_periphery_grouping(adjacency, args.core_size)
    else:
        raise ValidationError("provide --network or --core-size for the grouping")
    st = network_stats(adjacency, grouping)
    dump_json(args.out, {
        "avg_degree": st.avg_degree,
        "density": st.density,
        "total_clustering": st.total_clustering,
        "cpe": st.cpe,
        "cpi": st.cpi,
        "provenance": _provenance(args),
    })
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    approx = read_approx(args.infile)
    write_table(args.out, staircase_rows(approx))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysvar",
        description="Set-valued systemic value-at-risk toolkit for clearing networks",
    )
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: the library runs single-threaded")

    def add_risk(p):
        alpha = p.add_mutually_exclusive_group(required=True)
        alpha.add_argument("--alpha", type=float, default=None)
        alpha.add_argument("--alpha-frac", type=float, default=None,
                           help="alpha as a fraction of total obligations")
        p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = sub.add_parser("gen-network", help="generate a core-periphery clearing network")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--delta-in", type=float, default=0.5)
    p.add_argument("--delta-out", type=float, default=0.5)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--core-size", type=int, required=True)
    p.add_argument("--m", "--m-matrix", dest="m", required=True,
                   help="intergroup liabilities CC,CP,PC,PP")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--no-repair", action="store_true",
                   help="fail instead of repairing zero-obligation nodes")
    p.add_argument("--graph-out", default=None, help="also write the edge-list CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_network)

    p = sub.add_parser("sample-shocks", help="sample correlated cash-flow scenarios")
    p.add_argument("--network", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--beta", required=True, help="per-group scales, comma separated")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_shocks)

    p = sub.add_parser("clear", help="clearing vector for one cash-flow vector")
    p.add_argument("--network", required=True)
    p.add_argument("--x", required=True, help="comma-separated values or a CSV file")
    p.add_argument("--method", choices=["fp", "lp"], default="fp")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_clear)

    p = sub.add_parser("enumerate", help="all clearing vectors as polytopes")
    p.add_argument("--network", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("scalarize", help="weighted-sum or nearest-point scalarization")
    p.add_argument("--network", required=True)
    p.add_argument("--scenarios", required=True)
    add_risk(p)
    p.add_argument("--weights", default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scalarize)

    p = sub.add_parser("saa", help="grid approximation of the sampled risk set")
    p.add_argument("--network", required=True)
    p.add_argument("--scenarios", required=True)
    add_risk(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--algo", type=int, choices=[1, 2], default=1,
                   help="1 = clearing-oracle grid search, 2 = norm-minimizing grid search")
    add_threads(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_saa)

    p = sub.add_parser("converge", help="sample-size convergence study")
    p.add_argument("--network", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--rho", type=float, required=True)
    add_risk(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n-list", required=True, help="sample sizes, comma separated")
    p.add_argument("--n-ref", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True, help="number of seeds")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    add_threads(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("stats", help="network statistics of an edge list")
    p.add_argument("--graph", required=True)
    p.add_argument("--network", default=None)
    p.add_argument("--core-size", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("plotdata", help="staircase boundary CSV from a set JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plotdata)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing keeps no state in the parser, and a
    # process that calls main many times pays for the build once
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    logger = logging.getLogger("sysvar")
    logger.handlers = [handler]
    logger.setLevel(getattr(logging, args.log_level))

    started = time.monotonic()
    try:
        result = args.func(args)
    except ValidationError as exc:
        print(f"sysvar: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as exc:
        print(f"sysvar: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SolverError as exc:
        print(f"sysvar: solver failure: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"sysvar: i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # a command returns its exit code, and ``clear`` also the solver facts
    # that go to the manifest
    code, solver = result if isinstance(result, tuple) else (result, None)
    artifacts = [p for p in [getattr(args, "out", None), getattr(args, "graph_out", None)] if p]
    _manifest(args, artifacts, started, solver)
    return code


if __name__ == "__main__":
    sys.exit(main())
