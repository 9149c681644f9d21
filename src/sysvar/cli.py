"""Command-line interface.

Subcommands cover the full pipeline: network generation, shock sampling,
clearing, enumeration of clearing vectors, scalarizations, grid-search set
approximation, convergence studies, network statistics, and plot-data
extraction.  Exit codes: 0 success, 2 validation error, 3 infeasibility,
4 solver capacity (including a branch-and-bound node budget exhausted before
optimality was proven).  Every run writes a manifest with the configuration, a
config hash, library versions, and wall time; numeric artifacts embed the
configuration but never timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
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
    read_approx,
    read_edges,
    read_network,
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
from .util import CapacityError, SolverError, ValidationError, log_event, resolve_threads

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_CAPACITY = 4


class _JsonLineFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        try:
            json.loads(msg)
            return msg
        except (json.JSONDecodeError, ValueError):
            return json.dumps({"event": "log", "level": record.levelname, "message": msg})


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _read_x(arg: str) -> np.ndarray:
    if os.path.exists(arg):
        with open(arg) as fh:
            rows = [line.strip() for line in fh if line.strip()]
        if rows and rows[0].split(",")[0].strip() == "x1":
            rows = rows[1:]
        if not rows:
            raise ValidationError(f"{arg} contains no cash-flow row")
        return np.asarray(_floats(rows[0]), dtype=float)
    return np.asarray(_floats(arg), dtype=float)


def _resolve_alpha(args, net) -> float:
    if getattr(args, "alpha", None) is not None:
        return float(args.alpha)
    if getattr(args, "alpha_frac", None) is not None:
        return float(args.alpha_frac) * net.total_obligations
    raise ValidationError("provide --alpha or --alpha-frac")


def _provenance(args: argparse.Namespace) -> dict:
    # runtime-only knobs do not determine the artifact and are excluded so
    # reruns with different thread counts stay byte-identical
    skip = {"func", "threads", "log_level"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return {"tool": "sysvar", "version": __version__, "config": config}


def _manifest(args: argparse.Namespace, artifacts: list[str], started: float) -> None:
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
    out = getattr(args, "out", None)
    if out:
        dump_json(out + ".manifest.json", manifest)


# -- subcommand implementations ---------------------------------------------


def _cmd_gen_network(args) -> int:
    m = _floats(args.m)
    if len(m) != 4:
        raise ValidationError("--m expects four comma-separated values (2x2, row-major)")
    params = BollobasParams(
        theta=args.theta, eta=args.eta, zeta=args.zeta,
        delta_in=args.delta_in, delta_out=args.delta_out,
        target_nodes=args.nodes, seed=args.seed,
    )
    graph = generate_bollobas(params)
    inter = IntergroupLiabilityMatrix(values=np.asarray(m).reshape(2, 2))
    net, grouping = build_liabilities(graph, args.core_size, inter,
                                       repair=not args.no_repair)
    write_network(args.out, net, grouping, provenance=_provenance(args))
    artifacts = [args.out]
    if args.graph_out:
        write_edges(args.graph_out, graph)
        artifacts.append(args.graph_out)
    return EXIT_OK


def _cmd_sample_shocks(args) -> int:
    net, grouping = read_network(args.network)
    params = ShockParams(
        nu=args.nu,
        beta_by_group=np.asarray(_floats(args.beta)),
        rho=args.rho,
        n=args.n,
        seed=args.seed,
    )
    scen = sample_shocks(params, grouping)
    write_scenarios(args.out, scen)
    return EXIT_OK


def _cmd_clear(args) -> int:
    net, _ = read_network(args.network)
    x = _read_x(args.x)
    if args.method == "fp":
        res = clearing_fixed_point(net, x)
    else:
        res = clearing_lp(net, x)
    dump_json(args.out, {
        "method": args.method,
        "p": res.p,
        "defaults": res.defaults.astype(int),
        "iterations": res.iterations,
        "total_payment": res.total_payment,
        "provenance": _provenance(args),
    })
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    net, _ = read_network(args.network)
    x = _read_x(args.x)
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
    spec = RiskSpec(alpha=_resolve_alpha(args, net), lam=args.lam)
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
    spec = RiskSpec(alpha=_resolve_alpha(args, net), lam=args.lam)
    threads = resolve_threads(args.threads)
    fn = approximate_by_clearing if args.algo == 1 else approximate_by_norm_min
    approx = fn(net, grouping, scen, spec, args.epsilon, threads=threads)
    write_approx(args.out, approx, provenance=_provenance(args))
    return EXIT_OK if approx.feasible else EXIT_INFEASIBLE


def _cmd_converge(args) -> int:
    net, grouping = read_network(args.network)
    spec = RiskSpec(alpha=_resolve_alpha(args, net), lam=args.lam)
    params = ShockParams(
        nu=args.nu, beta_by_group=np.asarray(_floats(args.beta)),
        rho=args.rho, n=args.n_ref, seed=args.seed,
    )
    threads = resolve_threads(args.threads)
    rows = convergence_study(
        net, grouping, params, spec,
        n_list=_ints(args.n_list),
        seeds=[args.seed + i for i in range(args.seeds)],
        epsilon=args.epsilon,
        n_ref=args.n_ref,
        threads=threads,
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
                       help="worker threads (SYSVAR_THREADS overrides; default 1)")

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
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-frac", type=float, default=None,
                   help="alpha as a fraction of total obligations")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--point", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scalarize)

    p = sub.add_parser("saa", help="grid approximation of the sampled risk set")
    p.add_argument("--network", required=True)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-frac", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
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
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-frac", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_JsonLineFormatter())
    logger = logging.getLogger("sysvar")
    logger.handlers = [handler]
    logger.setLevel(getattr(logging, args.log_level))

    started = time.monotonic()
    try:
        code = args.func(args)
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
    artifacts = [p for p in [getattr(args, "out", None), getattr(args, "graph_out", None)] if p]
    _manifest(args, artifacts, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
