"""File formats: network JSON, scenario/edge CSV, approximation-set JSON.

All floats are written at 17 significant digits so artifacts round-trip
exactly; every writer goes through an atomic temp-file-plus-rename.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

import numpy as np

from .network import DirectedMultigraph, FinancialNetwork, Grouping
from .risk import CapitalBox
from .saa import ApproxSet
from .shocks import ScenarioSet
from .util import ValidationError, atomic_write_text, fmt17


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def dump_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(_jsonable(payload), indent=2) + "\n")


def dump_json_list(path: str, payload: list) -> None:
    atomic_write_text(path, json.dumps(_jsonable(payload), indent=2) + "\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- network ---------------------------------------------------------------

def network_payload(net: FinancialNetwork, grouping: Grouping,
                    provenance: dict | None = None) -> dict:
    payload = {
        "d": net.d,
        "pbar": net.pbar,
        "pi": net.pi,
        "grouping": {"g": grouping.g, "assignment": grouping.assignment},
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def write_network(path: str, net: FinancialNetwork, grouping: Grouping,
                  provenance: dict | None = None) -> None:
    dump_json(path, network_payload(net, grouping, provenance))


def read_network(path: str) -> tuple[FinancialNetwork, Grouping]:
    data = load_json(path)
    try:
        net = FinancialNetwork(
            d=int(data["d"]),
            pi=np.asarray(data["pi"], dtype=float),
            pbar=np.asarray(data["pbar"], dtype=float),
        )
        grouping = Grouping(
            g=int(data["grouping"]["g"]),
            assignment=np.asarray(data["grouping"]["assignment"], dtype=int),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed network file {path}: {exc}") from exc
    net.validate()
    grouping.validate(net.d)
    return net, grouping


# -- graph edge list ---------------------------------------------------------

def write_edges(path: str, graph: DirectedMultigraph) -> None:
    lines = ["source,target"]
    lines += [f"{s},{t}" for s, t in graph.edges]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_edges(path: str) -> DirectedMultigraph:
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows or rows[0].lower() != "source,target":
        raise ValidationError(f"{path} is not an edge-list CSV (missing header)")
    edges = []
    for row in rows[1:]:
        s, t = row.split(",")
        edges.append((int(s), int(t)))
    n = 1 + max((max(s, t) for s, t in edges), default=0)
    return DirectedMultigraph(n=n, edges=tuple(edges))


# -- scenarios ----------------------------------------------------------------

def write_scenarios(path: str, scenarios: ScenarioSet) -> None:
    d = scenarios.d
    lines = [",".join(f"x{i + 1}" for i in range(d))]
    for row in scenarios.values:
        lines.append(",".join(fmt17(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_scenarios(path: str) -> ScenarioSet:
    """Scenario CSV: an x1.. header, then one row of d numbers per scenario.

    Blank lines are skipped; a ragged row, a cell that is not a number or
    rows wider or narrower than the header raise ``ValidationError``.
    """
    with open(path) as fh:
        lines = (line for line in fh if line.strip())
        header = next(lines, "")
        if not header.lstrip().startswith("x1"):
            raise ValidationError(f"{path} is not a scenario CSV (missing x1.. header)")
        first = next(lines, None)
        if first is None:
            raise ValidationError(f"{path} holds no scenario rows")
        try:
            values = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                                comments=None, ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"malformed scenario CSV {path}: {exc}") from exc
    width = header.count(",") + 1
    if values.shape[1] != width:
        raise ValidationError(f"malformed scenario CSV {path}: the header names {width} "
                              f"columns, the rows hold {values.shape[1]}")
    out = ScenarioSet(values=values)
    out.validate()
    return out


# -- approximation sets -------------------------------------------------------

def approx_payload(approx: ApproxSet, provenance: dict | None = None) -> dict:
    payload = {
        "epsilon": approx.epsilon,
        "box": {"lo": approx.box.lo, "hi": approx.box.hi},
        "generators": approx.generators,
        "ideal": approx.ideal,
        "feasible": approx.feasible,
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return payload


def write_approx(path: str, approx: ApproxSet, provenance: dict | None = None) -> None:
    dump_json(path, approx_payload(approx, provenance))


def read_approx(path: str) -> ApproxSet:
    data = load_json(path)
    try:
        gens = np.asarray(data["generators"], dtype=float)
        if gens.size == 0:
            gens = gens.reshape(0, len(data["box"]["lo"]))
        ideal = data["ideal"]
        g = len(data["box"]["lo"])
        ideal_arr = (np.full(g, np.nan) if ideal is None or any(v is None for v in ideal)
                     else np.asarray(ideal, dtype=float))
        return ApproxSet(
            epsilon=float(data["epsilon"]),
            generators=gens,
            box=CapitalBox(
                lo=np.asarray(data["box"]["lo"], dtype=float),
                hi=np.asarray(data["box"]["hi"], dtype=float),
            ),
            ideal=ideal_arr,
            feasible=bool(data.get("feasible", True)),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed approximation file {path}: {exc}") from exc


# -- tables ---------------------------------------------------------------

def write_table(path: str, rows: list[dict]) -> None:
    """CSV with the union of row keys, floats at full precision."""
    if not rows:
        raise ValidationError("cannot write an empty table")
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for key in cols:
            v = row.get(key, "")
            if isinstance(v, (float, np.floating)):
                cells.append(fmt17(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def staircase_rows(approx: ApproxSet) -> list[dict]:
    """Two-group staircase boundary of the generated upper set.

    Generators sorted by the first coordinate trace a monotone staircase;
    between consecutive generators the inner corner joins them.
    """
    gens = approx.generators
    if gens.size == 0:
        raise ValidationError("empty approximation set has no boundary")
    if gens.shape[1] != 2:
        raise ValidationError("staircase output requires exactly two groups")
    order = np.lexsort((gens[:, 1], gens[:, 0]))
    pts = gens[order]
    rows = [{"z1": pts[0][0], "z2": pts[0][1]}]
    for prev, cur in zip(pts[:-1], pts[1:]):
        rows.append({"z1": cur[0], "z2": prev[1]})
        rows.append({"z1": cur[0], "z2": cur[1]})
    return rows
