"""File formats: network JSON, scenario/edge CSV, approximation-set JSON.

All floats are written at 17 significant digits so artifacts round-trip
exactly.  Every writer goes through one atomic path that streams text chunks
to a temp file and then renames it (`util.atomic_write_chunks`); the scenario
CSV is formatted and streamed in blocks of rows, so its whole text is never
held in memory.

The scenario CSV's cells are formatted in bulk by numpy (`_format_block`),
byte for byte as ``"%.17g" % v``.  For 1e-4 <= v < 1e17, ``%.17g`` is fixed
notation with decimal exponent E in [-4, 16], so its 17 digits are the
integer M = v * 10**(16 - E) rounded half to even.  10**(16 - E) is an exact
double, and Dekker's two-product (Veltkamp splits) gives v * 10**(16 - E) as
an exact sum hi + lo, from which that rounding is taken exactly.  Every
other cell (zero, subnormals, values below 1e-4 or from 1e17 up, negatives
and non-finite values) is formatted by ``%.17g`` itself.  No double in the
band rounds up to the next power of ten at 17 digits, so the band's cells
never leave it.
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
from .util import ValidationError, atomic_write_chunks, atomic_write_text, fmt17

# rows per chunk of the streamed scenario write; at d = 20 every temporary of
# a block stays below glibc's 128 KiB mmap threshold, so memory stays flat
_WRITE_BLOCK_ROWS = 256


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
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"malformed JSON file {path}: {exc}") from exc


# -- network ---------------------------------------------------------------

def write_network(path: str, net: FinancialNetwork, grouping: Grouping,
                  provenance: dict | None = None) -> None:
    payload = {
        "d": net.d,
        "pbar": net.pbar,
        "pi": net.pi,
        "grouping": {"g": grouping.g, "assignment": grouping.assignment},
    }
    if provenance is not None:
        payload["provenance"] = provenance
    dump_json(path, payload)


def read_network(path: str) -> tuple[FinancialNetwork, Grouping]:
    data = load_json(path)
    try:
        net = FinancialNetwork(d=data["d"], pi=data["pi"], pbar=data["pbar"])
        grouping = Grouping(g=data["grouping"]["g"], assignment=data["grouping"]["assignment"])
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers ragged arrays and the values' own checks
        raise ValidationError(f"malformed network file {path}: {exc}") from exc
    grouping.check_banks(net.d)
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
        try:
            s, t = map(int, row.split(","))
        except ValueError as exc:
            raise ValidationError(f"malformed edge-list CSV {path}: row {row!r}") from exc
        if s < 0 or t < 0:
            raise ValidationError(f"negative node id in edge-list CSV {path}: row {row!r}")
        edges.append((s, t))
    n = 1 + max((max(s, t) for s, t in edges), default=0)
    return DirectedMultigraph(n=n, edges=tuple(edges))


# -- scenarios ----------------------------------------------------------------

# 10**p for p in [0, 20], all exact doubles, and their Veltkamp halves
_POW10 = np.array([float(10 ** p) for p in range(21)])
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# A formatted cell is 24 bytes, three little-endian words, and its bytes
# that end up zero are dropped.  The 17 digits sit in bytes 5..21 ("A"), a
# copy of the cell shifted one byte up holds them in bytes 6..22 ("B") so
# that the fraction can follow a '.', and byte 23 is the separator.  Per
# layout key (E, digits kept once trailing zeros go) three masks keep
# bytes of A, keep bytes of B and add constant bytes: below 1, "0." and
# -E - 1 zeros ending at byte 4; from 1 up, the '.' when a fraction is
# left.  The last key keeps the separator alone, for a cell that %.17g
# formats.
_CELL = 24
_WORD = np.dtype("<u8")
_KEYS = [(e, kept) for e in range(-4, 17) for kept in range(18)]  # (E + 4) * 18 + kept
_FALLBACK_KEY = len(_KEYS)


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    from_a, from_b, const = np.zeros((3, _FALLBACK_KEY + 1, _CELL), dtype=np.uint8)
    from_a[:, _CELL - 1] = 0xFF
    for i, (e, kept) in enumerate(_KEYS):
        if e < 0:
            prefix = b"0." + b"0" * (-e - 1)
            const[i, 5 - len(prefix):5] = np.frombuffer(prefix, dtype=np.uint8)
            from_a[i, 5:5 + kept] = 0xFF
        else:
            from_a[i, 5:6 + e] = 0xFF
            if kept > e + 1:
                const[i, 6 + e] = ord(".")
                from_b[i, 7 + e:6 + kept] = 0xFF
    width = np.count_nonzero(from_a | from_b | const, axis=1)
    return from_a.view(_WORD), from_b.view(_WORD), const.view(_WORD), width


_FROM_A, _FROM_B, _CONST, _WIDTH = _layout_tables()


def _two_product(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**p as hi + lo exactly (Dekker 1971), hi the rounded product."""
    hi = x * _POW10[p]
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    return hi, lo


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10**8 (uint64) as ASCII bytes of
    one little-endian word, the first digit in the lowest byte: split into
    32-bit lanes of four digits, then 16-bit lanes of two, then bytes, each
    step a division by multiplication exact for the lane's range."""
    upper = v // 10000
    w = upper | ((v - upper * 10000) << 32)
    q = ((w * 10486) >> 20) & 0x7F0000007F
    w = q | ((w - q * 100) << 16)
    q = ((w * 103) >> 10) & 0x000F000F000F000F
    return (q | ((w - q * 10) << 8)) + 0x3030303030303030


def _digits_kept(words: np.ndarray) -> np.ndarray:
    """Digits of lead + words[0] + words[1] (17 in all) left once trailing
    zeros go: flag the bytes that are not '0', smear each flag down to the
    lower bytes, and count the flagged bytes of each word."""
    flags = ((words ^ 0x3030303030303030) + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    flags |= flags >> 8
    flags |= flags >> 16
    flags |= flags >> 32
    count = ((flags >> 7) * 0x0101010101010101) >> 56
    return np.where(count[1] > 0, 9 + count[1], 1 + count[0]).astype(np.int64)


def _format_block(block: np.ndarray) -> str:
    """The rows of `block` as CSV text: ``"%.17g" % v`` per cell, commas
    between cells, a newline after each row (see the module docstring)."""
    r, d = block.shape
    values = np.asarray(block, dtype=np.float64).ravel()
    band = (values >= 1e-4) & (values < 1e17)
    x = np.where(band, values, 1.0)
    # decimal exponent: log10's guess, then corrected by the exact product so
    # that 1e16 <= x * 10**(16 - E) < 1e17
    e = np.clip(np.floor(np.log10(x)).astype(np.int64), -4, 16)
    hi, lo = _two_product(x, 16 - e)
    step = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        hi[moved], lo[moved] = _two_product(x[moved], 16 - e[moved])
    # hi >= 1e16 > 2**53 is an integer; round hi + lo half to even.  This
    # never carries to 1e17: the doubles below each power of ten from 1e-4
    # to 1e17 lie at least 8e-17 below it relatively, rounding up needs 5e-18
    floor_lo = np.floor(lo)
    m = hi.astype(np.int64) + floor_lo.astype(np.int64)
    half = floor_lo + 0.5
    m += (lo > half) | ((lo == half) & (m & 1 == 1))
    # the 17 digits: a leading one, then two ASCII words of eight
    top, low8 = np.divmod(m.astype(np.uint64), 10 ** 8)
    lead, high8 = np.divmod(top, 10 ** 8)
    words = _ascii8(np.stack([high8, low8]))
    high8, low8 = words
    seps = np.full((r, d), ord(","), dtype=np.uint64)
    seps[:, -1] = ord("\n")
    cells = np.empty((values.size, 3), dtype=_WORD)
    cells[:, 0] = ((lead + ord("0")) << 40) | (high8 << 48)
    cells[:, 1] = (high8 >> 16) | (low8 << 48)
    cells[:, 2] = (low8 >> 16) | (seps.ravel() << 56)
    shifted = np.empty_like(cells)
    shifted.view(np.uint8).reshape(-1)[1:] = cells.view(np.uint8).reshape(-1)[:-1]
    key = np.where(band, (e + 4) * 18 + _digits_kept(words), _FALLBACK_KEY)
    cells &= np.take(_FROM_A, key, axis=0)
    shifted &= np.take(_FROM_B, key, axis=0)
    cells |= shifted
    cells |= np.take(_CONST, key, axis=0)
    text = cells.view(np.uint8)
    text = text[text != 0].tobytes().decode("ascii")
    fallback = np.flatnonzero(key == _FALLBACK_KEY)
    if not fallback.size:
        return text
    # each %.17g text goes in front of its cell's separator
    width = _WIDTH[key]
    starts = (np.cumsum(width) - width)[fallback].tolist()
    pieces, done = [], 0
    for start, v in zip(starts, values[fallback].tolist()):
        pieces += [text[done:start], "%.17g" % v]
        done = start
    pieces.append(text[done:])
    return "".join(pieces)


def write_scenarios(path: str, scenarios: ScenarioSet) -> None:
    """Scenario CSV streamed in blocks of `_WRITE_BLOCK_ROWS` rows, so the
    whole text is never held in memory.  Each cell is ``%.17g``, the same
    text as `fmt17`: numpy formats cells in 1e-4 <= v < 1e17 from an exact
    product, ``%.17g`` the rest (see the module docstring).  Negative cash
    flows are refused first, as `read_scenarios` refuses them."""
    scenarios.check_nonnegative()
    d = scenarios.d
    values = scenarios.values

    def chunks():
        yield ",".join(f"x{i + 1}" for i in range(d)) + "\n"
        for start in range(0, values.shape[0], _WRITE_BLOCK_ROWS):
            yield _format_block(values[start:start + _WRITE_BLOCK_ROWS])

    atomic_write_chunks(path, chunks())


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
    out.check_nonnegative()
    return out


# -- approximation sets -------------------------------------------------------

def write_approx(path: str, approx: ApproxSet, provenance: dict | None = None) -> None:
    payload = {
        "epsilon": approx.epsilon,
        "box": {"lo": approx.box.lo, "hi": approx.box.hi},
        "generators": approx.generators,
        "ideal": approx.ideal,
        "feasible": approx.feasible,
    }
    if provenance is not None:
        payload["provenance"] = provenance
    dump_json(path, payload)


def read_approx(path: str) -> ApproxSet:
    data = load_json(path)
    try:
        g = len(data["box"]["lo"])
        gens = np.asarray(data["generators"], dtype=float)
        if gens.size == 0:
            gens = gens.reshape(0, g)
        if gens.ndim != 2 or gens.shape[1] != g:
            raise ValidationError(f"generators must be rows of {g} entries, one per group")
        ideal = data["ideal"]
        ideal_arr = (np.full(g, np.nan) if ideal is None or any(v is None for v in ideal)
                     else np.asarray(ideal, dtype=float))
        return ApproxSet(
            epsilon=float(data["epsilon"]),
            generators=gens,
            box=CapitalBox(lo=data["box"]["lo"], hi=data["box"]["hi"]),
            ideal=ideal_arr,
            feasible=bool(data.get("feasible", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers ragged arrays, non-numeric values and the
        # values' own checks
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
