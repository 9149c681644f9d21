"""File formats: network JSON, scenario/edge CSV, approximation-set JSON.

All floats are written at 17 significant digits so artifacts round-trip
exactly.  Every writer goes through one atomic path that streams text chunks
to a temp file and then renames it (`util.atomic_write_chunks`); the scenario
CSV is formatted and streamed in blocks of rows, so its whole text is never
held in memory.  Text files are read as UTF-8; other bytes raise
``ValidationError``.

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

`read_scenarios` is the inverse, also in bulk.  It reads the file in binary
mode through one buffer, in blocks of whole rows, and writes each block into
the (N, d) result, allocated once after a count of the lines (a pipe, which
cannot be read twice, is held whole):

- Separators.  Every byte up to ',' (0x2C) separates cells; '\\n' is 0x0A,
  and digits and '.' lie above.  A row is in the grammar when its
  separators are d - 1 commas and a newline, and its other bytes digits and
  '.'.
- Cells.  Each cell is taken as the 24 bytes that end at it, three
  little-endian words gathered through an unaligned view of the buffer,
  with '0' in the bytes before the cell.  A cell is 1 to 24 bytes with at
  most one '.', and that between digits.  The '.' is the byte with bit 4
  clear; a one-byte shift takes it out, and eight digits a word become an
  integer by multiplies on packed lanes (the inverse of `_ascii8`).  That
  gives an integer M of at most 17 significant digits and f digits after
  the '.'.
- Values.  Below 2**53, M / 10**f (f <= 22) is one correctly rounded
  division of exact doubles (Clinger's fast path).  From 2**53 up, M is
  scaled to 17 digits, M17 / 10**f17 with f17 <= 20, and c = M17 / 10**f17
  in floating point is stepped by at most three ulps until the writer's own
  rounding of c * 10**f17 (`_two_product`, then half to even) gives M17.
  Then |c - D| <= 10**-f17 / 2 <= 5e-17 * D < 2**-54 * D for the decimal
  D = M17 / 10**f17, as M17 >= 10**16.  With 2**e <= D < 2**(e + 1), the
  doubles from 2**e up lie 2**(e - 52) > 2**-53 * D apart, and those below
  2**e lie at least 2**(e - 53) > 2**-54 * D from D.  So c is the one
  double within 2**-54 * D of D: the double nearest D, which np.loadtxt
  returns.
- Fallback.  Rows outside the grammar, and rows with a cell no step
  matches, go to np.loadtxt, one call per run of such rows, in file order:
  blank and whitespace lines, CR line ends, signs, exponents, inf and nan,
  more than 17 significant digits, cells of more than 24 bytes, and the
  writer's own ``%.17g`` cells below 1e-4 and from 1e17 up.  So every file
  that np.loadtxt reads gives the same bits, and every file it refuses
  raises ``ValidationError``.
"""

from __future__ import annotations

import json
from io import BytesIO
from typing import Any

import numpy as np

from .network import DirectedMultigraph, FinancialNetwork, Grouping
from .risk import CapitalBox
from .saa import ApproxSet
from .shocks import ScenarioSet
from .util import ValidationError, atomic_write_chunks, atomic_write_text, fmt17, jsonable

# rows per chunk of the streamed scenario write; at d = 20 every temporary of
# a block stays below glibc's 128 KiB mmap threshold, so memory stays flat
_WRITE_BLOCK_ROWS = 256


def dump_json(path: str, payload: dict | list) -> None:
    atomic_write_text(path, json.dumps(jsonable(payload), indent=2) + "\n")


dump_json_list = dump_json


def _json_of(raw: bytes, path: str) -> Any:
    """The JSON value in raw, read as UTF-8 text; bytes that are not UTF-8
    or not JSON raise ``ValidationError``."""
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        # UnicodeDecodeError is a ValueError too
        raise ValidationError(f"malformed JSON file {path}: {exc}") from exc


def load_json(path: str) -> dict:
    with open(path, "rb") as fh:
        return _json_of(fh.read(), path)


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


def network_from_bytes(raw: bytes, path: str) -> tuple[FinancialNetwork, Grouping]:
    """The network and grouping that the network file's bytes raw hold;
    ``path`` names the file in error messages."""
    data = _json_of(raw, path)
    try:
        net = FinancialNetwork(d=data["d"], pi=data["pi"], pbar=data["pbar"])
        grouping = Grouping(g=data["grouping"]["g"], assignment=data["grouping"]["assignment"])
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers ragged arrays and the values' own checks
        raise ValidationError(f"malformed network file {path}: {exc}") from exc
    grouping.check_banks(net.d)
    return net, grouping


def read_network(path: str) -> tuple[FinancialNetwork, Grouping]:
    """The network file at path, as new objects on every call."""
    with open(path, "rb") as fh:
        return network_from_bytes(fh.read(), path)


# -- text ---------------------------------------------------------------------

def _text_lines(raw: bytes, path: str) -> list[str]:
    """The lines of raw that are not blank, split where a text-mode read
    splits them (at "\\n", "\\r\\n" and "\\r")."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [line for line in lines if line.strip()]


def read_lines(path: str) -> list[str]:
    """The lines of a text file that are not blank, stripped; bytes that
    are not UTF-8 raise ``ValidationError``."""
    with open(path, "rb") as fh:
        return [line.strip() for line in _text_lines(fh.read(), path)]


# -- graph edge list ---------------------------------------------------------

def write_edges(path: str, graph: DirectedMultigraph) -> None:
    lines = ["source,target"]
    lines += [f"{s},{t}" for s, t in graph.edges]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_edges(path: str) -> DirectedMultigraph:
    rows = read_lines(path)
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

# 10**p for p in [0, 22], all exact doubles, and their Veltkamp halves
_POW10 = np.array([float(10 ** p) for p in range(23)])
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
    """x * 10**p as hi + lo exactly (Dekker 1971), hi the rounded product:
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl, in place."""
    hi = x * _POW10[p]
    xh = _SPLIT * x
    xh -= xh - x
    xl = x - xh
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    lo = xh * ph
    lo -= hi
    xh *= pl
    lo += xh
    ph *= xl
    lo += ph
    xl *= pl
    lo += xl
    return hi, lo


def _round_half_even(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """hi + lo rounded half to even (int64), for an integer hi >= 2**53."""
    floor_lo = np.floor(lo)
    m = hi.astype(np.int64) + floor_lo.astype(np.int64)
    half = floor_lo + 0.5
    m += (lo > half) | ((lo == half) & (m & 1 == 1))
    return m


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
    # hi >= 1e16 never carries to 1e17: the doubles below each power of ten
    # from 1e-4 to 1e17 lie at least 8e-17 below it relatively, rounding up
    # needs 5e-18
    m = _round_half_even(hi, lo)
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


# the scenario CSV is read through one buffer of about this many bytes, in
# blocks of whole rows: at d = 20 a block is about 5,000 cells, and its
# temporaries keep the read's peak within 1 MiB of its (N, d) result
_READ_BYTES = 96 << 10
# bytes in front of a block, so that the first cell's words have somewhere
# to start
_PAD = 24
_SEPARATOR = ord(",")       # every byte up to this one separates cells
# masks on packed bytes, uint64 like every operand of the word arithmetic
_ZEROS = np.uint64(0x3030303030303030)      # '0' in each byte
_BIT4 = np.uint64(0x1010101010101010)       # set in digits, clear in '.'
_BIT0 = np.uint64(0x0101010101010101)
_DIGITS = np.uint64(0x0F0F0F0F0F0F0F0F)
# a word of eight digits 0..9 (the first in the lowest byte) to its value:
# 10 * a + b in each pair of bytes, 100 * a + b in each pair of those, then
# 10**4 * a + b
_SWAR_STEPS = [tuple(map(np.uint64, step)) for step in (
    (10 * 256 + 1, 8, 0x00FF00FF00FF00FF),
    (100 * 65536 + 1, 16, 0x0000FFFF0000FFFF),
    (10000 * (1 << 32) + 1, 32, 0x00000000FFFFFFFF))]


def _from_tables() -> np.ndarray:
    """Per j in [0, 24], column j: the three cell words with the bytes from
    index j up set."""
    keep = np.zeros((_CELL + 1, _CELL), dtype=np.uint8)
    for j in range(_CELL + 1):
        keep[j, j:] = 0xFF
    return np.ascontiguousarray(keep.view(_WORD).T)


_KEEP_FROM = _from_tables()
# the top byte of _DOT_INDEX[j] << 8 * i is 8 * j + i + 1, the index + 1 of
# byte i of cell word j
_DOT_INDEX = np.array([[sum((8 * j + i + 1) << 8 * (7 - i) for i in range(8))]
                       for j in range(3)], dtype=_WORD)


def _loadtxt_rows(lines: list[str], d: int, path: str) -> np.ndarray:
    """Rows outside the block parser's grammar, parsed by np.loadtxt."""
    if not lines:
        return np.empty((0, d))
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"malformed scenario CSV {path}: {exc}") from exc
    if values.shape[1] != d:
        raise ValidationError(f"malformed scenario CSV {path}: the header names {d} "
                              f"columns, the rows hold {values.shape[1]}")
    return values


def _nearest_double(m17: np.ndarray, f17: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double nearest m17 / 10**f17 for 10**16 <= m17 < 10**17 (int64)
    and f17 <= 20, and whether it was found: the first guess, then up to
    three ulp steps, each checked by the writer's exact rounding."""
    c = m17.astype(np.float64) / _POW10[f17]
    miss = _round_half_even(*_two_product(c, f17)) - m17
    todo = np.flatnonzero(miss)
    for _ in range(3):
        if not todo.size:
            break
        c[todo] = np.nextafter(c[todo], np.where(miss[todo] > 0, -np.inf, np.inf))
        miss[todo] = _round_half_even(*_two_product(c[todo], f17[todo])) - m17[todo]
        todo = todo[miss[todo] != 0]
    return c, miss == 0


def _parse_cells(records: np.ndarray, ends: np.ndarray, length: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The value of each cell that ends before buffer byte ends[k] and holds
    length[k] bytes, and whether it is in the grammar: 1 to 24 bytes, each
    a digit or one '.' between digits, at most 17 significant digits (see
    the module docstring).  Bytes other than digits and '.' are not checked
    here: the caller refuses the rows that hold them."""
    # three words a cell, one row per word; '0' in the bytes before the cell
    w = np.ascontiguousarray(records[ends - _CELL].view(_WORD).reshape(-1, 3).T)
    w ^= _ZEROS
    w &= np.take(_KEEP_FROM, _CELL - np.minimum(length, _CELL), axis=1)
    w ^= _ZEROS
    # the dot's byte index + 1 (0 without a dot): bit 4 is clear in '.'
    # alone; a second dot leaves the sum anywhere, and stays in the digits
    t = w >> 4
    np.invert(t, out=t)
    t &= _BIT0
    t *= _DOT_INDEX
    t >>= 56
    t[0] += t[1]
    t[0] += t[2]
    dot = np.minimum(t[0], _CELL).astype(np.intp)
    # take the dot out: the bytes before it move one byte up, a '0' comes in
    np.left_shift(w, 8, out=t)
    t[1:] |= w[:-1] >> 56
    t[0] |= ord("0")
    w ^= t
    w &= np.take(_KEEP_FROM, dot, axis=1)
    w ^= t
    digits = w & _BIT4 == _BIT4
    ok = (digits[0] & digits[1] & digits[2] & (length > 0) & (length <= _CELL)
          & (dot != _CELL + 1 - length) & (dot != _CELL))
    # eight digits a word, the first in the lowest byte (the inverse of
    # _ascii8): pairs, then fours, then eights
    w &= _DIGITS
    for factor, shift, mask in _SWAR_STEPS:
        w *= factor
        w >>= shift
        w &= mask
    ok &= w[0] < 10
    m = (w[0] * 10 ** 8 + w[1]) * 10 ** 8 + w[2]
    del w, t
    frac = np.where(dot > 1, _CELL - dot, 0)
    del dot
    values = m.astype(np.float64) / _POW10[frac]
    # from 2**53 up, M / 10**f may round twice: scale to 17 digits and check
    slow = np.flatnonzero((m >= 1 << 53) & ok)
    if slow.size:
        sixteen = m[slow] < 10 ** 16
        m17 = m[slow].astype(np.int64) * np.where(sixteen, 10, 1)
        f17 = frac[slow] + sixteen
        fits = f17 <= 20
        c, found = _nearest_double(m17, np.where(fits, f17, 0))
        values[slow] = c
        ok[slow] &= fits & found
    return values, ok


def _parse_block(u8: np.ndarray, records: np.ndarray, lo: int, hi: int, d: int,
                 out: np.ndarray, path: str) -> int:
    """Parse the rows in bytes lo..hi of the buffer, each ending in "\\n",
    into out, and return how many rows it wrote.  Rows outside the grammar
    go to np.loadtxt, each run of them in one call."""
    block = u8[lo:hi]
    seps = np.flatnonzero(block <= _SEPARATOR)
    kinds = block[seps]
    newlines = kinds == ord("\n")
    rows = int(np.count_nonzero(newlines))
    length = np.diff(seps, prepend=-1) - 1
    seps += lo
    # a row is in the grammar when its separators are d - 1 commas and a
    # newline, its other bytes digits and '.', and each cell a number
    pattern = np.full(d, _SEPARATOR, dtype=np.uint8)
    pattern[-1] = ord("\n")
    if seps.size == rows * d and (kinds.reshape(rows, d) == pattern).all():
        good = np.ones(rows, dtype=bool)
        cells = seps
    else:
        row = np.cumsum(newlines) - newlines
        good = ((np.bincount(row, minlength=rows) == d)
                & (np.bincount(row[kinds == _SEPARATOR], minlength=rows) == d - 1))
        cells, length = seps[good[row]], length[good[row]]
    values, ok = _parse_cells(records, cells, length)
    del cells, length
    values = values.reshape(-1, d)
    parsed = np.flatnonzero(good)
    good[parsed] = ok.reshape(-1, d).all(axis=1)
    ends = seps[newlines]
    # '-' and '/' are the bytes other than '.' between ',' and '0'
    odd = block > ord("9")
    odd |= (block | 2) == ord("/")
    if odd.any():
        good[np.searchsorted(ends, np.flatnonzero(odd) + lo)] = False
    if good.all():
        out[:rows] = values
        return rows
    # runs of rows in and outside the grammar, in file order
    full = np.empty((rows, d))
    full[parsed] = values
    bounds = [0, *(np.flatnonzero(np.diff(good)) + 1).tolist(), rows]
    written = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        if good[a]:
            part = full[a:b]
        else:
            raw = u8[ends[a - 1] + 1 if a else lo:ends[b - 1] + 1].tobytes()
            part = _loadtxt_rows(_text_lines(raw, path), d, path)
        out[written:written + len(part)] = part
        written += len(part)
    return written


def _read_header(fh, path: str) -> tuple[int, list[str]]:
    """The width the header names (the first line that is not blank) and
    the lines after it up to its "\\n"."""
    while True:
        raw = fh.readline()
        lines = _text_lines(raw, path)
        if lines or not raw:
            break
    if not lines or not lines[0].lstrip().startswith("x1"):
        raise ValidationError(f"{path} is not a scenario CSV (missing x1.. header)")
    return lines[0].count(",") + 1, lines[1:]


def _count_lines(fh, buf: bytearray) -> int:
    """Lines left in fh at most: its "\\n" and "\\r" bytes, one more for
    a last line that neither ends."""
    u8 = np.frombuffer(buf, dtype=np.uint8)
    count, last = 0, ord("\n")
    while got := fh.readinto(buf):
        block = u8[:got]
        count += int(np.count_nonzero(block == ord("\n")) + np.count_nonzero(block == ord("\r")))
        last = buf[got - 1]
    return count + (last not in b"\r\n")


def _read_rows(fh, buf: bytearray, d: int, out: np.ndarray, path: str) -> int:
    """Read the rest of fh into out through buf, in blocks of whole rows;
    return how many rows it wrote."""
    u8 = np.frombuffer(buf, dtype=np.uint8)
    # record k is the 24 bytes from byte k on: unaligned, overlapping
    records = np.ndarray((len(buf) - _CELL + 1,), dtype=f"V{_CELL}", buffer=buf,
                         strides=(1,))
    view = memoryview(buf)
    top = len(buf) - 1  # the last byte is room for a newline the file lacks
    kept = written = 0
    while True:
        got = fh.readinto(view[_PAD + kept:top])
        end = _PAD + kept + got
        if not got:
            if not kept:
                return written
            buf[end] = ord("\n")
            last = end + 1
        else:
            last = buf.rfind(b"\n", _PAD, end) + 1
        if not last and end < top:
            kept = end - _PAD
            continue
        if not last:
            # a row longer than the buffer is longer than any row in the
            # grammar
            raw = view[_PAD:end].tobytes() + fh.readline()
            part = _loadtxt_rows(_text_lines(raw, path), d, path)
            out[written:written + len(part)] = part
            written += len(part)
            kept = 0
            continue
        written += _parse_block(u8, records, _PAD, last, d, out[written:], path)
        if not got:
            return written
        kept = end - last
        u8[_PAD:_PAD + kept] = u8[last:end]


def read_scenarios(path: str) -> ScenarioSet:
    """Scenario CSV: an x1.. header, then one row of d numbers per scenario.

    Read in blocks of whole rows through one buffer and parsed in bulk (see
    the module docstring); rows outside the writer's grammar are parsed by
    np.loadtxt.  Blank lines are skipped; a ragged row, a cell that is not a
    number, bytes that are not UTF-8 or rows wider or narrower than the
    header raise ``ValidationError``.
    """
    with open(path, "rb") as fh:
        d, rest = _read_header(fh, path)
        first = _loadtxt_rows(rest, d, path)
        buf = bytearray(_PAD + max(_READ_BYTES, 32 * d) + 1)
        # the rows are read twice, to count them first; a pipe is held whole
        rows = fh if fh.seekable() else BytesIO(fh.read())
        start = rows.tell()
        values = np.empty((len(first) + _count_lines(rows, buf), d))
        rows.seek(start)
        values[:len(first)] = first
        n = len(first) + _read_rows(rows, buf, d, values[len(first):], path)
    if not n:
        raise ValidationError(f"{path} holds no scenario rows")
    out = ScenarioSet(values=values[:n])
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
