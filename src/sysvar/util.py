"""Shared helpers: error types, tolerances, formatting, structured logging
and atomic writes.

The library runs single-threaded.  A thread pool over membership and
convergence studies was measured about 2x slower than one thread, so none
is kept.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from collections.abc import Iterable

import numpy as np

log = logging.getLogger("sysvar")

# Violation semantics for the chance constraint: a scenario counts as a
# violation iff its aggregate payment is strictly below alpha - VIOL_TOL.
# Clearing totals carry ~1e-9 solver noise; the safe side keeps boundary
# points acceptable.
VIOL_TOL = 1e-9

# Default-classification tolerance: bank i defaults iff p_i < pbar_i - DEFAULT_TOL.
DEFAULT_TOL = 1e-9

# Bytes of one row-block array: the clearing kernel, the membership oracle
# and the sampler pass over N rows in blocks of ``row_block`` rows, so their
# working memory does not grow with N.
_BLOCK_BYTES = 512 << 10


class ValidationError(ValueError):
    """Malformed or inconsistent input parameters."""


class CapacityError(RuntimeError):
    """Problem dimension exceeds a hard capability limit."""


class SolverError(RuntimeError):
    """Internal numerical solver failure (cycling guard, residual blow-up)."""


def violates(value: float | np.ndarray, alpha: float) -> bool | np.ndarray:
    """Chance-constraint violation indicator shared by every code path.

    Takes one aggregate or an array of them (elementwise booleans)."""
    return value < alpha - VIOL_TOL


def max_violations(n: int, lam: float) -> int:
    """Largest admissible violation count: floor(N*lambda) with a float guard."""
    return int(math.floor(n * lam + 1e-9))


def required_hits(n: int, lam: float) -> int:
    """Chance-constraint RHS ceil(N*(1-lambda)), integer-tightened."""
    return n - max_violations(n, lam)


def row_block(d: int) -> int:
    """Rows per block of an N-row pass over d floats a row: as many as fit
    in ``_BLOCK_BYTES`` (3,276 at d = 20), at least one.  A row's results do
    not depend on the rows beside it, so the block size changes no bit."""
    return max(1, _BLOCK_BYTES // (8 * max(d, 1)))


def fmt17(x: float) -> str:
    """Format a float at 17 significant digits (exact round-trip); every NaN,
    whatever its sign or width, is "nan"."""
    return format(float(x), ".17g")


def log_event(event: str, level: int = logging.DEBUG, **fields) -> None:
    """Emit one JSON object per line on the package logger."""
    if log.isEnabledFor(level):
        log.log(level, json.dumps(jsonable({"event": event, **fields})))


def jsonable(obj):
    """obj with numpy arrays and scalars, tuples and nested containers
    turned into plain JSON values, and every NaN into None (null); the
    artifact writers and the log lines share it."""
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write a file atomically: stream the chunks to a temp file in the same
    directory, then rename it over `path`.  If a chunk fails, the temp file is
    removed and an existing `path` is left untouched."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sysvar-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write one string atomically (see `atomic_write_chunks`)."""
    atomic_write_chunks(path, (text,))


def frozen_array(values, name: str, dtype=float, copy: bool = True) -> np.ndarray:
    """``values`` as a read-only array, a copy or else a view, refused
    unless every entry is finite."""
    try:
        arr = np.array(values, dtype=dtype) if copy else np.asarray(values, dtype=dtype).view()
    except OverflowError as exc:  # an integer too large for a float
        raise ValidationError(f"{name} must be finite") from exc
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def frozen_whole(values, name: str) -> np.ndarray:
    """``values`` as a read-only int array, refused unless every entry is a
    whole number of magnitude at most 2**53 (where floats count exactly)."""
    arr = frozen_array(values, name)
    if np.any((arr != np.floor(arr)) | (np.abs(arr) > 2.0**53)):
        raise ValidationError(f"{name}: expected whole numbers of magnitude at most 2**53")
    return frozen_array(arr, name, dtype=int)
