"""Shared helpers: error types, tolerances, thread pool, structured logging."""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

log = logging.getLogger("sysvar")

# Violation semantics for the chance constraint: a scenario counts as a
# violation iff its aggregate payment is strictly below alpha - VIOL_TOL.
# Clearing totals carry ~1e-9 solver noise; the safe side keeps boundary
# points acceptable.
VIOL_TOL = 1e-9

# Default-classification tolerance: bank i defaults iff p_i < pbar_i - DEFAULT_TOL.
DEFAULT_TOL = 1e-9


class ValidationError(ValueError):
    """Malformed or inconsistent input parameters."""


class CapacityError(RuntimeError):
    """Problem dimension exceeds a hard capability limit."""


class SolverError(RuntimeError):
    """Internal numerical solver failure (cycling guard, residual blow-up)."""


def violates(value: float, alpha: float) -> bool:
    """Chance-constraint violation indicator shared by every code path."""
    return value < alpha - VIOL_TOL


def max_violations(n: int, lam: float) -> int:
    """Largest admissible violation count: floor(N*lambda) with a float guard."""
    return int(math.floor(n * lam + 1e-9))


def required_hits(n: int, lam: float) -> int:
    """Chance-constraint RHS ceil(N*(1-lambda)), integer-tightened."""
    return n - max_violations(n, lam)


def fmt17(x: float) -> str:
    """Format a float at 17 significant digits (exact round-trip)."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def parallel_map(fn, items, threads: int = 1):
    """Map `fn` over `items`, optionally on a thread pool.

    Results are gathered by index, so the output is identical to the
    sequential map regardless of thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def resolve_threads(requested: int | None) -> int:
    """Worker count: SYSVAR_THREADS overrides the flag, else one thread.

    One is the default because the thread pool was measured about 2x slower
    than a single thread on membership and convergence studies.
    """
    env = os.environ.get("SYSVAR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"SYSVAR_THREADS is not an integer: {env!r}") from exc
    if requested is not None and requested > 0:
        return requested
    return 1


def log_event(event: str, level: int = logging.DEBUG, **fields) -> None:
    """Emit one JSON object per line on the package logger."""
    if log.isEnabledFor(level):
        log.log(level, json.dumps({"event": event, **fields}, default=_json_default))


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return str(obj)


def atomic_write_text(path: str, text: str) -> None:
    """Write a file atomically: temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sysvar-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def as_array(values, name: str, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr
