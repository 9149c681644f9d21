"""Host-speed probe: a fixed kernel, independent of sysvar, timed between passes.

The reference machine shares its cores with other tenants, and the same pass
runs up to 40-70% slower for tens of seconds at a time while they are busy.
A 40 s run can fall wholly inside such a phase, so the median pass time of
a run says as much about the neighbours as about the program.  The probe runs
the kinds of work a pass does (small numpy calls in a Python loop, medium
array arithmetic, per-row Python grouping, dense pivoting, JSON and sorting)
for a fixed amount of work, right before and after every pass, outside the
timed window.  A pass time is scaled by ``REFERENCE_S`` over the mean of the
two probes around it: the seconds the pass would have taken at the probe
speed of the reference machine when quiet.  The probe does not touch sysvar,
so a change to the program moves the scaled time by the same factor as the
raw one.
"""

from __future__ import annotations

import json
import time

import numpy as np

# median probe time on the reference machine (see README.md) when quiet
REFERENCE_S = 0.20

_rng = np.random.default_rng(20240815)
_X = _rng.random((1000, 20))
_PI = _rng.random((20, 20)) / 25.0
_PBAR = np.ones(20)
_MASK = _X < 0.3
_M = _rng.random((24, 24)) + 24.0 * np.eye(24)
_DOC = {f"k{i}": [float(v) for v in _rng.random(30)] + [f"s{i}"] for i in range(200)}


def _small_calls() -> float:
    total = 0.0
    for _ in range(8000):
        total += float(np.minimum(1.0, _X[:5] @ _PI + _X[:5]).sum())
    return total


def _batched_iteration() -> None:
    for _ in range(150):
        p = np.tile(_PBAR, (1000, 1))
        for _ in range(5):
            p = np.minimum(_PBAR, _X + p @ _PI)
        np.abs(p).max()


def _row_grouping() -> None:
    for _ in range(12):
        groups: dict[tuple, list[int]] = {}
        for k in range(_MASK.shape[0]):
            groups.setdefault(tuple(np.flatnonzero(_MASK[k])), []).append(k)


def _pivoting() -> None:
    for _ in range(120):
        a = _M.copy()
        for j in range(a.shape[0]):
            a[j] /= a[j, j]
            rows = np.arange(a.shape[0]) != j
            a[rows] -= np.outer(a[rows, j], a[j])


def _json_sort() -> None:
    for _ in range(6):
        json.loads(json.dumps(_DOC))
        sorted(_DOC.items(), key=lambda kv: kv[1][0])


def probe() -> float:
    """Seconds taken by one fixed round of the probe kernel."""
    start = time.perf_counter()
    _small_calls()
    _batched_iteration()
    _row_grouping()
    _pivoting()
    _json_sort()
    return time.perf_counter() - start
