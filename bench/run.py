"""Time-to-answer benchmark for the sysvar pipeline.

    python3 bench/run.py --workload grid_clearing --seed 11 --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop: a single caller
runs passes back to back in this process, with ``--threads 1`` and one BLAS
thread, until the next pass would overrun ``--seconds``.  Each pass is timed
from outside and its outputs are checked afterwards, outside the timed
window.  Passes cycle over several scenario sets made from ``--seed``.  A
fixed host-speed probe (``hostspeed.py``) runs before the first pass and
after each one, and every time is scaled to the reference machine's quiet
speed by the probes around it.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (``tracing.py``) plus the
tracing overhead.  Human-readable lines come first, raw wall-clock times
among them; the last line of standard output is one JSON object.

Not measured: the worker thread pool (every run uses one thread) and
wall-clock scaling with threads, because the reference machine has two
shared cores and threads were measured to be slower there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path

# one solver thread and one BLAS thread, set before numpy loads: a second
# BLAS thread competes for the two shared cores and made the large batch's
# times swing
os.environ["SYSVAR_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# scenario sets per run; pass i uses set i mod SETS (one set when tracing,
# so traced passes repeat the same work and their counts must agree).  The
# branch-and-bound LP count varies by about 20% from set to set, so the
# reported time averages over many sets instead of resting on a few draws.
SETS = 12
END_TO_END_UNITS = {"setup_s": "s", "answer_p50_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.overhead_frac": "frac", "trace.pass_s": "s", "trace.absent_bindings": "count"}
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import sysvar.cli"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="scenario seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def blas_threads() -> int | None:
    """Thread count of the scipy-openblas build that numpy loaded, if any."""
    import numpy
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class SetupClock:
    """Set-up time: a cold import of the library in a fresh interpreter plus
    the workload's input generation and warm-up.  It is sampled
    SETUP_REPEATS times, once before the first pass and then between passes,
    so that the samples are spread over the run.  Each sample is scaled by
    the host-speed probe taken just before it; the sum of the two medians is
    reported."""

    def __init__(self, workload):
        self.workload = workload
        self.imports: list[float] = []
        self.inputs: list[float] = []

    def sample(self, probe_s: float) -> None:
        if len(self.imports) >= SETUP_REPEATS:
            return
        cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
        scale = hostspeed.REFERENCE_S / probe_s
        self.imports.append(scale * timed(lambda: subprocess.run(cmd, check=True, timeout=120)))
        self.inputs.append(scale * timed(self.workload.setup))

    def seconds(self) -> float:
        imports, inputs = statistics.median(self.imports), statistics.median(self.inputs)
        print(f"# setup: import {imports:.3f} s, inputs {inputs:.3f} s"
              f" (scaled medians of {len(self.imports)})")
        return imports + inputs


@dataclass
class Pass:
    scenario_set: int
    traced: bool
    seconds: float    # wall clock
    probe_s: float    # mean of the host-speed probes before and after

    @property
    def scaled(self) -> float:
        return self.seconds * hostspeed.REFERENCE_S / self.probe_s


def closed_loop(workload, seconds: float, tracer, between) -> tuple[list[Pass], int, float]:
    """Run passes back to back; with a tracer, alternate untraced and traced.

    A host-speed probe runs before the first pass and after each pass.  Then
    the pass's outputs are checked and `between` runs with the latest probe
    time, all outside the timed window.  Stops once the elapsed time plus a
    typical pass would exceed `seconds`, but not before every scenario set
    has had an untraced pass and, with a tracer, there is a traced one.
    Returns the passes, the failed pass count, and the peak resident set in
    MB when the first pass ended, which unlike the peak at exit does not
    grow with the number of passes.
    """
    passes: list[Pass] = []
    failed = 0
    first_rss_mb = 0.0
    start = time.perf_counter()
    probe_s = hostspeed.probe()
    sets = len(workload.seeds)
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        scenario_set = workload.passes % sets
        out = None
        t0 = time.perf_counter()
        try:
            with tracer.traced_pass() if traced else nullcontext():
                out = workload.run_pass()
        except (Exception, SystemExit):
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if not passes:
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after_s = hostspeed.probe()
        passes.append(Pass(scenario_set, traced, elapsed, (probe_s + after_s) / 2))
        probe_s = after_s
        problems = ["pass raised"] if out is None else []
        if out is not None:
            try:
                problems = workload.check(out)
            except Exception:
                traceback.print_exc()
                problems = ["check raised"]
        if problems:
            failed += 1
            print(f"# pass {len(passes)} failed: " + "; ".join(problems), file=sys.stderr)
        between(probe_s)
        done = time.perf_counter() - start
        typical = statistics.median(p.seconds for p in passes)
        covered = {p.scenario_set for p in passes if not p.traced}
        have_all = len(covered) == sets and (tracer is None or any(p.traced for p in passes))
        if have_all and done + typical > seconds:
            return passes, failed, first_rss_mb


def answer_seconds(passes: list[Pass]) -> float:
    """Mean over scenario sets of the median scaled time of a set's passes."""
    by_set: dict[int, list[float]] = {}
    for p in passes:
        by_set.setdefault(p.scenario_set, []).append(p.scaled)
    return statistics.mean(statistics.median(times) for times in by_set.values())


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "sysvar" / "__init__.py").is_file():
        print(f"bench: no sysvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sysvar
    if Path(sysvar.__file__).resolve().parent != SRC / "sysvar":
        print(f"bench: imported sysvar from {sysvar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import METRICS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = dict(END_TO_END_UNITS) if args.trace == 0 else {
        **{name: unit for name, (unit, _) in METRICS.items()}, **TRACE_UNITS}
    declared = declared_units("end_to_end" if args.trace == 0 else "per_layer")
    if declared != units:
        print(f"bench: BENCHMARK.json declares {declared}, benchmark reports {units}",
              file=sys.stderr)
        return 1

    print("# machine " + json.dumps(machine_facts()))
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sets = SETS if args.trace == 0 else 1
        workload = WORKLOADS[args.workload](work, [args.seed * SETS + k for k in range(sets)])
        setup = SetupClock(workload)
        setup.sample(hostspeed.probe())
        tracer = Tracer() if args.trace else None
        between = setup.sample if tracer is None else (lambda probe_s: None)
        passes, failed, rss_mb = closed_loop(workload, args.seconds, tracer, between)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()   # only succeeds once no other run uses it

    correct = failed == 0
    attempted = len(passes)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if tracer is None:
        values = {
            "setup_s": setup.seconds(),
            "answer_p50_s": answer_seconds(untraced),
            "peak_rss_mb": rss_mb,
        }
        notes = {}
    else:
        values, unstable = tracer.summary()
        if unstable:
            correct = False
            print("# counts differ between passes on the same inputs: " + ", ".join(unstable),
                  file=sys.stderr)
        traced_p50 = statistics.median(p.scaled for p in traced)
        untraced_p50 = statistics.median(p.scaled for p in untraced)
        values["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
        values["trace.pass_s"] = statistics.median(p.seconds for p in traced)
        values["trace.absent_bindings"] = len(tracer.absent)
        notes = {name: "absent" for name in tracer.absent_metrics}
        for binding in tracer.absent:
            print(f"# absent binding {binding}")

    print(f"# workload {args.workload} seed {args.seed}: {attempted} passes, {failed} failed")
    for group, label in ((untraced, "untraced"), (traced, "traced")):
        if group:
            print(f"# {label} passes (set: wall s / scaled s): " + " ".join(
                f"{p.scenario_set}:{p.seconds:.3f}/{p.scaled:.3f}" for p in group))
    probes = [p.probe_s for p in passes]
    print(f"# host-speed probe: median {statistics.median(probes):.4f} s, range"
          f" {min(probes):.4f}-{max(probes):.4f} s, reference {hostspeed.REFERENCE_S} s")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    # printed, not gated: wall-clock times swing with the other tenants, the
    # slowest pass more than any allowed bound, and the failure fraction is 0
    # when the program is correct
    print(f"answer_wall_p50_s {statistics.median(p.seconds for p in untraced):.6g} s"
          f"  (unscaled median of {len(untraced)} untraced passes)")
    print(f"answer_max_s {max(p.scaled for p in untraced):.6g} s"
          f"  (slowest of {len(untraced)} untraced passes, scaled)")
    print(f"failed_frac {failed / attempted:.6g} frac  ({failed} of {attempted} passes)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
