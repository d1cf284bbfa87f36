"""Benchmark of the mealtwin program, timed from outside.

    python3 perfbench/run.py --workload train|eval|city --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from its
``src`` directory.  With ``--trace 0`` the run repeats its unit of work for
about S seconds, setting the workload up afresh before each unit, and reports
the end-to-end metrics.  With ``--trace 1`` it runs set-up and the first unit
once untraced and once with every layer span installed, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the result object; the line before it is a report with the
environment, sample counts, failed share, traffic and artifact digests.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import SPANS, Tracer, Traffic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_run"

# The workload is set up afresh before every unit, repeatedly for at least
# SETUP_SLICE_S, so that set-up is sampled across the whole run as the units
# are: the host's speed swings by tens of percent over tens of seconds.  The
# median of at least MIN_SETUPS set-ups is reported.
MIN_SETUPS = 3
SETUP_SLICE_S = 0.1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "eval", "city"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def openblas_info():
    """(version string, thread count) of the OpenBLAS numpy loaded, if any."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), get_threads()
    return None, None


def environment(seed: int) -> dict:
    import numpy as np

    blas, threads = openblas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "openblas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def p99(values):
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def traffic_counts(traffic) -> dict:
    return {
        "shifts": traffic.shifts,
        "simcore.events_per_shift": traffic.events / max(traffic.shifts, 1),
        "simulated_minutes": traffic.minutes,
        "dispatch.decisions": traffic.dispatch_decisions,
        "dispatch.assign_share": traffic.assignments / max(traffic.dispatch_decisions, 1),
        "steering.decisions": traffic.steer_decisions,
        "steering.move_share": traffic.moves / max(traffic.steer_decisions, 1),
    }


def set_up(workload, seed: int, setup_times: list):
    """Set the workload up for at least SETUP_SLICE_S; returns the last state."""
    clock = time.perf_counter
    deadline = clock() + SETUP_SLICE_S
    while True:
        t0 = clock()
        state = workload.setup(seed)
        t1 = clock()
        setup_times.append(t1 - t0)
        if t1 >= deadline:
            return state


def timed_run(workload, args, outdir: Path):
    clock = time.perf_counter
    setup_times = []
    latencies = []
    attempted = failed = 0
    digests = {}
    unit_times = []
    with Traffic().active() as traffic:
        while True:
            state = set_up(workload, args.seed, setup_times)
            t0 = clock()
            unit = workload.unit(state, args.seed, len(unit_times), outdir, latencies, traffic)
            unit_times.append(clock() - t0)
            attempted += unit.attempted
            failed += unit.failed
            digests = digests or unit.digests
            # Stop before a unit that would end past the deadline.
            if sum(unit_times) + statistics.fmean(unit_times) > args.seconds:
                break
    while len(setup_times) < MIN_SETUPS:
        set_up(workload, args.seed, setup_times)
    wall = sum(unit_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "shifts_per_s": ((attempted - failed) / wall, "1/s"),
        "decision_p50_us": (statistics.median(latencies) * 1e6, "us"),
        "decision_p99_us": (p99(latencies) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "samples": {
            "setups": len(setup_times),
            "units": len(unit_times),
            "operations": attempted,
            "decisions": len(latencies),
        },
        "wall_s": wall,
        "traffic": traffic_counts(traffic),
        "digests_unit0": digests,
    }
    return attempted, failed, failed == 0, metrics, report


def traced_run(workload, args, outdir: Path):
    clock = time.perf_counter
    for part in ("untraced", "traced"):
        (outdir / part).mkdir()
    t0 = clock()
    with Traffic().active() as traffic:
        state = workload.setup(args.seed)
        plain = workload.unit(state, args.seed, 0, outdir / "untraced", [], traffic)
    untraced_s = clock() - t0

    tracer = Tracer()
    t0 = clock()
    with Traffic().active() as traffic, tracer.active():
        state = workload.setup(args.seed)
        traced = workload.unit(state, args.seed, 0, outdir / "traced", [], traffic)
    traced_s = clock() - t0

    missing = tracer.missing(workload.name)
    same_digests = plain.digests == traced.digests
    correct = plain.failed == 0 and traced.failed == 0 and same_digests and not missing
    metrics = {}
    for name, _, _ in SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    counts = traffic_counts(traffic)
    metrics["simcore.gap_field.calls_per_minute"] = (
        tracer.calls["simcore.gap_field"] / max(traffic.minutes, 1), "1/min"
    )
    for name in ("dispatch.decisions", "steering.decisions"):
        metrics[name] = (counts[name], "count")
    for name in ("dispatch.assign_share", "steering.move_share"):
        metrics[name] = (counts[name], "share")
    metrics["simcore.events_per_shift"] = (counts["simcore.events_per_shift"], "count")
    metrics["trainer.episodes"] = (traced.counts["trainer.episodes"], "count")
    metrics["trainer.learn_updates"] = (traced.counts["trainer.learn_updates"], "count")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    report = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_missing": missing,
        "digests_match": same_digests,
        "traffic": counts,
        "digests_unit0": traced.digests,
    }
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return attempted, failed, correct, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mealtwin" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mealtwin

    if SRC not in Path(mealtwin.__file__).resolve().parents:
        print(f"perfbench: imported mealtwin from outside {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    try:
        workloads.verify_inputs(workload.inputs)
    except (workloads.InputError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        run = traced_run if args.trace else timed_run
        attempted, failed, correct, metrics, report = run(workload, args, Path(tmp))
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run is still using it

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "failed_share": failed / attempted,
        **report,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
