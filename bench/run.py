"""Benchmark of the myotorque torque estimator: one workload per run.

    python3 bench/run.py --workload cv-knee --seed 1 --seconds 6 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same checkout; without it the run stops with exit code 2. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced on the named workload. With ``--trace 1`` they are the
per-layer ones: one traced round of every workload (each per-layer metric
belongs to one of them), plus the tracing overhead on the named workload,
whose outputs are checked.
See bench/README.md for the metrics, the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cv-knee", "session-roundtrip", "stream-replay", "train-free-scales")
SETUP_REPEATS = 3
# One BLAS thread: on a shared 2-core box two threads made the 300-row
# free-scale train 2.5x slower and its wall time far less repeatable.
BLAS_THREADS = "1"

END_TO_END = {
    "latency_p10_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    return parser.parse_args(argv)


def import_library() -> str | None:
    """Import myotorque from this checkout's source; the problem, if any."""
    if not (SRC / "myotorque" / "__init__.py").is_file():
        return f"no library source at {SRC / 'myotorque'}"
    sys.path.insert(0, str(SRC))
    import myotorque

    if not Path(myotorque.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"imported myotorque from {myotorque.__file__}, not from {SRC}"
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def low_percentile(values, q: float = 10.0) -> float:
    """Nearest-rank percentile: the fastest result when a run has few.

    A low percentile, not the median, because on a shared machine a
    neighbour's load slows a stretch of a run: across ten seeds the median
    stream tick spread 19-31 % in busy periods, the 10th percentile 8-12 %.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100.0) - 1)]


def untraced_run(wl, workload_name, ctx, seconds):
    workload = wl.WORKLOADS[workload_name](ctx)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)
    rounds = []
    t_start = perf_counter()
    while not rounds or perf_counter() - t_start < seconds:
        rounds.append(workload.run_round())
    peak = peak_rss_mb()
    problems = workload.check(rounds[-1])
    latencies = [t for r in rounds for t in r.latencies_s]
    metrics = {
        "latency_p10_ms": low_percentile(latencies) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
    }
    return (problems, sum(r.attempted for r in rounds), sum(r.failed for r in rounds),
            {name: (value, END_TO_END[name]) for name, value in metrics.items()})


def traced_run(wl, workload_name, ctx, trace_path):
    from tracing import LAYERS, SpanView, Tracer

    # The named workload goes last, so that its traced round and the
    # untraced round after it both run warm.
    order = sorted(wl.WORKLOADS, key=lambda name: name == workload_name)
    workloads = {name: wl.WORKLOADS[name](ctx) for name in order}
    for workload in workloads.values():
        workload.setup()

    tracer = Tracer()
    ctx.tracer = tracer
    rounds = {}
    with tracer.instrument(extra_modules=[wl]):
        for name, workload in workloads.items():
            with tracer.span(f"bench.{name}"):
                rounds[name] = workload.run_round()
    ctx.tracer = wl.NullTracer()
    tracer.write(trace_path)
    t0 = perf_counter()
    rounds[workload_name] = workloads[workload_name].run_round()
    untraced_s = perf_counter() - t0

    problems = workloads[workload_name].check(rounds[workload_name])
    view = SpanView(tracer.spans)
    metrics = {}
    for name, workload in workloads.items():
        metrics.update(workload.layer_metrics(view, view.segment(f"bench.{name}")))
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (view.layer_self_time(layer), "s")
    traced_s = float(view.duration[view.segment(f"bench.{workload_name}")])
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    last = rounds[workload_name]
    return problems, last.attempted, last.failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    problem = import_library()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    import workloads as wl

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ctx = wl.Context(seed=args.seed, size=wl.SIZES[args.size], work_dir=work_dir)
    try:
        if args.trace:
            trace_dir = ROOT / ".bench_traces"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
            problems, attempted, failed, metrics = traced_run(wl, args.workload, ctx, trace_path)
        else:
            problems, attempted, failed, metrics = untraced_run(wl, args.workload, ctx, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
