"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` (which fixes ``PYTHONHASHSEED``, single-threaded
BLAS and ``PYTHONPATH=src``); prints the result JSON as its last line.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` spends
half the run untraced and half traced and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from measure import Measure

HERE = os.path.dirname(os.path.abspath(__file__))
#: set-up runs this many times per run, once before the timed phase and
#: the rest after it; the imports are timed in this many processes, this
#: one and fresh ones started after the timed phase.  setup_s adds the
#: two medians, which sample the machine's speed at both ends of the run,
#: so one slow stretch or one slow start does not move it.
SETUP_REPEATS = 3
IMPORT_SAMPLES = 3


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="monotonic time at which run.py started this process")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads  # imports the program's serving stack

    imports = [time.monotonic() - args.spawned]

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work_dir)
        durations = [timed_setup(workload)]
        if args.trace:
            metrics = traced_run(workload, args, root)
        else:
            measured = workload.measure(args.seconds)
            durations += [timed_setup(workload) for _ in range(SETUP_REPEATS - 1)]
            imports += [import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
            setup_s = statistics.median(imports) + statistics.median(durations)
            metrics = end_to_end(measured, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in workload.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def timed_setup(workload) -> float:
    start = time.monotonic()
    workload.setup()
    return time.monotonic() - start


def import_seconds() -> float:
    """Seconds from spawning a fresh process to the end of its imports."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), repr(time.monotonic())],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(m: Measure, setup_s: float) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = max(m.ops, 1)
    return {
        "throughput_rps": _metric(ops / (m.busy_s or m.wall_s), "1/s"),
        "latency_p50_ms": _metric(1000.0 * float(np.quantile(m.latencies, 0.5)), "ms"),
        "latency_p90_ms": _metric(1000.0 * float(np.quantile(m.latencies, 0.9)), "ms"),
        "cpu_ms_per_req": _metric(1000.0 * m.cpu_s / ops, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


#: per-layer time metrics: metric name -> layer whose self time it reports.
LAYER_TIMES = {
    "protocol.decode_ms": "protocol.decode",
    "protocol.encode_ms": "protocol.encode",
    "pipeline.self_ms": "pipeline",
    "engine.self_ms": "engine",
    "fingerprint.ms": "fingerprint",
    "cache.ms": "cache",
    "serialize.ms": "serialize",
    "binding.ms": "binding",
    "arena.ms": "arena",
    "quality.ms": "quality",
    "verify.ms": "verify",
    "binary.ms": "binary",
    "replay.decode_ms": "replay.decode",
    "replay.loop_self_ms": "replay.loop",
    "fleet.route_ms": "fleet.route",
    "request.other_ms": "request",
}


def _ratio(counts: dict, hits: str, lookups: str) -> float:
    total = counts.get(lookups, 0)
    return counts.get(hits, 0) / total if total else 0.0


def traced_run(workload, args, root: str) -> dict:
    from tracing import Tracer

    half = args.seconds / 2.0
    plain = workload.measure(half)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.measure(half, tracer=tracer)
    finally:
        tracer.uninstall()
    for name in sorted(tracer.missing):
        print(f"trace: {name} not found, reads as zero calls", file=sys.stderr)
    per_op = 1000.0 / max(traced.ops, 1)
    selfs = tracer.self_seconds()
    counts = tracer.counts
    metrics = {name: _metric(selfs.get(layer, 0.0) * per_op, "ms") for name, layer in LAYER_TIMES.items()}
    total_self = sum(selfs.values())
    metrics.update(
        {
            "protocol.decode_kb": _metric(counts.get("protocol.decode_kb", 0.0) / max(traced.ops, 1), "KB"),
            "pipeline.queue_wait_ms": _metric(_mean(traced.queue_waits) * 1000.0, "ms"),
            "loadgen.lag_ms": _metric(_mean(traced.lags) * 1000.0, "ms"),
            "fingerprint.kb_hashed": _metric(counts.get("fingerprint.kb_hashed", 0.0) / max(traced.ops, 1), "KB"),
            "cache.hit_ratio": _metric(_ratio(counts, "cache.hits", "cache.lookups"), "ratio"),
            "serialize.kb": _metric(counts.get("serialize.kb", 0.0) / max(traced.ops, 1), "KB"),
            "binding.proposals": _metric(_ratio(counts, "binding.proposals", "binding.solves"), "count"),
            "binding.share": _metric(selfs.get("binding", 0.0) / total_self if total_self else 0.0, "ratio"),
            "arena.instances": _metric(_ratio(counts, "arena.instances", "arena.calls"), "count"),
            "arena.peak_mb": _metric(workload.arena_peak_mb(), "MB"),
            "verify.verdict_hit_ratio": _metric(_ratio(counts, "verdict.hits", "verdict.lookups"), "ratio"),
            "fleet.shard_hit_ratio": _metric(traced.extra.get("shard_hit_ratio", 0.0), "ratio"),
            "trace.overhead_ms": _metric(
                1000.0 * (_cpu_per_op(traced) - _cpu_per_op(plain)), "ms"
            ),
        }
    )
    trace_dir = os.path.join(root, ".perfbench-work", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    return metrics


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _cpu_per_op(m: Measure) -> float:
    return m.cpu_s / max(m.ops, 1)


if __name__ == "__main__":
    sys.exit(main())
