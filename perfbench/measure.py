"""Measurement process for one workload; started by run.py, one per run.

It sets up the workload, prints ``ready`` (the parent times set-up up to
that line), then runs passes over the task list and prints one JSON line of
raw results. With ``--setup-only`` it exits after ``ready``.

A pass runs every task once. A run makes passes while the next one is
predicted to end within ``--seconds``, and always at least the workload's
``min_passes``; run.py's time-out bounds a run on a very slow host.
Every output is checked after its task's clock stops. The host-speed
reference is timed before the first task and after every task, and each
task's times are scaled by it (see ``common.reference_s``).

With ``--trace 1`` it makes an untraced, a traced and another untraced
pass instead, all with one worker, and reports per-layer numbers from the
traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads
from common import reference_s, speed_factor


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children.

    The process's own time comes from its CPU clock, which is finer than the
    clock ticks getrusage counts in; tasks can be a few tens of milliseconds.
    """
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def run_pass(workload, pins, tracer=None) -> list:
    """One pass; returns (task name, wall s, cpu s, ok, speed factor) per task."""
    tasks = list(workload.tasks)
    if workload.order_rng is not None:
        workload.order_rng.shuffle(tasks)
    records = []
    ref_before = reference_s()
    for index, task in enumerate(tasks):
        gc.collect()
        if tracer is not None:
            tracer.task = index
            tracer.enabled = True
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception:  # a raising task is a failed task; the run goes on
            out = None
            errors = [traceback.format_exc()]
        else:
            errors = None
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        if tracer is not None:
            tracer.enabled = False
        ref_after = reference_s()
        if errors is None:
            errors = workloads.check(task, out, pins)
        out = None  # the next task's peak memory should not include this output
        for e in errors:
            print(f"FAILED {task.name}: {e}", file=sys.stderr)
        records.append((task.name, t1 - t0, c1 - c0, not errors,
                        speed_factor(ref_before, ref_after)))
        ref_before = ref_after
    return records


def summarize(records: list, per_call_latency: bool) -> dict:
    """Per-pass wall and CPU time, and call latency, from the run's records.

    Every time is scaled by its speed factor. A task's time is the median
    over the run's passes, and a pass's time the sum of its tasks' times.
    """
    walls, cpus = {}, {}
    for name, wall, cpu, _ok, factor in records:
        walls.setdefault(name, []).append(wall * factor)
        cpus.setdefault(name, []).append(cpu * factor)
    if per_call_latency:
        latencies = sorted(v for per_task in walls.values() for v in per_task)
    else:
        latencies = sorted(statistics.median(v) for v in walls.values())
    n = len(latencies)
    # p90 by nearest rank: a cli run makes at least 100 calls, so at least
    # ten lie beyond it, and a fixed percentile does not move with the
    # number of calls that fit into a run
    tail_index = math.ceil(0.9 * n) - 1
    return {
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "cli_p50_ms": 1000 * statistics.median(latencies),
        "cli_tail_ms": 1000 * latencies[tail_index],
        "raw_wall_s": sum(statistics.median(r[1] for r in records if r[0] == name)
                          for name in walls),
        "samples": n,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r[3]),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (kB on Linux)."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (s + c) / 1024


def measure(workload, pins, seconds: float) -> dict:
    records = []
    passes = 0
    start = time.perf_counter()
    while True:
        records += run_pass(workload, pins)
        passes += 1
        if passes == 1:
            # later passes can raise the peak through heap fragmentation
            # alone, so the peak is taken over set-up and the first pass
            rss = peak_rss_mb()
        # the next pass is predicted to take the mean pass time
        predicted_end = (time.perf_counter() - start) * (passes + 1) / passes
        if passes >= workload.min_passes and predicted_end > seconds:
            break
    out = summarize(records, workload.per_call_latency)
    out["passes"] = passes
    out["peak_rss_mb"] = rss
    return out


def measure_traced(workload, pins, spans_path: str) -> dict:
    untraced = run_pass(workload, pins)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, pins, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, [r[0] for r in traced])
    # untraced passes on both sides of the traced one, each task taking the
    # mean of the two, so that a drift of host speed during the run cancels
    untraced += run_pass(workload, pins)
    records = untraced + traced
    return {
        "layers": tracer.metrics(),
        "overhead_s": (sum(r[1] * r[4] for r in traced)
                       - summarize(untraced, per_call_latency=False)["wall_s"]),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r[3]),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()

    pins = workloads.load_pins()
    workload = workloads.build(args.workload, args.seed, in_process=bool(args.trace))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = measure_traced(workload, pins, args.spans)
    else:
        result = measure(workload, pins, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
