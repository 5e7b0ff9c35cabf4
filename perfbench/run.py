"""dwturan benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dwturan is imported from its ``src/``.
Workloads: exact-clique, exact-pattern, construct, cli (see README.md).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics of a separate traced run. The line before it holds the run's
context (Python version, cores, seed, reference times) and the failure
ratio. The exit code is 1 when any output differs from its pin or breaks an
identity, 2 when the checkout has no ``src/dwturan``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import ROOT, SRC, child_env, pin_to_one_cpu, reference_s, speed_factor

MEASURE = os.path.join(ROOT, "perfbench", "measure.py")
SPANS_DIR = os.path.join(ROOT, "perfbench", "out")

# set-up is timed in this many processes that exit after set-up
SETUP_PROBES = 9
CLI_PROBE_SAMPLES = 11
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def start_measure(args, extra: list):
    """Start measure.py; returns (process, seconds until it printed ready)."""
    cmd = [sys.executable, MEASURE, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"measure.py failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc) -> list:
    """Wait for measure.py; returns the lines it printed after ready."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("measure.py timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited {proc.returncode}")
    return out.strip().splitlines()


def setup_probe(args) -> float:
    """Set-up time of one measure.py that exits after set-up, scaled by the
    host-speed reference timed just before it starts and after it exits."""
    ref_before = reference_s()
    proc, setup = start_measure(args, ["--setup-only"])
    finish(proc)
    return setup * speed_factor(ref_before, reference_s())


def cli_probes() -> dict:
    """Start-up costs from subprocess timing differences, one client at a time.

    The four commands are interleaved, and each difference is the median of
    the differences within a round, so that host drift cancels.
    """
    py = sys.executable
    exact = ["-m", "dwturan.cli", "exact", "--n", "4", "--forbidden", "K3", "--f", "pow:mu=1"]
    cmds = {
        "interp": [py, "-c", "pass"],
        "import": [py, "-c", "import dwturan.cli"],
        "workers1": [py, *exact[:2], "--workers", "1", *exact[2:]],
        "workers2": [py, *exact[:2], "--workers", "2", *exact[2:]],
    }
    times = {key: [] for key in cmds}
    for _ in range(CLI_PROBE_SAMPLES):
        for key, cmd in cmds.items():
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, check=True, timeout=60)
            times[key].append(time.perf_counter() - t0)
    def diff_ms(a, b):
        return 1000 * statistics.median(x - y for x, y in zip(times[a], times[b]))

    return {
        "cli.interp_ms": 1000 * statistics.median(times["interp"]),
        "cli.import_ms": diff_ms("import", "interp"),
        "cli.pool_overhead_ms": diff_ms("workers2", "workers1"),
    }


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "dwturan", "__init__.py")):
        print(f"no dwturan sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    cpu = pin_to_one_cpu()
    context = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "reference_s": [reference_s()],
    }
    try:
        if args.trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            proc, _setup = start_measure(args, ["--spans", spans])
            raw = json.loads(finish(proc)[-1])
            metrics = dict(raw["layers"], **cli_probes())
            metrics["trace.overhead_s"] = raw["overhead_s"]
        else:
            setup_s = statistics.median(setup_probe(args) for _ in range(SETUP_PROBES))
            proc, _setup = start_measure(args, [])
            raw = json.loads(finish(proc)[-1])
            raw["setup_s"] = setup_s
            metrics = {name: raw[name] for name in end_to_end}
            context.update(passes=raw["passes"], samples=raw["samples"],
                           unscaled_wall_s=raw["raw_wall_s"])
    except (RuntimeError, ValueError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    context["reference_s"].append(reference_s())
    attempted, failed = raw["attempted"], raw["failed"]
    print(json.dumps({"context": context, "fail_ratio": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
