"""Paths, the child-process environment and the host-speed reference shared
by the benchmark scripts."""

from __future__ import annotations

import os
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Reported times are scaled to a host on which reference_work() takes this
# long; see reference_s().
REFERENCE_NOMINAL_S = 0.003


def child_env(**extra: str) -> dict:
    """This process's environment with ``src/`` first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return env


def pin_to_one_cpu() -> int:
    """Run this process, and every child it starts, on one core.

    The reference is timed in this process; on one core it measures the
    speed that the core gives the tasks and the children timed beside it.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _mix(a: int, b: int) -> int:
    return (a | b) & ~(a & b)


def reference_work() -> tuple:
    """A fixed piece of pure-Python work of the kind dwturan does: rational
    sums, int bit operations, function calls, set, dict and list building."""
    total, acc, seen, table = Fraction(0), 0, set(), {}
    for i in range(1, 800):
        total += Fraction(i % 13, i % 97 + 1)
        acc = _mix(acc, i * 2654435761 & 0xFFFF)
        seen.add(acc & 1023)
        table[i & 127] = [x for x in range(i & 7)]
    return total, acc, len(seen)


def reference_s() -> float:
    """Wall time of reference_work() now.

    The shared host's speed drifts by up to two times over seconds and
    minutes, and the tasks slow with it. A timed task is scaled by
    REFERENCE_NOMINAL_S over the mean of the reference times just before
    and just after it, which cancels most of that drift.
    """
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Scale for a time measured between two reference times."""
    return REFERENCE_NOMINAL_S / ((before + after) / 2)
