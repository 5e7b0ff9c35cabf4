"""The four benchmark workloads as lists of timed tasks with output checks.

Three call dwturan in-process: ``exact-clique``, the search on cliques
(clique test, three numeric modes); ``exact-pattern``, the search on other
patterns (incremental matcher); ``construct``, the constructions that
bypass the search. ``cli`` runs the command line in fresh subprocesses.

Importing this module imports ``dwturan`` from ``src/`` of the checkout, so
the import counts toward set-up time. ``build`` does the rest of the set-up:
it parses the graph and weight specs and generates the seeded inputs.

Each task has a name (unique across workloads, and the key of its entry in
``pins.json``), a thunk that does the timed work, a ``digest`` of the output
that is compared with the pin recorded at the commit that defined the
benchmark, and a ``verify`` that checks identities which hold independently
of any pin.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from common import ROOT, SRC, child_env

sys.path.insert(0, SRC)

import dwturan as dw  # noqa: E402
from dwturan import cli  # noqa: E402

PINS_PATH = os.path.join(ROOT, "perfbench", "pins.json")

WORKLOADS = ("exact-clique", "exact-pattern", "construct", "cli")

CONSTRUCT_WEIGHTS = (
    "pow:mu=2",
    "half",
    "step:0:0;3:1;50:2;200:5",
    "log:floor=0",
    "staircase:c=0.5,seeds=9;100,base=1",
)
NORM_FIELDS_WITH_KAB = ((13, 2), (11, 2), (7, 2), (5, 2), (3, 2),
                        (2, 3), (3, 3), (5, 3), (2, 4))
NORM_FIELDS_ALONE = ((7, 3),)
COUNTEREXAMPLE_WEIGHT = "staircase:c=0.5,seeds=9,base=1"

# README-sized commands, one of each subcommand at least; the README's
# `ratio --nmax 7` takes about 2 s per call, so the ratio rows stop at 6.
# Calls fall into clusters: four without a pool (start-up only), five with
# a two-worker pool, the C5 ratio, and the two counterexamples. The median
# falls at 41% of the pool cluster, and the p90 tail inside the
# counterexample cluster, rather than at the edge of a cluster, where the
# percentile would jump between clusters from run to run.
CLI_COMMANDS = (
    ("--workers", "2", "exact", "--n", "5", "--forbidden", "K3", "--f", "pow:mu=1"),
    ("--workers", "2", "exact", "--n", "5", "--forbidden", "C4", "--f", "pow:mu=2"),
    ("--workers", "2", "exact", "--n", "5", "--forbidden", "P4", "--f", "pow:mu=2"),
    ("--workers", "2", "exact", "--n", "5", "--forbidden", "K4", "--f", "half"),
    ("exprime", "--n", "4", "--k", "2", "--f", "pow:mu=4"),
    ("--workers", "2", "ratio", "--nmin", "4", "--nmax", "6", "--forbidden", "C5",
     "--f", "pow:mu=2"),
    ("--format", "csv", "--workers", "2", "ratio", "--nmin", "3", "--nmax", "5",
     "--forbidden", "K4", "--f", "half"),
    ("majorize", "--graph", "Dhc", "--r", "3"),
    ("normgraph", "--q", "3", "--t", "2"),
    ("counterexample", "--q", "3", "--t", "2", "--s", "3", "--f", COUNTEREXAMPLE_WEIGHT),
    ("counterexample", "--q", "3", "--t", "2", "--s", "4", "--f", COUNTEREXAMPLE_WEIGHT),
    ("checkf", "--f", COUNTEREXAMPLE_WEIGHT, "--range", "1:64", "--growth-c", "0.5"),
)


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    digest: Callable[[object], Optional[dict]] = lambda out: None
    verify: Callable[[object], list] = lambda out: []


@dataclass
class Workload:
    name: str
    tasks: list
    # shuffles the task order of every pass when set
    order_rng: Optional[random.Random] = None
    # latency samples are single calls (cli) or each task's median pass
    per_call_latency: bool = False
    # a run makes at least this many passes, and more while the next one is
    # predicted to end within --seconds
    min_passes: int = 5


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def _value(v: "dw.ObjectiveValue") -> str:
    """Exact value as a rational string, else the float's repr."""
    return str(v.exact) if v.is_exact else repr(v.approx)


def _same_value(a: "dw.ObjectiveValue", b: "dw.ObjectiveValue") -> bool:
    # float sums grouped differently may differ in the last bits
    if a.is_exact and b.is_exact:
        return a.exact == b.exact
    return math.isclose(a.approx, b.approx, rel_tol=1e-12, abs_tol=1e-12)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _graph_digest(G: "dw.Graph") -> dict:
    return {"n": G.n, "edges": G.num_edges,
            "graph6_sha256": _sha(dw.graph6_encode(G))}


def _partition_digest(res: "dw.PartitionOptimum") -> dict:
    return {"value": _value(res.value), "witness": list(res.witness),
            "ties_flag": res.ties_flag}


# ---------------------------------------------------------------------------
# exact-clique and exact-pattern: the search on cliques and on other patterns


def _exact_task(spec: str, n: int, weight: str, cross_check_parts: Optional[int]) -> Task:
    F = cli.parse_graph_spec(spec)
    f = dw.parse_weight(weight)

    def digest(res):
        return {"value": _value(res.value),
                "witness_graph6": dw.graph6_encode(res.witness),
                "nodes": res.nodes_explored}

    def verify(res):
        if cross_check_parts is None:
            return []
        multi = dw.ex_prime(n, cross_check_parts, f)
        if not _same_value(res.value, multi.value):
            return [f"ex_exact {res.value} != ex_prime {multi.value}"]
        return []

    return Task(name=f"ex_exact {spec} n={n} f={weight}",
                run=lambda: dw.ex_exact(n, F, f, workers=1),
                digest=digest, verify=verify)


def _exact_clique() -> list:
    tasks = []
    for r in (3, 4):
        for n, weight in ((7, "pow:mu=2"), (6, "half"), (7, "log:floor=0")):
            tasks.append(_exact_task(f"K{r}", n, weight, cross_check_parts=r - 1))
    return tasks


def _exact_pattern() -> list:
    return [_exact_task(spec, 6, "pow:mu=2", cross_check_parts=None)
            for spec in ("C4", "C5", "P5", "K3s:2")]


# ---------------------------------------------------------------------------
# construct: the non-search layers


def _prime_task(n: int, k: int, weight: str) -> Task:
    f = dw.parse_weight(weight)
    return Task(name=f"ex_prime n={n} k={k} f={weight}",
                run=lambda: dw.ex_prime(n, k, f), digest=_partition_digest)


def _enumerated_task(n: int, k: int, weight: str) -> Task:
    f = dw.parse_weight(weight)

    def verify(res):
        dp = dw.ex_prime(n, k, f)
        if not _same_value(dp.value, res.value) or dp.witness != res.witness:
            return [f"ex_prime {dp.value} {dp.witness} != enumerated "
                    f"{res.value} {res.witness}"]
        return []

    return Task(name=f"ex_prime_enumerated n={n} k={k} f={weight}",
                run=lambda: dw.ex_prime_enumerated(n, k, f),
                digest=_partition_digest, verify=verify)


def _chain_task(index: int, G: "dw.Graph", r: int, weight: str) -> Task:
    f = dw.parse_weight(weight)

    def run():
        res = dw.erdos_majorizer(G, r)
        return dw.verify_majorization(G, res), dw.theorem1_chain(G, r, f)

    def verify(out):
        dominated, chain = out
        errors = []
        if not dominated:
            errors.append("verify_majorization failed")
        if not (chain.holds_first and chain.holds_second):
            errors.append(f"chain broken: {chain}")
        oracle = dw.ex_prime_enumerated(G.n, r - 1, f).value
        if not _same_value(chain.value_optimum, oracle):
            errors.append(f"chain optimum {chain.value_optimum} != enumerated {oracle}")
        return errors

    return Task(name=f"theorem1_chain #{index} n={G.n} r={r} f={weight}",
                run=run, verify=verify)


def _norm_task(q: int, t: int, with_kab: bool) -> Task:
    pairs = ((t, t), (t, math.factorial(t) + 1)) if with_kab else ()

    def run():
        G = dw.norm_graph(q, t)
        return G, [dw.kab_free_check(G, a, b) for a, b in pairs]

    def digest(out):
        G, kab = out
        return dict(_graph_digest(G), kab_free=kab)

    def verify(out):
        _G, kab = out
        if with_kab and not kab[1]:
            return [f"norm graph ({q},{t}) not K_{{{pairs[1][0]},{pairs[1][1]}}}-free"]
        return []

    label = "norm_graph+kab" if with_kab else "norm_graph"
    return Task(name=f"{label} q={q} t={t}", run=run, digest=digest, verify=verify)


def _counterexample_task(s: int) -> Task:
    argv = ["--workers", "1", "counterexample", "--q", "3", "--t", "2",
            "--s", str(s), "--f", COUNTEREXAMPLE_WEIGHT]

    def digest(out):
        code, report = out
        return {"exit": code, "report_sha256": _sha(json.dumps(report, sort_keys=True))}

    def verify(out):
        code, report = out
        if code != 0:
            return [f"exit {code}: {report}"]
        result = report["result"]
        if not (result["forbidden_free"] and result["gap"]["exceeds"]):
            return [f"counterexample lost its properties: {result}"]
        return []

    return Task(name=f"cli.run counterexample q=3 t=2 s={s}",
                run=lambda: cli.run(argv), digest=digest, verify=verify)


def _group(name: str, parts: list) -> Task:
    """One timed task made of several calls, each checked on its own.

    Calls of a few milliseconds are grouped so that the fixed cost of each
    timed task (a garbage collection and two clock reads) stays small.
    """
    def digest(outs):
        digests = {p.name: p.digest(o) for p, o in zip(parts, outs)}
        return None if all(d is None for d in digests.values()) else digests

    def verify(outs):
        return [f"{p.name}: {e}" for p, o in zip(parts, outs) for e in p.verify(o)]

    return Task(name=name, run=lambda: [p.run() for p in parts],
                digest=digest, verify=verify)


def _construct(seed: int) -> list:
    tasks = []
    for weight in CONSTRUCT_WEIGHTS:
        if weight == "half":
            # the Fraction DP is about 25 times slower than the others
            tasks += [_prime_task(120, k, weight) for k in range(2, 6)]
        else:
            tasks.append(_group(f"ex_prime n=400 k=2..5 f={weight}",
                                [_prime_task(400, k, weight) for k in range(2, 6)]))
        tasks.append(_group(f"ex_prime_enumerated n=60 k=2..5 f={weight}",
                            [_enumerated_task(60, k, weight) for k in range(2, 6)]))
    rng = random.Random(seed)
    index = 0
    for r in (3, 4, 5):
        chains = []
        for _ in range(10):
            n = rng.randint(30, 60)
            G = dw.random_kr_free_graph(n, r, rng.uniform(0.2, 0.9), rng)
            weight = CONSTRUCT_WEIGHTS[index % len(CONSTRUCT_WEIGHTS)]
            chains.append(_chain_task(index, G, r, weight))
            index += 1
        tasks.append(_group(f"theorem1_chain r={r}", chains))
    for label, ts in (("2", (2,)), ("3..4", (3, 4))):
        tasks.append(_group(f"norm_graph+kab t={label}", [
            _norm_task(q, t, True) for q, t in NORM_FIELDS_WITH_KAB if t in ts]))
    tasks += [_norm_task(q, t, False) for q, t in NORM_FIELDS_ALONE]
    tasks.append(_counterexample_task(3))
    return tasks


# ---------------------------------------------------------------------------
# cli


def _cli_digest(out) -> dict:
    code, stdout = out[0], out[1]
    return {"exit": code, "stdout_sha256": _sha(stdout)}


def _cli_verify(out) -> list:
    code, _stdout, stderr = out
    return [] if code == 0 else [f"exit {code}: {stderr.strip()}"]


def _subprocess_task(argv: tuple) -> Task:
    # the default worker count is the core count, which the report embeds;
    # fix it at two so that the pins hold on any host
    env = child_env(DWTURAN_WORKERS="2")
    cmd = [sys.executable, "-m", "dwturan.cli", *argv]

    def run():
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    return Task(name="cli " + " ".join(argv), run=run,
                digest=_cli_digest, verify=_cli_verify)


def _in_process_argv(argv: tuple) -> tuple:
    """The same command with one worker, for the traced in-process run."""
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    else:
        out[:0] = ["--workers", "1"]
    return tuple(out)


def _in_process_task(argv: tuple) -> Task:
    argv = _in_process_argv(argv)

    def run():
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, buf.getvalue(), err.getvalue()

    return Task(name="cli.main " + " ".join(argv), run=run,
                digest=_cli_digest, verify=_cli_verify)


def build(name: str, seed: int, in_process: bool) -> Workload:
    """Set up one workload; ``in_process`` selects the traced variant of cli."""
    if name == "exact-clique":
        return Workload(name, _exact_clique())
    if name == "exact-pattern":
        return Workload(name, _exact_pattern())
    if name == "construct":
        return Workload(name, _construct(seed))
    if name == "cli":
        make = _in_process_task if in_process else _subprocess_task
        return Workload(name, [make(argv) for argv in CLI_COMMANDS],
                        order_rng=random.Random(seed), per_call_latency=True,
                        # 120 calls, for the latency tail
                        min_passes=10)
    raise ValueError(f"unknown workload {name!r}")


def check(task: Task, out, pins: dict) -> list:
    """Errors of one task output: pin mismatches and broken identities."""
    errors = list(task.verify(out))
    digest = task.digest(out)
    if digest is not None:
        pinned = pins.get(task.name)
        if pinned is None:
            errors.append("no pinned output")
        elif json.loads(json.dumps(digest)) != pinned:
            errors.append(f"output {digest} differs from pin {pinned}")
    return errors
