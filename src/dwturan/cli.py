"""Command-line frontend. Thin dispatch; all computation lives in the modules.

Reports are JSON (or CSV) on stdout, byte-identical across runs with the
same configuration, and always embed the fully resolved configuration.
Exit codes: 0 success, 1 a library-guaranteed invariant failed at runtime,
2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from typing import Optional

from .errors import InvariantViolation
from .graphs import (
    Graph,
    blowup_k3,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    path_graph,
)
from .majorize import erdos_majorizer, verify_majorization
from .normgraphs import (
    CounterexampleSpec,
    counterexample_graph,
    gap_report,
    kab_free_check,
    norm_graph,
)
from .partitions import ex_prime
from .search import DEFAULT_LIMIT, ex_exact, ratio_table
from .weights import (
    check_log_continuity,
    growth_rows,
    is_nondecreasing,
    parse_weight,
)

_SHORTHAND = re.compile(
    r"^(?:K(?P<r>\d+)|C(?P<cyc>\d+)|P(?P<path>\d+)|K(?P<a>\d+),(?P<b>\d+)|K3s:(?P<s>\d+))$"
)


def parse_graph_spec(text: str) -> Graph:
    """Named shorthand (K4, C5, P4, K2,3, K3s:2) first, then graph6."""
    m = _SHORTHAND.match(text)
    if m:
        if m.group("r"):
            return complete_graph(int(m.group("r")))
        if m.group("cyc"):
            return cycle_graph(int(m.group("cyc")))
        if m.group("path"):
            return path_graph(int(m.group("path")))
        if m.group("s"):
            return blowup_k3(int(m.group("s")))
        return complete_bipartite(int(m.group("a")), int(m.group("b")))
    return graph6_decode(text)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"range must look like lo:hi, got {text!r}")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i > hi_i:
        raise ValueError(f"empty range {text!r}")
    return lo_i, hi_i


def _default_workers() -> int:
    env = os.environ.get("DWTURAN_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _histogram(G: Graph) -> dict[str, int]:
    hist: dict[str, int] = {}
    for d in sorted(G.degrees):
        hist[str(d)] = hist.get(str(d), 0) + 1
    return hist


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dwturan")
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--out", default=None, help="write the report to a file")
    top.add_argument("--workers", "--threads", type=int, default=None,
                     help="worker processes (default: DWTURAN_WORKERS or all cores)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="maximize sum f(deg) over forbidden-free graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbidden", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    p = sub.add_parser("exprime", help="maximize over complete k-partite graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", required=True)

    p = sub.add_parser("ratio", help="exact vs multipartite optimum over a range of n")
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--forbidden", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    p = sub.add_parser("majorize", help="degree-dominating multipartite graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("normgraph", help="norm graph over GF(q^t)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("counterexample", help="two-sided norm-graph construction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--f", required=True)

    p = sub.add_parser("checkf", help="weight-function predicate scans")
    p.add_argument("--f", required=True)
    p.add_argument("--range", dest="scan_range", required=True, help="lo:hi")
    p.add_argument("--growth-c", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)

    return top


def _cmd_exact(args, workers: int) -> dict:
    F = parse_graph_spec(args.forbidden)
    f = parse_weight(args.f)
    res = ex_exact(args.n, F, f, limit=args.limit, workers=workers)
    return {
        "value": res.value.as_json(),
        "witness_graph6": graph6_encode(res.witness),
        "witness_edges": [list(e) for e in res.witness.edges()],
        "nodes": res.nodes_explored,
    }


def _cmd_exprime(args, workers: int) -> dict:
    f = parse_weight(args.f)
    res = ex_prime(args.n, args.k, f)
    return {
        "value": res.value.as_json(),
        "witness": list(res.witness),
        "ties_flag": res.ties_flag,
    }


def _cmd_ratio(args, workers: int) -> dict:
    F = parse_graph_spec(args.forbidden)
    f = parse_weight(args.f)
    rows = ratio_table((args.nmin, args.nmax), F, f,
                       limit=args.limit, workers=workers)
    return {
        "rows": [
            {
                "n": row.n,
                "ex": row.ex_value.as_json(),
                "ex_prime": row.ex_prime_value.as_json(),
                "ratio": row.ratio,
            }
            for row in rows
        ]
    }


def _cmd_majorize(args, workers: int) -> dict:
    G = parse_graph_spec(args.graph)
    res = erdos_majorizer(G, args.r)
    dominated = verify_majorization(G, res)
    if not dominated:
        raise InvariantViolation("majorizer output failed its own verification")
    return {
        "classes": [list(c) for c in res.classes],
        "H_graph6": graph6_encode(res.graph),
        "dominated": dominated,
    }


def _cmd_normgraph(args, workers: int) -> dict:
    G = norm_graph(args.q, args.t)
    checks = {}
    t = args.t
    fact = math.factorial(t)
    for a, b in ((t, t), (t, fact + 1)):
        checks[f"{a},{b}"] = kab_free_check(G, a, b)
    return {
        "n": G.n,
        "edges": G.num_edges,
        "degree_histogram": _histogram(G),
        "kab_free": checks,
    }


def _cmd_counterexample(args, workers: int) -> dict:
    from .graphs import contains_subgraph

    f = parse_weight(args.f)
    spec = CounterexampleSpec(q=args.q, t=args.t, s=args.s, f=f)
    # runs the K_{s,s} gate on the side graph and raises ConstructionRefused
    # if it fails, so side_kab_free below is that gate's result
    G = counterexample_graph(spec)
    forbidden = blowup_k3(args.s + 2)
    gap = gap_report(spec, G)
    return {
        "n": G.n,
        "edges": G.num_edges,
        "degree_histogram": _histogram(G),
        "side_kab_free": True,
        "forbidden_class_size": args.s + 2,
        "forbidden_free": not contains_subgraph(G, forbidden),
        "gap": {
            "value": gap.construction_value.as_json(),
            "bound": gap.bipartite_bound.as_json(),
            "exceeds": gap.exceeds,
        },
    }


def _cmd_checkf(args, workers: int) -> dict:
    f = parse_weight(args.f)
    lo, hi = _parse_range(args.scan_range)
    result: dict = {"nondecreasing": is_nondecreasing(f, (lo, hi))}
    if args.growth_c is not None:
        rows = [{"n": n, "ratio": ratio, "bound": bound, "ok": ok}
                for n, ratio, bound, ok in growth_rows(f, args.growth_c, (lo, hi))]
        first = next((row["n"] for row in rows if not row["ok"]), None)
        result["growth"] = {"c": args.growth_c, "ok": first is None,
                            "first_violation": first, "rows": rows}
    if (args.eps is None) != (args.delta is None):
        raise ValueError("log-continuity check needs both --eps and --delta")
    if args.eps is not None:
        result["log_continuity"] = {
            "eps": args.eps,
            "delta": args.delta,
            "ok": check_log_continuity(f, args.eps, args.delta, (lo, hi)),
        }
    return result


_DISPATCH = {
    "exact": _cmd_exact,
    "exprime": _cmd_exprime,
    "ratio": _cmd_ratio,
    "majorize": _cmd_majorize,
    "normgraph": _cmd_normgraph,
    "counterexample": _cmd_counterexample,
    "checkf": _cmd_checkf,
}

_CONFIG_SKIP = {"format", "out", "workers", "command"}


def _resolved_config(args, workers: int) -> dict:
    cfg = {
        "command": args.command,
        "format": args.format,
        "workers": workers,
    }
    if args.out is not None:
        cfg["out"] = args.out
    for key, value in sorted(vars(args).items()):
        if key in _CONFIG_SKIP:
            continue
        cfg[key] = value
    return cfg


def _to_csv(command: str, result: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "ratio":
        writer.writerow(["n", "ex", "ex_prime", "ratio"])
        for row in result["rows"]:
            writer.writerow([row["n"], row["ex"], row["ex_prime"], row["ratio"]])
    elif command == "checkf" and "growth" in result:
        writer.writerow(["n", "ratio", "bound", "ok"])
        for row in result["growth"]["rows"]:
            writer.writerow([row["n"], row["ratio"], row["bound"], row["ok"]])
    else:
        writer.writerow(["key", "value"])
        for key in sorted(result):
            writer.writerow([key, json.dumps(result[key], sort_keys=True)])
    return buf.getvalue()


def run(argv: Optional[list[str]] = None) -> tuple[int, Optional[dict]]:
    """Parse, dispatch, and return (exit code, report). No printing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    try:
        workers = args.workers if args.workers else _default_workers()
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        result = _DISPATCH[args.command](args, workers)
    except InvariantViolation as exc:
        return 1, {"error": str(exc), "kind": "invariant"}
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return 2, {"error": str(exc), "kind": "input"}
    report = {
        "command": args.command,
        "config": _resolved_config(args, workers),
        "result": result,
    }
    return 0, report


def main(argv: Optional[list[str]] = None) -> int:
    code, report = run(argv)
    if report is None:
        return code
    if code != 0:
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return code
    cfg = report["config"]
    if cfg["format"] == "csv":
        text = _to_csv(report["command"], report["result"])
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out = cfg.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
