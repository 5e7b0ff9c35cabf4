"""Command-line frontend. Thin dispatch; all computation lives in the modules.

Each command imports the modules it calls when it runs, so a process loads
only the layers its command uses.

Reports are JSON (or CSV) on stdout, byte-identical across runs with the
same configuration, and always embed the fully resolved configuration.
Exit codes: 0 success, 1 a library-guaranteed invariant failed at runtime,
2 invalid input or configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Optional

from . import _usable_cpus
from .errors import InvariantViolation, ScaleLimitError

if TYPE_CHECKING:
    from .graphs import Graph

# the most degrees one checkf call evaluates the weight at
CHECKF_MAX_POINTS = 100_000
# the most parts one exprime call takes; its witness lists k part sizes
EXPRIME_MAX_K = 100_000

_SHORTHAND = re.compile(
    r"^(?:K(?P<r>\d+)|C(?P<cyc>\d+)|P(?P<path>\d+)|K(?P<a>\d+),(?P<b>\d+)|K3s:(?P<s>\d+))$"
)


def parse_graph_spec(text: str) -> Graph:
    """Named shorthand (K4, C5, P4, K2,3, K3s:2) first, then graph6."""
    from .graphs import (
        blowup_k3,
        complete_bipartite,
        complete_graph,
        cycle_graph,
        graph6_decode,
        path_graph,
    )

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
    if lo_i < 0:
        raise ValueError(f"range {text!r} starts below 0; weights take degrees >= 0")
    return lo_i, hi_i


def _default_workers() -> int:
    env = os.environ.get("DWTURAN_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"DWTURAN_WORKERS must be an integer, got {env!r}") from None
    return _usable_cpus()


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
                     help="worker processes (default: DWTURAN_WORKERS or the usable CPUs); "
                          "at most min(workers, usable CPUs) run, and the search "
                          "split, so the node count, follows the workers alone")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="maximize sum f(deg) over forbidden-free graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbidden", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("exprime", help="maximize over complete k-partite graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", required=True)

    p = sub.add_parser("ratio", help="exact vs multipartite optimum over a range of n")
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--forbidden", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--limit", type=int, default=None)

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


def _cmd_exact(args) -> dict:
    from .graphs import graph6_encode
    from .search import DEFAULT_LIMIT, ex_exact
    from .weights import parse_weight

    if args.limit is None:
        args.limit = DEFAULT_LIMIT
    F = parse_graph_spec(args.forbidden)
    f = parse_weight(args.f)
    res = ex_exact(args.n, F, f, limit=args.limit, workers=args.workers)
    return {
        "value": res.value.as_json(),
        "witness_graph6": graph6_encode(res.witness),
        "witness_edges": [list(e) for e in res.witness.edges()],
        "nodes": res.nodes_explored,
    }


def _cmd_exprime(args) -> dict:
    if args.k > EXPRIME_MAX_K:
        raise ScaleLimitError(f"exprime takes no more than {EXPRIME_MAX_K} parts; "
                              f"--k {args.k} asks for more")
    from .partitions import ex_prime
    from .weights import parse_weight

    f = parse_weight(args.f)
    res = ex_prime(args.n, args.k, f)
    return {
        "value": res.value.as_json(),
        "witness": list(res.witness),
        "ties_flag": res.ties_flag,
    }


def _cmd_ratio(args) -> dict:
    from .search import DEFAULT_LIMIT, ratio_table
    from .weights import parse_weight

    if args.nmin > args.nmax:
        raise ValueError(f"empty range: --nmin {args.nmin} is above --nmax {args.nmax}")
    if args.limit is None:
        args.limit = DEFAULT_LIMIT
    F = parse_graph_spec(args.forbidden)
    f = parse_weight(args.f)
    rows = ratio_table((args.nmin, args.nmax), F, f,
                       limit=args.limit, workers=args.workers)
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


def _cmd_majorize(args) -> dict:
    from .graphs import graph6_encode
    from .majorize import erdos_majorizer, verify_majorization

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


def _cmd_normgraph(args) -> dict:
    from .normgraphs import kab_free_check, norm_graph

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


def _cmd_counterexample(args) -> dict:
    from .normgraphs import (
        CounterexampleSpec,
        counterexample_graph,
        gap_report,
        join_contains_blowup,
    )
    from .weights import parse_weight

    f = parse_weight(args.f)
    spec = CounterexampleSpec(q=args.q, t=args.t, s=args.s, f=f)
    # runs the K_{s,s} gate on the side graph and raises ConstructionRefused
    # if it fails, so side_kab_free below is that gate's result, and the side
    # read back off G may be declared K_{s,s}-free to the blow-up check
    G = counterexample_graph(spec)
    side = G.induced_subgraph(range(spec.side_size))
    gap = gap_report(spec, G)
    return {
        "n": G.n,
        "edges": G.num_edges,
        "degree_histogram": _histogram(G),
        "side_kab_free": True,
        "forbidden_class_size": args.s + 2,
        "forbidden_free": not join_contains_blowup(side, args.s + 2, kss_free=args.s),
        "gap": {
            "value": gap.construction_value.as_json(),
            "bound": gap.bipartite_bound.as_json(),
            "exceeds": gap.exceeds,
        },
    }


def _cmd_checkf(args) -> dict:
    from .weights import (
        _require_positive,
        check_log_continuity,
        growth_rows,
        is_nondecreasing,
        parse_weight,
    )

    f = parse_weight(args.f)
    lo, hi = _parse_range(args.scan_range)
    if (args.eps is None) != (args.delta is None):
        raise ValueError("log-continuity check needs both --eps and --delta")
    # checked before any scan, and before the budget reads delta
    if args.eps is not None:
        _require_positive("eps", args.eps)
        _require_positive("delta", args.delta)
    # the log-continuity scan reads f up to (1 + delta) * hi
    top = hi if args.delta is None else (1 + args.delta) * hi
    if top - lo + 1 > CHECKF_MAX_POINTS:
        stretch = "" if top == hi else f" with --delta {args.delta}"
        raise ScaleLimitError(f"checkf evaluates f at no more than {CHECKF_MAX_POINTS} "
                              f"degrees; --range {args.scan_range}{stretch} needs more")
    # asked for before the monotonicity scan, so a bad exponent is refused first
    growth = (None if args.growth_c is None
              else growth_rows(f, args.growth_c, (lo, hi)))
    result: dict = {"nondecreasing": is_nondecreasing(f, (lo, hi))}
    if growth is not None:
        rows = [{"n": n, "ratio": ratio, "bound": bound, "ok": ok}
                for n, ratio, bound, ok in growth]
        first = next((row["n"] for row in rows if not row["ok"]), None)
        result["growth"] = {"c": args.growth_c, "ok": first is None,
                            "first_violation": first, "rows": rows}
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

def _to_csv(command: str, result: dict) -> str:
    import csv
    import io

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
        if args.workers is None:
            args.workers = _default_workers()
        if args.workers < 1:
            raise ValueError("worker count must be >= 1")
        result = _DISPATCH[args.command](args)
    except InvariantViolation as exc:
        return 1, {"error": str(exc), "kind": "invariant"}
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return 2, {"error": str(exc), "kind": "input"}
    report = {
        "command": args.command,
        # every parsed option, the resolved worker count included; --out
        # only when given
        "config": {key: value for key, value in vars(args).items()
                   if key != "out" or value is not None},
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
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        # an unwritable report path is bad configuration, not an invariant
        print(json.dumps({"error": str(exc), "kind": "input"}, sort_keys=True),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
