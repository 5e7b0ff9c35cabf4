"""Spans and counters around calls into the dwturan modules, from outside.

Wrappers replace each traced function under every name a dwturan module
binds it to: ``search`` and ``majorize`` import functions by name, so
patching only the defining module would count nothing. Methods are patched
on their class, which every caller shares.

Functions called millions of times (the clique test, the incremental
matcher, field multiplication, weight evaluation) are *leaves*: they add to
a counter and to their caller's child time, and record no span. Every other
traced call records a span: name, start, end, parent span and the id of the
task it ran in. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from dwturan import cli, graphs, majorize, normgraphs, partitions, search, weights

# (owner, attribute, metric name); owner is a module or a class
SPANS = (
    (search, "ex_exact", "search.ex_exact"),
    (graphs.SubgraphMatcher, "exists_in", "graphs.matcher.exists_in"),
    (graphs.SubgraphMatcher, "__init__", "graphs.matcher.init"),
    (graphs, "e_f", "graphs.e_f"),
    (partitions, "ex_prime", "partitions.ex_prime"),
    (partitions, "ex_prime_enumerated", "partitions.ex_prime_enumerated"),
    (weights, "is_nondecreasing", "weights.is_nondecreasing"),
    (majorize, "erdos_majorizer", "majorize.erdos_majorizer"),
    (majorize, "verify_majorization", "majorize.verify_majorization"),
    (majorize, "theorem1_chain", "majorize.theorem1_chain"),
    (normgraphs, "norm_graph", "normgraphs.norm_graph"),
    (normgraphs, "kab_free_check", "normgraphs.kab_free_check"),
    (normgraphs, "counterexample_graph", "normgraphs.counterexample_graph"),
    (normgraphs, "gap_report", "normgraphs.gap_report"),
    (cli, "run", "cli.run"),
)
LEAVES = (
    (graphs, "creates_clique", "graphs.creates_clique"),
    (graphs.SubgraphMatcher, "exists_using_edge", "graphs.matcher.exists_using_edge"),
    (normgraphs.FieldElement, "__mul__", "normgraphs.field_mul"),
) + tuple(
    (cls, attr, metric)
    for cls in vars(weights).values()
    if isinstance(cls, type) and issubclass(cls, weights.WeightFunction)
    for attr, metric in (("exact", "weights.exact"), ("__call__", "weights.float"))
    if attr in vars(cls)
)


class Tracer:
    """Installs the wrappers; collects spans and per-name call statistics."""

    def __init__(self):
        self.enabled = False
        self.task = None
        self.spans = []
        self._stack = []          # open spans: [span id, child time]
        self._next_id = 0
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.hits = defaultdict(int)
        self.nodes = 0
        self._restore = []

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append((frame[0], self.task, name, start, end,
                                   parent[0] if parent else None))
                self.calls[name] += 1
                self.time[name] += duration
                self.self_time[name] += duration - frame[1]
            if name == "search.ex_exact":
                self.nodes += result.nodes_explored
            return result
        return wrapper

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.time[name] += duration
            if result is True:
                self.hits[name] += 1
            return result
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "dwturan" or key.startswith("dwturan.")]
        for specs, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for owner, attr, name in specs:
                original = vars(owner)[attr]
                wrapper = make(name, original)
                owners = [owner] if isinstance(owner, type) else [
                    m for m in modules if vars(m).get(attr) is original]
                for o in owners:
                    self._restore.append((o, attr, original))
                    setattr(o, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self) -> dict:
        def ratio(a, b):
            return a / b if b else 0.0

        c, t = self.calls, self.time
        m = {}
        for name in ("search.ex_exact", "graphs.creates_clique",
                     "graphs.matcher.exists_using_edge", "graphs.matcher.exists_in",
                     "graphs.matcher.init", "graphs.e_f", "partitions.ex_prime",
                     "partitions.ex_prime_enumerated", "weights.is_nondecreasing",
                     "majorize.erdos_majorizer", "normgraphs.norm_graph",
                     "normgraphs.kab_free_check", "normgraphs.counterexample_graph"):
            m[f"{name}.calls"] = c[name]
            m[f"{name}.time_s"] = t[name]
        for name in ("majorize.verify_majorization", "majorize.theorem1_chain",
                     "normgraphs.gap_report", "cli.run"):
            m[f"{name}.time_s"] = t[name]
        m["search.ex_exact.self_s"] = self.self_time["search.ex_exact"]
        m["search.nodes"] = self.nodes
        m["search.nodes_per_s"] = ratio(self.nodes, t["search.ex_exact"])
        for name in ("graphs.creates_clique", "graphs.matcher.exists_using_edge"):
            m[f"{name}.hit_ratio"] = ratio(self.hits[name], c[name])
        for name in ("weights.exact", "weights.float", "normgraphs.field_mul"):
            m[f"{name}.calls"] = c[name]
        return m

    def write_spans(self, path: str, task_names: list):
        with open(path, "w") as fh:
            json.dump({
                "tasks": task_names,
                "fields": ["id", "task", "name", "start", "end", "parent"],
                "spans": self.spans,
            }, fh)
