"""perfbench/tracing.py patches dwturan by attribute name and must undo it.

A renamed or deleted attribute would break the traced benchmark run, and a
wrapper left behind would slow every later call; both show up here. The
traced clique-test and matcher counts of eight searches are pinned as well.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import dwturan.graphs
import dwturan.search
from dwturan import (
    blowup_k3,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    ex_exact,
    parse_weight,
    path_graph,
)
from dwturan.graphs import SubgraphMatcher

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> dict:
    """(owner, attribute) -> bound object, over every namespace a wrapper can land in."""
    owners = [m for key, m in sys.modules.items()
              if key == "dwturan" or key.startswith("dwturan.")]
    owners += [owner for owner, _, _ in tracing.SPANS + tracing.LEAVES
               if isinstance(owner, type)]
    return {(owner, attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def _changed(before: dict, tracing) -> list:
    now = _bindings(tracing)
    return [key for key, value in before.items() if now.get(key) is not value]


def test_install_then_uninstall_restores_every_attribute():
    tracing = _load_tracing()
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = _changed(before, tracing)
        assert len(patched) >= len(tracing.SPANS) + len(tracing.LEAVES)
        tracer.enabled = True
        # both leaves count a call made through the module and the class
        K3 = complete_graph(3)
        assert dwturan.graphs.creates_clique(K3.adj, 3, 0, 1)
        C4 = cycle_graph(4)
        assert SubgraphMatcher(C4).exists_using_edge(C4.adj, 4, 0, 1)
        assert tracer.calls["graphs.creates_clique"] == 1
        assert tracer.calls["graphs.matcher.exists_using_edge"] == 1
    finally:
        tracer.uninstall()
    assert _changed(before, tracing) == []


@pytest.mark.parametrize("n,F,nodes,matcher_calls,clique_calls,matchers", [
    (7, complete_graph(3), 50875, 0, 35051, 1),
    (7, complete_graph(4), 44747, 0, 27088, 1),
    (6, blowup_k3(2), 786, 520, 0, 2),
    (6, cycle_graph(4), 8591, 6480, 0, 2),
    (6, cycle_graph(5), 4615, 3049, 0, 2),
    (6, path_graph(5), 3569, 2791, 0, 2),
    (6, complete_bipartite(2, 3), 7683, 5032, 0, 2),
    (6, complete_bipartite(1, 4), 7076, 4878, 0, 2),
], ids=["K3", "K4", "K3s:2", "C4", "C5", "P5", "K2,3", "K1,4"])
def test_one_matcher_question_per_include_decision(n, F, nodes, matcher_calls,
                                                   clique_calls, matchers):
    # the search asks one question per include decision and per open slot
    # of a leaf's maximality check: of the clique test directly for a
    # clique, which builds no matcher (the witness re-check builds the one
    # counted), and of exists_using_edge for every other pattern
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        assert ex_exact(n, F, parse_weight("pow:mu=2")).nodes_explored == nodes
        assert tracer.calls["graphs.matcher.exists_using_edge"] == matcher_calls
        assert tracer.calls["graphs.creates_clique"] == clique_calls
        assert tracer.calls["graphs.matcher.init"] == matchers
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workers", [1, 2])
def test_one_set_up_per_search_call(monkeypatch, workers):
    # the split's subtrees share one table and one matcher: the search
    # builds that matcher and the witness re-check the other one counted
    tables = []
    tabulate = dwturan.search.tabulate
    monkeypatch.setattr(dwturan.search, "tabulate",
                        lambda *args: tables.append(args) or tabulate(*args))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        ex_exact(6, cycle_graph(4), parse_weight("pow:mu=2"), workers=workers)
        assert tracer.calls["graphs.matcher.init"] == 2
    finally:
        tracer.uninstall()
    assert len(tables) == 1
