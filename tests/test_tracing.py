"""perfbench/tracing.py patches dwturan by attribute name and must undo it.

A renamed or deleted attribute would break the traced benchmark run, and a
wrapper left behind would slow every later call; both show up here. The
traced matcher counts of two searches are pinned as well.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dwturan import blowup_k3, complete_graph, ex_exact, parse_weight
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
        # a clique pattern reaches the clique kernel through the matcher
        K3 = complete_graph(3)
        assert SubgraphMatcher(K3).exists_using_edge(K3.adj, 3, 0, 1)
        assert tracer.calls["graphs.matcher.exists_using_edge"] == 1
        assert tracer.calls["graphs.creates_clique"] == 1
    finally:
        tracer.uninstall()
    assert _changed(before, tracing) == []


@pytest.mark.parametrize("n,F,matcher_calls,clique_calls", [
    (7, complete_graph(3), 35051, 35051),
    (6, blowup_k3(2), 520, 0),
], ids=["K3", "K3s:2"])
def test_one_matcher_question_per_include_decision(n, F, matcher_calls, clique_calls):
    # the search asks the matcher once per include decision and once per
    # open slot of a leaf's maximality check, through exists_using_edge
    # alone, and the clique kernel answers each question for a clique
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        ex_exact(n, F, parse_weight("pow:mu=2"))
        assert tracer.calls["graphs.matcher.exists_using_edge"] == matcher_calls
        assert tracer.calls["graphs.creates_clique"] == clique_calls
    finally:
        tracer.uninstall()
