"""The public namespace of ``dwturan``: the names it offers and where they resolve."""

import importlib

import pytest

import dwturan
from dwturan import search

PUBLIC_NAMES = [
    "ChainReport", "ConstructionRefused", "CounterexampleSpec",
    "FieldElement", "FiniteField", "GapReport", "Graph", "InvariantViolation",
    "MajorizerResult", "ObjectiveValue", "PartSizes", "PartitionOptimum", "RatioRow",
    "ScaleLimitError", "SearchResult", "StaircaseWeight", "StepWeight",
    "WeightFunction", "bipartite_upper_bound", "blowup_k3",
    "check_growth_bound", "check_log_continuity", "chromatic_number",
    "complete_bipartite", "complete_graph", "complete_multipartite",
    "contains_subgraph", "counterexample_graph", "cycle_graph", "e_f",
    "erdos_majorizer", "ex_exact", "ex_prime", "ex_prime_enumerated", "gap_report",
    "graph6_decode", "graph6_encode", "half", "is_nondecreasing",
    "join_contains_blowup", "kab_free_check", "least_growth_seed", "log_family",
    "multipartite_value", "norm", "norm_graph", "parse_weight", "path_graph",
    "power", "random_kr_free_graph", "ratio_table", "staircase",
    "theorem1_chain", "verify_majorization", "verify_theorem1",
]


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 55
    assert dwturan.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(dwturan))


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES:
        obj = getattr(dwturan, name)
        assert obj.__module__.startswith("dwturan."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_name_follows_a_patch_of_its_module(monkeypatch):
    # a wrapper installed in the defining module is what the package serves,
    # and the original again once the wrapper is removed
    original = search.ex_exact
    assert dwturan.ex_exact is original

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "ex_exact", wrapper)
    assert dwturan.ex_exact is wrapper
    monkeypatch.undo()
    assert dwturan.ex_exact is original
    assert "ex_exact" not in vars(dwturan)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dwturan.no_such_name
    assert not hasattr(dwturan, "DEFAULT_LIMIT")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dwturan import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(dwturan, name) for name in PUBLIC_NAMES)
