"""Degree-weighted extremal graph quantities.

For a weight f on degrees, the score of a graph is the sum of f over its
degree sequence. This package computes, exactly at small orders:

  * the maximum score over all graphs of order n avoiding a forbidden
    subgraph (pruned exhaustive search),
  * the same maximum restricted to complete multipartite graphs (dynamic
    programming with an enumeration cross-check),
  * a constructive degree majorizer turning any clique-free graph into a
    multipartite graph dominating every degree,
  * norm graphs over finite fields and the two-sided construction whose
    score no bipartite graph can match under staircase weights.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it. The submodule is imported on
# first access, so a command loads only the layers it uses.
_EXPORTS = {
    **dict.fromkeys(("InvariantViolation", "ScaleLimitError"), "errors"),
    **dict.fromkeys((
        "Graph", "PartSizes", "blowup_k3", "chromatic_number",
        "complete_bipartite", "complete_graph", "complete_multipartite",
        "contains_subgraph", "cycle_graph", "e_f", "graph6_decode", "graph6_encode",
        "path_graph",
    ), "graphs"),
    **dict.fromkeys((
        "ChainReport", "MajorizerResult", "erdos_majorizer", "random_kr_free_graph",
        "theorem1_chain", "verify_majorization",
    ), "majorize"),
    **dict.fromkeys((
        "ConstructionRefused", "CounterexampleSpec", "FieldElement", "FiniteField",
        "GapReport", "bipartite_upper_bound", "counterexample_graph", "gap_report",
        "join_contains_blowup", "kab_free_check", "norm", "norm_graph",
    ), "normgraphs"),
    **dict.fromkeys((
        "PartitionOptimum", "ex_prime", "ex_prime_enumerated", "multipartite_value",
    ), "partitions"),
    **dict.fromkeys((
        "RatioRow", "SearchResult", "ex_exact", "ratio_table", "verify_theorem1",
    ), "search"),
    **dict.fromkeys((
        "ObjectiveValue", "StaircaseWeight", "StepWeight", "WeightFunction",
        "check_growth_bound", "check_log_continuity", "half", "is_nondecreasing",
        "least_growth_seed", "log_family", "parse_weight", "power", "staircase",
    ), "weights"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Looked up in the defining module on every access and never bound here,
    # so a function replaced there (by a tracer, say) is what callers get.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
