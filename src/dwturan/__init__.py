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

from .errors import InvariantViolation, ScaleLimitError
from .graphs import (
    Graph,
    ObjectiveValue,
    PartSizes,
    blowup_k3,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    contains_subgraph,
    cycle_graph,
    e_f,
    empty_graph,
    graph6_decode,
    graph6_encode,
    path_graph,
    petersen_graph,
    turan_graph,
)
from .majorize import (
    ChainReport,
    MajorizerResult,
    erdos_majorizer,
    random_kr_free_graph,
    theorem1_chain,
    verify_majorization,
)
from .normgraphs import (
    ConstructionRefused,
    CounterexampleSpec,
    FieldElement,
    FiniteField,
    GapReport,
    bipartite_upper_bound,
    counterexample_graph,
    gap_report,
    join_contains_blowup,
    kab_free_check,
    norm,
    norm_graph,
)
from .partitions import (
    ChainCheckReport,
    PartitionOptimum,
    ex_prime,
    ex_prime_enumerated,
    multipartite_value,
    turan_chain_check,
)
from .search import RatioRow, SearchResult, ex_exact, ratio_table, verify_theorem1
from .weights import (
    StaircaseParams,
    StaircaseWeight,
    StepWeight,
    WeightFunction,
    check_growth_bound,
    check_log_continuity,
    half,
    is_nondecreasing,
    least_growth_seed,
    log_family,
    parse_weight,
    power,
    staircase,
)

__version__ = "0.1.0"

__all__ = [
    "ChainCheckReport",
    "ChainReport",
    "ConstructionRefused",
    "CounterexampleSpec",
    "FieldElement",
    "FiniteField",
    "GapReport",
    "Graph",
    "InvariantViolation",
    "MajorizerResult",
    "ObjectiveValue",
    "PartSizes",
    "PartitionOptimum",
    "RatioRow",
    "ScaleLimitError",
    "SearchResult",
    "StaircaseParams",
    "StaircaseWeight",
    "StepWeight",
    "WeightFunction",
    "bipartite_upper_bound",
    "blowup_k3",
    "check_growth_bound",
    "check_log_continuity",
    "chromatic_number",
    "complete_bipartite",
    "complete_graph",
    "complete_multipartite",
    "contains_subgraph",
    "counterexample_graph",
    "cycle_graph",
    "e_f",
    "empty_graph",
    "erdos_majorizer",
    "ex_exact",
    "ex_prime",
    "ex_prime_enumerated",
    "gap_report",
    "graph6_decode",
    "graph6_encode",
    "half",
    "is_nondecreasing",
    "join_contains_blowup",
    "kab_free_check",
    "least_growth_seed",
    "log_family",
    "multipartite_value",
    "norm",
    "norm_graph",
    "parse_weight",
    "path_graph",
    "petersen_graph",
    "power",
    "random_kr_free_graph",
    "ratio_table",
    "staircase",
    "theorem1_chain",
    "turan_chain_check",
    "turan_graph",
    "verify_majorization",
    "verify_theorem1",
]
