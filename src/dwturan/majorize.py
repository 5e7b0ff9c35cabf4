"""Degree majorization of clique-free graphs by complete multipartite graphs.

Every K_r-free graph G admits a complete (r-1)-partite graph H on the same
vertex set with d_H(x) >= d_G(x) for every vertex x. The construction is
recursive: take a vertex x of maximum degree, put every non-neighbor of x
(x included) into the first class, and recurse on the neighborhood of x,
which spans a K_{r-1}-free graph. Vertices in the first class end with
H-degree |neighborhood of x| = max degree >= their own; vertices inside
the neighborhood gain the whole first class and recurse.
"""

from __future__ import annotations

import random

from .errors import Record
from .graphs import (
    Graph,
    creates_clique,
    e_f,
    mask_has_clique,
    multipartite_on_classes,
    _bits,
)
from .partitions import ex_prime
from .weights import ObjectiveValue, WeightFunction, is_nondecreasing


class MajorizerResult(Record):
    """Partition into at most r-1 classes (empty classes kept, fixed arity)
    and the complete multipartite graph it realizes on the original labels."""

    __slots__ = ("classes", "graph")
    classes: tuple[tuple[int, ...], ...]
    graph: Graph


def erdos_majorizer(G: Graph, r: int) -> MajorizerResult:
    """Degree-dominating complete (r-1)-partite graph on V(G).

    Requires r >= 2 and G free of K_r. Maximum-degree ties break toward the
    smallest vertex index, so the output is deterministic.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if mask_has_clique(G.adj, (1 << G.n) - 1, r):
        raise ValueError(f"graph contains a clique of size {r}")

    adj = G.adj

    def build(mask: int, depth: int) -> list[list[int]]:
        # classes of the subgraph of G induced on the vertex mask
        if depth == 2:
            return [list(_bits(mask))]
        if not mask:
            return [[] for _ in range(depth - 1)]
        x = max(_bits(mask), key=lambda v: ((adj[v] & mask).bit_count(), -v))
        return [list(_bits(mask & ~adj[x]))] + build(mask & adj[x], depth - 1)

    classes = build((1 << G.n) - 1, r)
    H = multipartite_on_classes(G.n, classes)
    return MajorizerResult(classes=tuple(map(tuple, classes)), graph=H)


def verify_majorization(G: Graph, res: MajorizerResult) -> bool:
    """Check the full contract: H is complete multipartite on the stated
    classes, the classes partition V(G), and H dominates G degreewise."""
    H = res.graph
    if H.n != G.n:
        raise ValueError("vertex sets of G and H differ")
    seen: set[int] = set()
    for cls in res.classes:
        for v in cls:
            if v in seen or not 0 <= v < G.n:
                return False
            seen.add(v)
    if len(seen) != G.n:
        return False
    if H != multipartite_on_classes(G.n, res.classes):
        return False
    return all(H.degrees[v] >= G.degrees[v] for v in range(G.n))


class ChainReport(Record):
    """The two comparisons linking a clique-free graph, its majorizer, and
    the multipartite optimum of the same order."""

    __slots__ = ("value_graph", "value_majorized", "value_optimum", "holds_first",
                 "holds_second")
    value_graph: ObjectiveValue
    value_majorized: ObjectiveValue
    value_optimum: ObjectiveValue
    holds_first: bool     # value_graph <= value_majorized
    holds_second: bool    # value_majorized <= value_optimum


def theorem1_chain(G: Graph, r: int, f: WeightFunction) -> ChainReport:
    """Evaluate e_f(G) <= e_f(H) <= multipartite optimum for K_r-free G;
    each value is correctly rounded, and rounding is monotone."""
    # only degrees 0..n-1 occur, so f beyond n-1 is never evaluated
    if not is_nondecreasing(f, (0, max(G.n, 1) - 1)):
        raise ValueError("the chain requires a non-decreasing weight")
    res = erdos_majorizer(G, r)
    a = e_f(G, f)
    b = e_f(res.graph, f)
    c = ex_prime(G.n, r - 1, f).value
    return ChainReport(value_graph=a, value_majorized=b, value_optimum=c,
                       holds_first=a <= b,
                       holds_second=b <= c)


def random_kr_free_graph(n: int, r: int, edge_prob: float,
                         rng: random.Random) -> Graph:
    """Random K_r-free graph by edge addition with rejection.

    Visits all slots in a random order, keeps each with the given
    probability, and skips any addition that would complete a K_r, asking
    creates_clique before the edge is written. The result
    is K_r-free by construction; sweeping edge_prob sweeps density.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(slots)
    adj = [0] * n
    for u, v in slots:
        if rng.random() >= edge_prob or creates_clique(adj, r, u, v):
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._from_adj(n, adj)
