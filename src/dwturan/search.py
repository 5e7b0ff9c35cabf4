"""Exhaustive maximization of weighted degrees over forbidden-subgraph-free graphs.

The search decides the C(n,2) edge slots in a fixed lexicographic order,
include branch first. A branch dies as soon as the partial graph acquires a
copy of the forbidden graph (containment is monotone under edge addition,
so only copies through the newly added edge are searched). Two further
prunings apply whenever the weight is non-decreasing on 0..n-1:

  * bound: each vertex can finish with degree at most its cap, current
    degree plus undecided slots, so the weight sum of the caps bounds every
    leaf below; subtrees under the incumbent by more than rounding
    (weights.float_slack) are cut. Including a slot leaves every cap as it
    is, so the sum is recomputed only when a slot is excluded.
  * maximality: some maximal forbidden-free graph attains the optimum, so
    leaves that still accept an edge are not evaluated.

Among evaluated optimal leaves the reported witness is the one whose edge
bitstring (fixed slot order) is lexicographically smallest; with the
maximality rule active that means smallest among maximal witnesses. Results
are independent of the worker count: a run partitions the tree by its
first few slot decisions (none when serial) and reduces the subtrees with
the same value-then-bitstring comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .errors import InvariantViolation, ScaleLimitError
from .graphs import (
    Graph,
    ObjectiveValue,
    SubgraphMatcher,
    chromatic_number,
    complete_graph,
    contains_subgraph,
    e_f,
)
from .partitions import ex_prime
from .weights import WeightFunction, float_slack, is_nondecreasing, tabulate

DEFAULT_LIMIT = 8


@dataclass(frozen=True)
class SearchResult:
    value: ObjectiveValue
    witness: Graph
    nodes_explored: int
    n: int
    forbidden: Graph
    f: WeightFunction


def _slots(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _search_tree(n: int, F: Graph, f: WeightFunction,
                 prefix: tuple[int, ...] = ()):
    """Run the pruned enumeration below one prefix of slot decisions.

    Returns (best value or None, best bitstring, nodes): values are sums
    of weights.tabulate(f, 0..n-1), integers over its den, or floats when
    den is None. The bitstring int has slot 0 at the highest bit so that
    integer order equals lexicographic order on slot decisions.
    """
    slots = _slots(n)
    M = len(slots)
    table, den = tabulate(f, range(n))
    monotone = n <= 1 or is_nondecreasing(f, (0, n - 1))
    slack = float_slack(table, den, n)
    # a leaf's value depends on its degree multiset alone, so isomorphic
    # leaves tie exactly and the bitstring decides between them
    leaf_sum = math.fsum if den is None else sum

    # called with the new edge already present in adj
    creates_forbidden = SubgraphMatcher(F).exists_using_edge

    adj = [0] * n
    deg = [0] * n
    # cap[x] = deg[x] + undecided slots at x
    cap = [n - 1] * n
    nodes = 0
    best = None
    best_bits = 0
    # bounds below this cannot tie the incumbent, even up to rounding
    cutoff = -math.inf

    def leaf_is_maximal() -> bool:
        for u, v in slots:
            if adj[u] >> v & 1:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            creates = creates_forbidden(adj, deg, n, u, v)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            deg[u] -= 1
            deg[v] -= 1
            if not creates:
                return False
        return True

    # bound is the weight sum over cap. The include child inherits it; the
    # exclude child sums it afresh in vertex order, since an incremental
    # update would round differently in float mode and move prune decisions.
    def rec(i: int, bits: int, bound):
        nonlocal nodes, best, best_bits, cutoff
        nodes += 1
        if bound < cutoff:
            return
        if i == M:
            if monotone and not leaf_is_maximal():
                return
            value = leaf_sum([table[d] for d in deg])
            if best is None or value > best or (value == best and bits < best_bits):
                best = value
                best_bits = bits
                cutoff = best - slack if monotone else -math.inf
            return
        u, v = slots[i]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
        if not creates_forbidden(adj, deg, n, u, v):
            rec(i + 1, bits | (1 << (M - 1 - i)), bound)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        deg[u] -= 1
        deg[v] -= 1
        cap[u] -= 1
        cap[v] -= 1
        rec(i + 1, bits, sum(map(table.__getitem__, cap)))
        cap[u] += 1
        cap[v] += 1

    # apply the prefix decisions, bailing out if they already force a copy
    bits0 = 0
    for i, decision in enumerate(prefix):
        u, v = slots[i]
        if decision:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            if creates_forbidden(adj, deg, n, u, v):
                break
            bits0 |= 1 << (M - 1 - i)
        else:
            cap[u] -= 1
            cap[v] -= 1
    else:
        rec(len(prefix), bits0, sum(map(table.__getitem__, cap)))
    return best, best_bits, nodes


def _bits_to_graph(n: int, bits: int) -> Graph:
    slots = _slots(n)
    M = len(slots)
    edges = [slots[i] for i in range(M) if bits >> (M - 1 - i) & 1]
    return Graph(n, edges)


def ex_exact(n: int, F: Graph, f: WeightFunction, *,
             limit: int = DEFAULT_LIMIT, workers: int = 1) -> SearchResult:
    """Exact maximum of the weighted degree sum over F-free graphs of order n.

    Refuses orders above the limit (the tree has up to 2**C(n,2) leaves).
    One worker searches the whole tree, the subtree below the empty prefix,
    in this process. With workers > 1 the tree is split on its first
    ceil(log2(4 * workers)) slot decisions (at least 2, at most C(n,2)) and
    a process pool searches one subtree per prefix. The subtree results
    are reduced once, by value and then least bitstring, so value and
    witness do not depend on the worker count; the node count does, since
    subtrees do not share their incumbents.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if n > limit:
        raise ScaleLimitError(
            f"order {n} above limit {limit}: up to 2^{n * (n - 1) // 2} "
            f"labeled graphs; raise the limit explicitly to proceed"
        )
    if F.n == 0:
        raise ValueError("forbidden graph must have at least one vertex")
    if F.num_edges == 0 and n >= F.n:
        raise ValueError(
            "every graph of this order contains the edgeless forbidden graph"
        )

    M = n * (n - 1) // 2
    if workers > 1 and M > 2:
        depth = min(M, max(2, math.ceil(math.log2(4 * workers))))
        prefixes = [tuple((p >> (depth - 1 - j)) & 1 for j in range(depth))
                    for p in range(1 << depth)]
        # imported here: it pulls in multiprocessing, which a serial run
        # would otherwise load for nothing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_search_tree, repeat(n), repeat(F), repeat(f),
                                    prefixes))
    else:
        results = [_search_tree(n, F, f)]
    best = None
    best_bits = 0
    nodes = 0
    for value, bits, sub_nodes in results:
        nodes += sub_nodes
        if value is not None and (best is None or value > best
                                  or (value == best and bits < best_bits)):
            best = value
            best_bits = bits

    if best is None:
        raise InvariantViolation("search evaluated no leaf; this cannot happen")

    witness = _bits_to_graph(n, best_bits)
    if contains_subgraph(witness, F):
        raise InvariantViolation("witness failed the forbidden-subgraph re-check")
    # e_f decides exactness on the witness degrees alone, so it may return
    # the exact total where the search summed floats
    value = e_f(witness, f)
    table, den = tabulate(f, range(n))
    if abs(value - ObjectiveValue.scaled(best, den)) > float_slack(table, den, n):
        raise InvariantViolation("witness does not reproduce the optimal value")
    return SearchResult(value=value, witness=witness, nodes_explored=nodes,
                        n=n, forbidden=F, f=f)


def verify_theorem1(n: int, r: int, f: WeightFunction, *,
                    limit: int = DEFAULT_LIMIT, workers: int = 1) -> bool:
    """Does the unrestricted optimum equal the complete multipartite optimum?

    Compares the exhaustive K_r-free maximum against the best complete
    (r-1)-partite value, exactly whenever the weight evaluates exactly and
    up to rounding (weights.float_slack) otherwise.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    table, den = tabulate(f, range(max(n, 1) + 1))
    if any(a > b for a, b in zip(table, table[1:])):
        raise ValueError("equality is only guaranteed for non-decreasing weights")
    full = ex_exact(n, complete_graph(r), f, limit=limit, workers=workers)
    multi = ex_prime(n, r - 1, f)
    return abs(full.value - multi.value) <= float_slack(table, den, n)


@dataclass(frozen=True)
class RatioRow:
    n: int
    ex_value: ObjectiveValue
    ex_prime_value: ObjectiveValue
    ratio: float


def ratio_table(n_range: tuple[int, int], F: Graph, f: WeightFunction, *,
                limit: int = DEFAULT_LIMIT, workers: int = 1) -> list[RatioRow]:
    """Rows (n, unrestricted optimum, multipartite optimum, ratio).

    Requires a non-bipartite forbidden graph. Multipartite graphs are a
    subfamily of the F-free graphs, so every ratio is >= 1; in float mode
    only up to rounding, and a ratio may read 0.9999999999999999.
    """
    chi = chromatic_number(F)
    if chi < 3:
        raise ValueError(
            "ratio table requires a non-bipartite forbidden graph "
            f"(chromatic number >= 3, got {chi})"
        )
    lo, hi = n_range
    rows = []
    for n in range(lo, hi + 1):
        full = ex_exact(n, F, f, limit=limit, workers=workers)
        multi = ex_prime(n, chi - 1, f)
        if multi.value - full.value > float_slack(*tabulate(f, range(n)), n):
            raise InvariantViolation(
                f"multipartite optimum exceeded the unrestricted optimum at n={n}"
            )
        if multi.value.approx != 0:
            ratio = full.value.approx / multi.value.approx
        else:
            ratio = 1.0 if full.value.approx == 0 else math.inf
        rows.append(RatioRow(n=n, ex_value=full.value,
                             ex_prime_value=multi.value, ratio=ratio))
    return rows
