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
    is, so the bound moves only when a slot is excluded: in exact mode by
    the table differences at the two lowered caps, in O(1); in float mode
    by a fresh sum in vertex order, since an incremental float update would
    round differently and move prune decisions. A node is counted when its
    parent reaches it, and entered only when its bound is not below the
    cutoff, so a child pruned on its bound costs a count but no call.
  * maximality: some maximal forbidden-free graph attains the optimum, so
    leaves that still accept an edge are not evaluated.

Among evaluated optimal leaves the reported witness is the one whose edge
bitstring (slot 0 first, one bit per slot) is lexicographically smallest;
with the maximality rule active that means smallest among maximal
witnesses. No bitstring is kept: include-first order meets the leaves in
descending bitstring order, so the last optimal leaf met is the least, and
a leaf of equal value replaces the incumbent. Results are independent of
the worker count: a run partitions the tree by its first few slot
decisions (none for one worker), whose subtrees in ascending prefix order
hold ascending bitstrings, so reducing them in that order keeps the first
best value, whichever processes searched them.
"""

from __future__ import annotations

import math
from itertools import repeat

from . import _usable_cpus
from .errors import InvariantViolation, Record, ScaleLimitError
from .graphs import (
    Graph,
    SubgraphMatcher,
    chromatic_number,
    complete_graph,
    contains_subgraph,
    e_f,
)
from .partitions import ex_prime
from .weights import ObjectiveValue, WeightFunction, float_slack, tabulate

DEFAULT_LIMIT = 8


class SearchResult(Record):
    __slots__ = ("value", "witness", "nodes_explored", "n", "forbidden", "f")
    value: ObjectiveValue
    witness: Graph
    nodes_explored: int
    n: int
    forbidden: Graph
    f: WeightFunction


def _search_tree(n: int, F: Graph, f: WeightFunction,
                 prefix: tuple[int, ...] = ()):
    """Run the pruned enumeration below one prefix of slot decisions.

    Returns (best value or None, adjacency rows of the best leaf, nodes):
    values are sums of weights.tabulate(f, 0..n-1), integers over its den,
    or floats when den is None. Include-first order meets the leaves in
    descending bitstring order, so a leaf that ties the incumbent has the
    smaller bitstring and replaces it; the rows kept are those of the
    least optimal bitstring.
    """
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    M = len(slots)
    table, den = tabulate(f, range(n))
    monotone = all(a <= b for a, b in zip(table, table[1:]))
    slack = float_slack(table, den, n)
    # a leaf's value depends on its degree multiset alone, so isomorphic
    # leaves tie exactly and the visit order decides between them; it is
    # weights.degree_sum's rule, inlined so a leaf builds no pair list
    leaf_sum = math.fsum if den is None else sum
    # exact mode, where the table holds ints: a cap that falls to c moves
    # the bound by drop[c]
    drop = None if den is None else [a - b for a, b in zip(table, table[1:])]

    # called with the new edge already present in adj; a pattern larger than
    # the host fits nowhere, so it needs no matcher
    if F.n > n:
        def creates_forbidden(adj, n, u, v):
            return False
    else:
        creates_forbidden = SubgraphMatcher(F).exists_using_edge

    # per slot: its ends and their bits in a row
    plan = [(u, v, 1 << u, 1 << v) for u, v in slots]
    adj = [0] * n
    # cap[x] = degree of x + undecided slots at x
    cap = [n - 1] * n
    nodes = 0
    best = None
    best_rows = None
    # bounds below this cannot tie the incumbent, even up to rounding
    cutoff = -math.inf

    def leaf_is_maximal() -> bool:
        for u, v, bu, bv in plan:
            if adj[u] & bv:
                continue
            adj[u] |= bv
            adj[v] |= bu
            creates = creates_forbidden(adj, n, u, v)
            adj[u] ^= bv
            adj[v] ^= bu
            if not creates:
                return False
        return True

    # bound is the weight sum over cap: the include child inherits it, the
    # exclude child adds two drops (exact) or re-sums in vertex order (float).
    # Each child is counted where it is reached and entered only if its bound
    # is not below the cutoff; the include child's bound passed at this node
    # and only a leaf raises the cutoff, so it is entered untested.
    def rec(i: int, bound):
        nonlocal nodes, best, best_rows, cutoff
        if i == M:
            if monotone and not leaf_is_maximal():
                return
            value = leaf_sum([table[row.bit_count()] for row in adj])
            # >=: this leaf's bitstring is below every one met before it
            if best is None or value >= best:
                best = value
                best_rows = adj[:]
                cutoff = best - slack if monotone else -math.inf
            return
        u, v, bu, bv = plan[i]
        adj[u] |= bv
        adj[v] |= bu
        if not creates_forbidden(adj, n, u, v):
            nodes += 1
            rec(i + 1, bound)
        adj[u] ^= bv
        adj[v] ^= bu
        cap[u] -= 1
        cap[v] -= 1
        if drop is None:
            bound = sum(map(table.__getitem__, cap))
        else:
            bound += drop[cap[u]] + drop[cap[v]]
        nodes += 1
        if not bound < cutoff:
            rec(i + 1, bound)
        cap[u] += 1
        cap[v] += 1

    # apply the prefix decisions, bailing out if they already force a copy;
    # the root is counted like any child, and no leaf has set a cutoff yet
    for decision, (u, v, bu, bv) in zip(prefix, plan):
        if decision:
            adj[u] |= bv
            adj[v] |= bu
            if creates_forbidden(adj, n, u, v):
                break
        else:
            cap[u] -= 1
            cap[v] -= 1
    else:
        nodes += 1
        rec(len(prefix), sum(map(table.__getitem__, cap)))
    return best, best_rows, nodes


def ex_exact(n: int, F: Graph, f: WeightFunction, *,
             limit: int = DEFAULT_LIMIT, workers: int = 1) -> SearchResult:
    """Exact maximum of the weighted degree sum over F-free graphs of order n.

    Refuses orders above the limit (the tree has up to 2**C(n,2) leaves).
    One worker searches the whole tree, the subtree below the empty prefix.
    With workers > 1 the tree is split on its first ceil(log2(4 * workers))
    slot decisions (at least 2, at most C(n,2)), one subtree per prefix.
    At most min(workers, usable CPUs) processes search the subtrees: a
    process pool when that is more than one, else this process, in prefix
    order. Usable CPUs are the process's affinity set, or os.cpu_count()
    where the OS keeps none. Every bitstring below prefix p is smaller than
    every one below p + 1, so the subtree results, reduced once in prefix
    order keeping the first best value, give the least optimal bitstring:
    value and witness do not depend on the worker count. The node count
    does, since subtrees do not share their incumbents; it follows the
    split, so the worker count alone, never the number of CPUs.
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
    depth = (min(M, max(2, math.ceil(math.log2(4 * workers))))
             if workers > 1 and M > 2 else 0)
    prefixes = [tuple((p >> (depth - 1 - j)) & 1 for j in range(depth))
                for p in range(1 << depth)]
    searches = (repeat(n), repeat(F), repeat(f), prefixes)
    procs = min(workers, _usable_cpus()) if depth else 1
    if procs > 1:
        # imported here: it pulls in multiprocessing, which a run on one
        # CPU would otherwise load for nothing
        from concurrent.futures import ProcessPoolExecutor

        # pool.map keeps prefix order, which the reduce below relies on
        with ProcessPoolExecutor(max_workers=procs) as pool:
            results = list(pool.map(_search_tree, *searches))
    else:
        results = map(_search_tree, *searches)
    best = None
    best_rows = None
    nodes = 0
    # strict >: an equal value from a later prefix has a larger bitstring
    for value, rows, sub_nodes in results:
        nodes += sub_nodes
        if value is not None and (best is None or value > best):
            best = value
            best_rows = rows

    if best is None:
        raise InvariantViolation("search evaluated no leaf; this cannot happen")

    witness = Graph._from_adj(n, best_rows)
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
    # only degrees 0..n-1 occur, so f beyond n-1 is never evaluated
    table, den = tabulate(f, range(max(n, 1)))
    if any(a > b for a, b in zip(table, table[1:])):
        raise ValueError("equality is only guaranteed for non-decreasing weights")
    full = ex_exact(n, complete_graph(r), f, limit=limit, workers=workers)
    multi = ex_prime(n, r - 1, f)
    return abs(full.value - multi.value) <= float_slack(table, den, n)


class RatioRow(Record):
    __slots__ = ("n", "ex_value", "ex_prime_value", "ratio")
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
