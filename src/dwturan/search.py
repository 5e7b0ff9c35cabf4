"""Exhaustive maximization of weighted degrees over forbidden-subgraph-free graphs.

The search decides the C(n,2) edge slots in a fixed lexicographic order,
include branch first. A branch dies as soon as the partial graph acquires a
copy of the forbidden graph (containment is monotone under edge addition,
so only copies through the newly added edge are searched). That question
is one call: graphs.creates_clique for a complete forbidden graph, which
builds no matcher, and SubgraphMatcher.exists_using_edge for any other.
Two further prunings apply whenever the weight is non-decreasing on
0..n-1:

  * bound: each vertex can finish with degree at most its cap, current
    degree plus undecided slots, so the weight sum of the caps bounds every
    leaf below; subtrees under the incumbent by more than rounding
    (weights.float_slack) are cut. Including a slot leaves every cap as it
    is, so the bound moves only when a slot is excluded, by the table
    differences at the two lowered caps, in O(1) and in integers in every
    mode, on weights.tabulate's integer table. A float-mode child is
    entered when its float bound, the caps' weights summed in vertex order,
    is not below the cutoff. That sum, plain or compensated (Python's sum
    from 3.12), lies within float_slack of the exact one (Higham, section
    4.2), so the integer bound decides every child outside the band
    [cutoff - slack, cutoff + slack], scaled, and the float sum is taken
    only inside it. A node is counted when its parent reaches it, and
    entered only when its bound is not below the cutoff, so a child pruned
    on its bound costs a count but no call.
  * maximality: some maximal forbidden-free graph attains the optimum, so
    leaves that still accept an edge are not evaluated.

A leaf's value is the exact integer total of its degrees' table values,
and in float mode that total correctly rounded, so leaves tie as floats.
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
    creates_clique,
    e_f,
    graph6_encode,
)
from .partitions import ex_prime
from .weights import ObjectiveValue, WeightFunction, float_slack, is_nondecreasing, tabulate

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

    Returns (best value or None, adjacency rows of the best leaf, nodes).
    A leaf scores the sum of weights.tabulate(f, 0..n-1), integers over
    scale: that total in exact mode, the total / scale correctly rounded in
    float mode, where leaves compare as floats. Include-first order meets
    the leaves in descending bitstring order, so a leaf that ties the
    incumbent has the smaller bitstring and replaces it; the rows kept are
    those of the least optimal bitstring. A total past the largest float
    is refused by name.
    """
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    M = len(slots)
    # the bound runs on the integer table, and a cap that falls to c moves
    # it by drop[c]; in float mode the band's fallback sums table, each
    # value v / scale rounded once (f's float where f is irrational)
    itable, scale, exact = tabulate(f, range(n))
    monotone = all(a <= b for a, b in zip(itable, itable[1:]))
    slack = float_slack(itable, scale, exact, n)
    table = itable if exact else [v / scale for v in itable]
    drop = [a - b for a, b in zip(itable, itable[1:])]

    # creates_forbidden(adj, k, u, v): is there a copy of F through the edge
    # (u, v), already present in adj? A pattern larger than the host fits
    # nowhere. A complete one is asked of the clique test with k = F.n, read
    # from this module's globals here so that perfbench/tracing.py counts it,
    # and builds no matcher; every other is asked of the matcher with k = n.
    k = F.n
    if k > n:
        def creates_forbidden(adj, k, u, v):
            return False
    elif F.num_edges == k * (k - 1) // 2:
        creates_forbidden = creates_clique
    else:
        creates_forbidden = SubgraphMatcher(F).exists_using_edge
        k = n

    # per slot: its ends and their bits in a row
    plan = [(u, v, 1 << u, 1 << v) for u, v in slots]
    adj = [0] * n
    # cap[x] = degree of x + undecided slots at x
    cap = [n - 1] * n
    nodes = 0
    best = None
    best_total = None
    best_rows = None
    # bounds below this cannot tie the incumbent, even up to rounding;
    # integer bounds from hi up pass it, those below lo fail it, and
    # between the two the float sum decides
    cutoff = lo = hi = -math.inf

    def leaf_is_maximal() -> bool:
        for u, v, bu, bv in plan:
            if adj[u] & bv:
                continue
            adj[u] |= bv
            adj[v] |= bu
            creates = creates_forbidden(adj, k, u, v)
            adj[u] ^= bv
            adj[v] ^= bu
            if not creates:
                return False
        return True

    # bound is the itable sum over cap: the include child inherits it, the
    # exclude child adds two drops. Each child is counted where it is reached
    # and entered only if its bound is not below the cutoff: at or above hi,
    # or from lo up when the caps' float sum in vertex order is not below it
    # (in exact mode lo == hi == cutoff). The include child's bound passed at
    # this node and only a leaf raises the cutoff, so it is entered untested.
    def rec(i: int, bound: int):
        nonlocal nodes, best, best_total, best_rows, cutoff, lo, hi
        if i == M:
            if monotone and not leaf_is_maximal():
                return
            # a leaf's value depends on its degree multiset alone, so
            # isomorphic leaves tie exactly and the visit order decides
            total = sum([itable[row.bit_count()] for row in adj])
            value = total if exact else total / scale
            # >=: this leaf's bitstring is below every one met before it
            if best is None or value >= best:
                best = value
                best_total = total
                best_rows = adj[:]
                if monotone:
                    cutoff = best - slack
                    lo, hi = (cutoff, cutoff) if exact else _scaled_band(cutoff, slack, scale)
            return
        u, v, bu, bv = plan[i]
        adj[u] |= bv
        adj[v] |= bu
        if not creates_forbidden(adj, k, u, v):
            nodes += 1
            rec(i + 1, bound)
        adj[u] ^= bv
        adj[v] ^= bu
        cap[u] -= 1
        cap[v] -= 1
        bound += drop[cap[u]] + drop[cap[v]]
        nodes += 1
        if bound >= hi or bound >= lo and not sum(map(table.__getitem__, cap)) < cutoff:
            rec(i + 1, bound)
        cap[u] += 1
        cap[v] += 1

    # apply the prefix decisions, bailing out if they already force a copy;
    # the root is counted like any child, and no leaf has set a cutoff yet
    for decision, (u, v, bu, bv) in zip(prefix, plan):
        if decision:
            adj[u] |= bv
            adj[v] |= bu
            if creates_forbidden(adj, k, u, v):
                break
        else:
            cap[u] -= 1
            cap[v] -= 1
    else:
        nodes += 1
        try:
            rec(len(prefix), sum(map(itable.__getitem__, cap)))
            if best is not None:
                best = ObjectiveValue.scaled(best_total, scale, exact)
        except OverflowError:
            raise ValueError(f"the optimum at n={n} free of {graph6_encode(F)!r} "
                             f"(graph6) under {f!r} overflows float") from None
    return best, best_rows, nodes


def _scaled_band(cutoff: float, slack: float, scale: int) -> tuple[int, int]:
    """(floor((cutoff - slack) * scale), ceil((cutoff + slack) * scale)),
    computed exactly from the two floats' integer ratios."""
    p, q = cutoff.as_integer_ratio()
    s, t = slack.as_integer_ratio()
    den = q * t
    return ((p * t - s * q) * scale // den,
            -(-(p * t + s * q) * scale // den))


def _check_limit(n: int, limit: int) -> None:
    """Refuse an order above the limit, whose tree has 2**C(n,2) leaves."""
    if n > limit:
        raise ScaleLimitError(
            f"order {n} above limit {limit}: up to 2^{n * (n - 1) // 2} "
            f"labeled graphs; raise the limit explicitly to proceed"
        )


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
    split, so the worker count alone, never the number of CPUs. An optimum
    past the largest float is refused with a ValueError naming n, F and f.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    _check_limit(n, limit)
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
    # the exact total where the search rounded it; a degree's table value
    # does not depend on the other degrees, so both round one total
    value = e_f(witness, f)
    if value != best:
        raise InvariantViolation("witness does not reproduce the optimal value")
    return SearchResult(value=value, witness=witness, nodes_explored=nodes,
                        n=n, forbidden=F, f=f)


def verify_theorem1(n: int, r: int, f: WeightFunction, *,
                    limit: int = DEFAULT_LIMIT, workers: int = 1) -> bool:
    """Does the unrestricted optimum equal the complete multipartite optimum?

    Compares the exhaustive K_r-free maximum against the best complete
    (r-1)-partite value with ==: both are the exact optimum, correctly
    rounded in float mode.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    # only degrees 0..n-1 occur, so f beyond n-1 is never evaluated
    if not is_nondecreasing(f, (0, max(n, 1) - 1)):
        raise ValueError("equality is only guaranteed for non-decreasing weights")
    full = ex_exact(n, complete_graph(r), f, limit=limit, workers=workers)
    multi = ex_prime(n, r - 1, f)
    return full.value == multi.value


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
    subfamily of the F-free graphs, so every ratio is >= 1: both optima are
    correctly rounded, and rounding is monotone. An order over the limit
    is refused before any search.
    """
    chi = chromatic_number(F)
    if chi < 3:
        raise ValueError(
            "ratio table requires a non-bipartite forbidden graph "
            f"(chromatic number >= 3, got {chi})"
        )
    lo, hi = n_range
    _check_limit(hi, limit)
    rows = []
    for n in range(lo, hi + 1):
        full = ex_exact(n, F, f, limit=limit, workers=workers)
        multi = ex_prime(n, chi - 1, f)
        if multi.value > full.value:
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
