"""Exhaustive maximization of weighted degrees over forbidden-subgraph-free graphs.

The search decides the C(n,2) edge slots in a fixed lexicographic order,
include branch first. A branch dies as soon as the partial graph acquires a
copy of the forbidden graph (containment is monotone under edge addition,
so only copies through the newly added edge are searched). That question
is one call: graphs.creates_clique for a complete forbidden graph, which
builds no matcher, and SubgraphMatcher.exists_using_edge for any other.
Both answer for the host plus the edge, held or not, so the edge is asked
before it is written, and written only for an include child that is
entered. Two further prunings apply whenever the weight is non-decreasing
on 0..n-1:

  * bound: each vertex can finish with degree at most its cap, current
    degree plus undecided slots, so the weight sum of the caps bounds every
    leaf below. The bound is the sum of weights.tabulate's integers over
    the caps, in every mode. Including a slot leaves every cap as it is, so
    the bound moves only when a slot is excluded, by the table differences
    at the two lowered caps, in O(1). An exclude child is entered iff its
    bound is not below lo, one integer test in every mode: lo is the
    incumbent's total in exact mode, and in float mode the least integer
    bound whose value reaches the incumbent's rounded value less the
    margin weights.float_slack, computed exactly once per incumbent. A node
    is counted when its parent reaches it, so a child pruned on its bound
    costs a count but no call and no cap write.
  * maximality: some maximal forbidden-free graph attains the optimum, so
    leaves that still accept an edge are not evaluated.

A leaf's score is the exact integer total of its degrees' table values,
and leaves compare by it in every mode; the value reported is that total
over the table's denominator, exact, or in float mode correctly rounded.
Among evaluated optimal leaves the reported witness is the one whose edge
bitstring (slot 0 first, one bit per slot) is lexicographically smallest;
with the maximality rule active that means smallest among maximal
witnesses. No bitstring is kept: include-first order meets the leaves in
descending bitstring order, so the last optimal leaf met is the least, and
a leaf of equal total replaces the incumbent. Results are independent of
the worker count: a run partitions the tree by its first few slot
decisions (none for one worker) and searches the subtrees in this
process, one after another, each with its own incumbent. Subtrees in
ascending prefix order hold ascending bitstrings, so reducing their
totals in that order keeps the first best.
"""

from __future__ import annotations

import math

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


def _search_tree(n: int, F: Graph, f: WeightFunction, depth: int = 0):
    """Run the pruned enumeration below each prefix p < 2**depth, in order.

    p decides slot j by its bit depth-1-j, 1 including it. The table, slot
    plan and edge test are set up once; each subtree keeps an incumbent of
    its own and yields (best total or None, its value, adjacency rows of
    the best leaf, nodes). A leaf's total is the sum of
    weights.tabulate(f, 0..n-1), integers over scale, and leaves compare by
    total in every mode; the value is the best total / scale, exact, or in
    float mode correctly rounded. Include-first order meets the leaves in
    descending bitstring order, so a leaf that ties the incumbent has the
    smaller bitstring and replaces it; the rows kept are those of the least
    optimal bitstring. A value past the largest float is refused by name.
    """
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    M = len(slots)
    # the bound runs on the integer table, and a cap that falls to c moves
    # it by drop[c]
    itable, scale, exact = tabulate(f, range(n))
    monotone = all(a <= b for a, b in zip(itable, itable[1:]))
    slack = float_slack(itable, scale, exact, n)
    drop = [a - b for a, b in zip(itable, itable[1:])]

    # creates_forbidden(adj, k, u, v): would adj plus the edge (u, v), which
    # adj does not hold yet, have a copy of F through it? A pattern larger
    # than the host fits nowhere. A complete one is asked of the clique test
    # with k = F.n, read from this module's globals here so that
    # perfbench/tracing.py counts it, and builds no matcher; every other is
    # asked of the matcher with k = n.
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

    def leaf_is_maximal() -> bool:
        for u, v, bu, bv in plan:
            if not adj[u] & bv and not creates_forbidden(adj, k, u, v):
                return False
        return True

    # bound is the itable sum over cap: the include child inherits it, the
    # exclude child adds two drops. Each child is counted where it is reached
    # and entered only if its bound is not below lo. The include child's
    # bound passed at this node and only a leaf raises lo, so it is entered
    # untested. The edge test is asked before the edge is written, and the
    # exclude child's bound is read off the lowered caps before they are
    # written: a forbidden include child, or an exclude child its bound
    # cuts, writes nothing. The defaults make the per-node reads local.
    def rec(i: int, bound: int, plan=plan, adj=adj, cap=cap, drop=drop, M=M,
            creates_forbidden=creates_forbidden, k=k):
        nonlocal nodes, best_total, best_rows, lo
        if i == M:
            if monotone and not leaf_is_maximal():
                return
            # a leaf's total depends on its degree multiset alone, so
            # isomorphic leaves tie exactly and the visit order decides
            total = sum([itable[row.bit_count()] for row in adj])
            # >=: this leaf's bitstring is below every one met before it
            if best_total is None or total >= best_total:
                best_total = total
                best_rows = adj[:]
                if monotone:
                    lo = total if exact else _ceil_scaled(total / scale - slack, scale)
            return
        u, v, bu, bv = plan[i]
        if creates_forbidden(adj, k, u, v):
            nodes += 1
        else:
            nodes += 2
            adj[u] |= bv
            adj[v] |= bu
            rec(i + 1, bound)
            adj[u] ^= bv
            adj[v] ^= bu
        cu = cap[u] - 1
        cv = cap[v] - 1
        bound += drop[cu] + drop[cv]
        if bound >= lo:
            cap[u] = cu
            cap[v] = cv
            rec(i + 1, bound)
            cap[u] = cu + 1
            cap[v] = cv + 1

    for p in range(1 << depth):
        # rec holds adj and cap, so they are reset in place
        adj[:] = [0] * n
        cap[:] = [n - 1] * n
        nodes = 0
        best_total = best_rows = best = None
        # the least bound that can still tie the incumbent, up to the margin
        lo = -math.inf
        # apply the prefix decisions, bailing out if they already force a
        # copy; the root is counted like any child
        for j in range(depth):
            u, v, bu, bv = plan[j]
            if p >> (depth - 1 - j) & 1:
                if creates_forbidden(adj, k, u, v):
                    break
                adj[u] |= bv
                adj[v] |= bu
            else:
                cap[u] -= 1
                cap[v] -= 1
        else:
            nodes += 1
            try:
                rec(depth, sum(map(itable.__getitem__, cap)))
                if best_total is not None:
                    best = ObjectiveValue.scaled(best_total, scale, exact)
            except OverflowError:
                raise ValueError(f"the optimum at n={n} free of {graph6_encode(F)!r} "
                                 f"(graph6) under {f!r} overflows float") from None
        yield best_total, best, best_rows, nodes


def _ceil_scaled(x: float, scale: int) -> int:
    """ceil(x * scale), computed exactly from x's integer ratio."""
    p, q = x.as_integer_ratio()
    return -(-p * scale // q)


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
    slot decisions (at least 2, at most C(n,2)), one subtree per prefix,
    and this process searches the subtrees in prefix order. Every bitstring
    below prefix p is smaller than every one below p + 1, so the subtree
    results, reduced in prefix order keeping the first best total, give the
    least optimal bitstring: value and witness do not depend on the worker
    count. The node count does, since subtrees do not share their
    incumbents. An optimum past the largest float is refused with a
    ValueError naming n, F and f.
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
    best_total = best = best_rows = None
    nodes = 0
    # strict >: an equal total from a later prefix has a larger bitstring
    for total, value, rows, sub_nodes in _search_tree(n, F, f, depth):
        nodes += sub_nodes
        if total is not None and (best_total is None or total > best_total):
            best_total, best, best_rows = total, value, rows

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
    subfamily of the F-free graphs, so the multipartite optimum is never
    the larger. Equal optima give 1.0; otherwise the ratio is defined only
    over a positive multipartite optimum, and is then >= 1, as both optima
    are correctly rounded and rounding is monotone. An order where it is
    not defined, or passes the largest float, is refused with a ValueError
    naming n and both optima, and an order over the limit is refused
    before chi(F) or any search.
    """
    lo, hi = n_range
    _check_limit(hi, limit)
    chi = chromatic_number(F)
    if chi < 3:
        raise ValueError(
            "ratio table requires a non-bipartite forbidden graph "
            f"(chromatic number >= 3, got {chi})"
        )
    rows = []
    for n in range(lo, hi + 1):
        full = ex_exact(n, F, f, limit=limit, workers=workers)
        multi = ex_prime(n, chi - 1, f)
        if multi.value > full.value:
            raise InvariantViolation(
                f"multipartite optimum exceeded the unrestricted optimum at n={n}"
            )
        if full.value == multi.value:
            ratio = 1.0
        elif multi.value.approx <= 0:
            raise ValueError(f"no ratio at n={n}: the optimum is {full.value.as_json()} "
                             f"and the multipartite optimum {multi.value.as_json()}, "
                             f"which is not positive")
        else:
            ratio = full.value.approx / multi.value.approx
            if ratio == math.inf:
                raise ValueError(f"no ratio at n={n}: the optimum {full.value.as_json()} "
                                 f"over the multipartite optimum "
                                 f"{multi.value.as_json()} passes the largest float")
        rows.append(RatioRow(n=n, ex_value=full.value,
                             ex_prime_value=multi.value, ratio=ratio))
    return rows
