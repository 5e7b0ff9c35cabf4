"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's search machinery:
containment is tested by trying every injective vertex map, coloring by
trying every color map, and the forbidden-free maximum by scoring every
labeled graph; the witness oracles also read off the least optimal
maximal edge bitstring, the log oracle by integer degree products, so
that its ties are exact. The norm graph is built by field-element
subtraction and K_{a,b}-freeness by scanning every a-subset; the budget of
the library's scan has a set-by-set reference, per_set_kab_scan. The
multipartite optimum has two references, the full-table DP and the
generator enumeration; both add the integer part values of
weights.tabulate, so their ties are exact and their float values are
the optimum's exact total correctly rounded, bit for bit what the
routines they check must give. The labeled search has a
reference of its own walk, reference_search_tree: it shares the matcher
and the weight table with the library and keeps the plainest form of
every node, so it checks the tree and not containment. It asks the
matcher of every pattern, and the matcher gives a complete one to its
anchored search, so on K_r it checks the search's clique test,
graphs.creates_clique, against the anchored search. It keeps the
search's float semantics: in float mode a leaf is the math.fsum of its
table floats, leaves compare as floats, and the bound prunes within the
rounding band weights.float_slack. That fsum is the search's leaf, the
exact total correctly rounded, where every table value is a float, so
for weights dyadic at their rational points, as all it is run on are.
"""

import math
from itertools import combinations, permutations, product
from operator import add

from dwturan import (
    FiniteField,
    Graph,
    ObjectiveValue,
    PartitionOptimum,
    PartSizes,
    e_f,
    norm,
)
from dwturan.graphs import SubgraphMatcher
from dwturan.weights import float_slack, tabulate


def naive_contains(G: Graph, F: Graph) -> bool:
    if F.n > G.n:
        return False
    f_edges = F.edges()
    for images in permutations(range(G.n), F.n):
        if all(G.has_edge(images[u], images[v]) for u, v in f_edges):
            return True
    return False


def naive_contains_through_edge(G: Graph, F: Graph, a: int, b: int) -> bool:
    """Is there a copy of F in G with some edge of F mapped onto {a, b}?"""
    if F.n > G.n:
        return False
    f_edges = F.edges()
    ends = ((a, b), (b, a))
    for images in permutations(range(G.n), F.n):
        if (all(G.has_edge(images[u], images[v]) for u, v in f_edges)
                and any((images[u], images[v]) in ends for u, v in f_edges)):
            return True
    return False


def naive_chromatic_number(n: int, edges) -> int:
    """Least k such that some map of the n vertices into k colors is proper."""
    for k in range(1, n + 1):
        for colors in product(range(k), repeat=n):
            if all(colors[u] != colors[v] for u, v in edges):
                return k
    raise ValueError("chromatic number of the empty-order graph is undefined")


def all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def naive_ex_exact(n: int, F: Graph, f):
    """Maximum weighted degree sum over F-free graphs, by full enumeration."""
    best = None
    for G in all_graphs(n):
        if naive_contains(G, F):
            continue
        value = e_f(G, f)
        if best is None or value > best:
            best = value
    return best


def _maximal_free_edge_sets(n: int, F: Graph):
    """Edge lists of the maximal F-free labeled graphs of order n, in
    ascending order of their bitstrings.

    Slots are the pairs (u, v), u < v, in row-major order, and slot 0 is
    the most significant bit of a graph's bitstring. Every bitstring is
    tested against every copy of F in K_n (as an edge mask). 2^15
    bitstrings at n = 6.
    """
    pairs = list(combinations(range(n), 2))
    M = len(pairs)
    slot_bit = {pair: 1 << (M - 1 - i) for i, pair in enumerate(pairs)}
    copies = set()
    for images in permutations(range(n), F.n):
        copies.add(sum(slot_bit[tuple(sorted((images[u], images[v])))]
                       for u, v in F.edges()))
    free = [not any(bits & c == c for c in copies) for bits in range(1 << M)]
    for bits in range(1 << M):
        if free[bits] and not any(free[bits | b] for b in slot_bit.values()
                                  if not bits & b):
            yield [p for p in pairs if bits & slot_bit[p]]


def naive_ex_exact_witness(n: int, F: Graph, f) -> tuple[ObjectiveValue, Graph]:
    """Optimum and witness as ex_exact defines them, for non-decreasing f:
    the maximal F-free graphs are scored with e_f, and the least bitstring
    among the optimal ones is returned."""
    best = best_edges = None
    for edges in _maximal_free_edge_sets(n, F):
        value = e_f(Graph(n, edges), f)
        if best is None or value > best:
            best, best_edges = value, edges
    return best, Graph(n, best_edges)


def reference_search_tree(n: int, F: Graph, f, prefix: tuple[int, ...] = ()):
    """search._search_tree in its plainest form: (best, bits, nodes), best
    an ObjectiveValue.

    Every node is counted on entry and checks its bound there; the
    exclude child sums the weights of the caps afresh, in vertex order;
    a deg list follows adj and the leaf scores it. Every edge test is asked
    with the edge already written, where the library's search asks first
    and writes after, so the two orders are checked against each other.
    The library's search must walk the same tree in the same order, so all
    three outputs, the node count too, are compared exactly.
    """
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    M = len(slots)
    itable, den, exact = tabulate(f, range(n))
    table = itable if exact else [v / den for v in itable]
    monotone = all(a <= b for a, b in zip(table, table[1:]))
    slack = float_slack(itable, den, exact, n)
    leaf_sum = sum if exact else math.fsum
    if F.n > n:
        def creates_forbidden(adj, n, u, v):
            return False
    else:
        creates_forbidden = SubgraphMatcher(F).exists_using_edge

    adj = [0] * n
    deg = [0] * n
    cap = [n - 1] * n
    nodes = 0
    best = None
    best_bits = 0
    cutoff = -math.inf

    def leaf_is_maximal() -> bool:
        for u, v in slots:
            if adj[u] >> v & 1:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            creates = creates_forbidden(adj, n, u, v)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            deg[u] -= 1
            deg[v] -= 1
            if not creates:
                return False
        return True

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
        if not creates_forbidden(adj, n, u, v):
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

    bits0 = 0
    for i, decision in enumerate(prefix):
        u, v = slots[i]
        if decision:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            if creates_forbidden(adj, n, u, v):
                break
            bits0 |= 1 << (M - 1 - i)
        else:
            cap[u] -= 1
            cap[v] -= 1
    else:
        rec(len(prefix), bits0, sum(map(table.__getitem__, cap)))
    if best is not None:
        best = (ObjectiveValue.scaled(best, den, True) if exact
                else ObjectiveValue.approximate(best))
    return best, best_bits, nodes


def naive_log_witness(n: int, F: Graph) -> tuple[int, Graph]:
    """Optimum and witness of ex_exact under log:floor=0, in integers.

    That weight scores a graph by ln of the product of max(d, 1) over its
    degrees, so two graphs tie exactly when those integer products are
    equal, whatever their float sums of logs say. Returns the largest
    product over the maximal F-free graphs and the least bitstring that
    attains it, with no float and no library code beyond Graph.
    """
    best = best_edges = None
    for edges in _maximal_free_edge_sets(n, F):
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        product = math.prod(max(d, 1) for d in degrees)
        if best is None or product > best:
            best, best_edges = product, edges
    return best, Graph(n, best_edges)


def random_step_weight(rng, max_jump=130, max_level=60):
    """Random non-decreasing integer step function on all of N."""
    from dwturan import StepWeight

    jumps = [0] + sorted(rng.sample(range(1, max_jump), rng.randrange(0, 6)))
    level = rng.randrange(0, 5)
    levels = []
    for _ in jumps:
        levels.append(level)
        level += rng.randrange(0, max_level)
    return StepWeight(jumps, levels)


def naive_norm_graph(q: int, t: int) -> Graph:
    """a ~ b iff b = u - a for some u of norm 1, in FieldElement arithmetic."""
    fld = FiniteField(q, t)
    norm_one = [a for a in fld.elements() if norm(a) == fld.one]
    edges = []
    for i in range(fld.size):
        a = fld.from_index(i)
        for u in norm_one:
            j = fld.index(u - a)
            if j > i:
                edges.append((i, j))
    return Graph(fld.size, edges)


def naive_kab_free(G: Graph, a: int, b: int) -> bool:
    """No a-subset of vertices has b or more common neighbors."""
    for members in combinations(range(G.n), a):
        common = (1 << G.n) - 1
        for v in members:
            common &= G.adj[v]
        if common.bit_count() >= b:
            return False
    return True


def per_set_kab_scan(G: Graph, a: int, b: int, max_subsets: int) -> tuple[bool, int]:
    """normgraphs.kab_free_check's scan, charging its budget one examined
    set at a time at every level, the last member's included.

    Returns (K_{a,b}-free, sets examined), and raises ScaleLimitError with
    the library's message at the first set past max_subsets.
    """
    from dwturan import ScaleLimitError

    n = G.n
    left = max_subsets

    def extend(common: int, start: int, need: int) -> bool:
        nonlocal left
        for v in range(start, n - need + 1):
            left -= 1
            if left < 0:
                raise ScaleLimitError(
                    f"K_{{{a},{b}}} scan examined more than {max_subsets} sets")
            shared = common & G.adj[v]
            if shared.bit_count() >= b and (need == 1 or extend(shared, v + 1, need - 1)):
                return True
        return False

    free = not extend((1 << n) - 1, 0, a)
    return free, max_subsets - left


def join(H: Graph, K: Graph) -> Graph:
    """H and K side by side, with every edge between them added."""
    edges = H.edges() + [(H.n + u, H.n + v) for u, v in K.edges()]
    edges += [(u, H.n + v) for u in range(H.n) for v in range(K.n)]
    return Graph(H.n + K.n, edges)


def _part_values(n: int, f):
    """value[t] = t * f(n - t) for t in 0..n, in tabulate's integer units."""
    table, den, exact = tabulate(f, range(n))
    return [0] + [t * table[n - t] for t in range(1, n + 1)], den, exact


def full_table_ex_prime(n: int, k: int, f) -> PartitionOptimum:
    """The partition DP with every row 1..k filled and min_max up to k.

    best[j][m] = max over t of best[j-1][m-t] + t*f(n-t), for every j and
    m; the witness descends through the table, taking at each level the
    smallest leading part whose remainder has an optimal filling with
    largest part at most t.
    """
    vals, den, exact = _part_values(n, f)
    neg = -math.inf
    prev = [0] + [neg] * n
    rows = [prev]
    for _j in range(k):
        prev = [max(map(add, prev[m::-1], vals)) for m in range(n + 1)]
        rows.append(prev)

    def leaders(j: int, m: int):
        target = rows[j][m]
        for t in range(-(-m // j), m + 1):
            p = rows[j - 1][m - t]
            if p != neg and p + vals[t] == target:
                mm = min_max[j - 1][m - t]
                if mm is not None and mm <= t:
                    yield t

    min_max = [[0] + [None] * n]
    for j in range(1, k + 1):
        min_max.append([next(leaders(j, m), None) for m in range(n + 1)])

    witness = []
    ties = False
    j, m = k, n
    while j > 0:
        found = leaders(j, m)
        t_star = next(found)
        ties = ties or next(found, None) is not None
        witness.append(t_star)
        j, m = j - 1, m - t_star
    return PartitionOptimum(value=ObjectiveValue.scaled(rows[k][n], den, exact),
                            witness=PartSizes(witness), n=n, k=k, f=f, ties_flag=ties)


def _nonincreasing_vectors(k: int, m: int, cap: int):
    """Non-increasing k-vectors of non-negative ints summing to m, entries
    <= cap, in ascending lexicographic order."""
    if k == 0:
        if m == 0:
            yield ()
        return
    for t in range(-(-m // k), min(cap, m) + 1):
        for rest in _nonincreasing_vectors(k - 1, m - t, t):
            yield (t,) + rest


def generator_ex_prime(n: int, k: int, f) -> PartitionOptimum:
    """Every non-increasing k-vector from a chain of generators, each
    scored by sum() over its integer part values; a tie is an equal sum."""
    vals, den, exact = _part_values(n, f)
    best = second = best_vec = None
    for vec in _nonincreasing_vectors(k, n, n):
        v = sum(vals[t] for t in vec)
        if best is None or v > best:
            second, best, best_vec = best, v, vec
        elif second is None or v > second:
            second = v
    ties = second is not None and best == second
    return PartitionOptimum(value=ObjectiveValue.scaled(best, den, exact),
                            witness=PartSizes(best_vec), n=n, k=k, f=f, ties_flag=ties)
