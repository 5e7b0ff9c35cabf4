"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's search machinery:
containment is tested by trying every injective vertex map, coloring by
trying every color map, and the forbidden-free maximum by scoring every
labeled graph; the witness oracle also reads off the least optimal
maximal edge bitstring. The norm graph is built by field-element
subtraction and K_{a,b}-freeness by scanning every a-subset. The multipartite optimum has
two references, the full-table DP and the generator enumeration; each
adds the same part values in the same order as the routine it checks, so
float results must agree bit for bit. Float ties are judged by the
library's one rounding rule, weights.float_slack, as the routines do.
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


def naive_ex_exact_witness(n: int, F: Graph, f) -> tuple[ObjectiveValue, Graph]:
    """Optimum and witness as ex_exact defines them, for non-decreasing f.

    Slots are the pairs (u, v), u < v, in row-major order, and slot 0 is
    the most significant bit of a graph's bitstring. Every bitstring is
    tested against every copy of F in K_n (as an edge mask), the maximal
    F-free ones are scored with e_f, and the least bitstring among the
    optimal ones is returned. 2^15 bitstrings at n = 6.
    """
    pairs = list(combinations(range(n), 2))
    M = len(pairs)
    slot_bit = {pair: 1 << (M - 1 - i) for i, pair in enumerate(pairs)}
    copies = set()
    for images in permutations(range(n), F.n):
        copies.add(sum(slot_bit[tuple(sorted((images[u], images[v])))]
                       for u, v in F.edges()))
    free = [not any(bits & c == c for c in copies) for bits in range(1 << M)]
    best = best_bits = None
    for bits in range(1 << M):
        if not free[bits] or any(free[bits | b] for b in slot_bit.values() if not bits & b):
            continue
        value = e_f(Graph(n, [p for p in pairs if bits & slot_bit[p]]), f)
        if best is None or value > best:
            best, best_bits = value, bits
    return best, Graph(n, [p for p in pairs if best_bits & slot_bit[p]])


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


def join(H: Graph, K: Graph) -> Graph:
    """H and K side by side, with every edge between them added."""
    edges = H.edges() + [(H.n + u, H.n + v) for u, v in K.edges()]
    edges += [(u, H.n + v) for u in range(H.n) for v in range(K.n)]
    return Graph(H.n + K.n, edges)


def _part_values(n: int, f):
    """value[t] = t * f(n - t) for t in 0..n, in tabulate's units."""
    table, den = tabulate(f, range(n))
    return [0] + [t * table[n - t] for t in range(1, n + 1)], den


def full_table_ex_prime(n: int, k: int, f) -> PartitionOptimum:
    """The partition DP with every row 1..k filled and min_max up to k.

    best[j][m] = max over t of best[j-1][m-t] + t*f(n-t), for every j and
    m; the witness descends through the table, taking at each level the
    smallest leading part whose remainder has an optimal filling with
    largest part at most t.
    """
    vals, den = _part_values(n, f)
    neg = -math.inf
    prev = [0.0 if den is None else 0] + [neg] * n
    rows = [prev]
    for _j in range(k):
        prev = [max(map(add, prev[m::-1], vals)) for m in range(n + 1)]
        rows.append(prev)
    tol = float_slack(vals, den, k)

    def leaders(j: int, m: int):
        target = rows[j][m]
        for t in range(-(-m // j), m + 1):
            p = rows[j - 1][m - t]
            if p != neg and abs((p + vals[t]) - target) <= tol:
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
    return PartitionOptimum(value=ObjectiveValue.scaled(rows[k][n], den),
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
    scored by sum() over its part values."""
    vals, den = _part_values(n, f)
    tol = float_slack(vals, den, k)
    best = second = best_vec = None
    for vec in _nonincreasing_vectors(k, n, n):
        v = sum(vals[t] for t in vec)
        if best is None or v > best:
            second, best, best_vec = best, v, vec
        elif second is None or v > second:
            second = v
    ties = second is not None and (best - second) <= tol
    return PartitionOptimum(value=ObjectiveValue.scaled(best, den),
                            witness=PartSizes(best_vec), n=n, k=k, f=f, ties_flag=ties)
