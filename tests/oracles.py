"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's search machinery:
containment is tested by trying every injective vertex map, and the
forbidden-free maximum by scoring every labeled graph.
"""

from itertools import combinations, permutations

from dwturan import Graph, e_f


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
