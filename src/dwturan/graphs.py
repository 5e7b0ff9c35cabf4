"""Simple undirected graphs with bitset adjacency.

Vertices are 0..n-1. Each adjacency row is a Python int used as a bitset,
which gives O(1) edge queries and one-instruction row intersections; both
are load-bearing for the subgraph search and the exhaustive enumerator.

Containment throughout this package means *subgraph* containment (an
injective map preserving edges), not induced containment.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import Record, ScaleLimitError
from .weights import ObjectiveValue, degree_sum


def _bits(mask: int):
    """Yield set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: no loops, symmetric adjacency, cached degrees.

    Two optional hints carry facts that the constructor proved, so that no
    reader proves them again. Every constructor but the two named here
    leaves both None, and equality, hashing and graph6 ignore both.

    ``orbit_reps`` is a symmetry hint: an ascending tuple holding one vertex
    of each orbit of some group of automorphisms, or None, which stands for
    the trivial group (every vertex its own orbit). Only
    ``normgraphs.norm_graph`` sets it. ``normgraphs._multipartite_scan``,
    the scan behind both ``kab_free_check`` and ``join_contains_blowup``,
    reads it.

    ``clique_free`` is an r such that the graph has no K_r, or None, which
    claims nothing. Only ``majorize.random_kr_free_graph`` sets it, to its
    r. ``majorize.erdos_majorizer`` reads it and skips its clique search
    when the hint is at most the r it is asked for.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.degrees = tuple(m.bit_count() for m in adj)
        self.orbit_reps = None
        self.clique_free = None

    @classmethod
    def _from_adj(cls, n: int, adj: Sequence[int],
                  orbit_reps: Optional[tuple[int, ...]] = None, *,
                  clique_free: Optional[int] = None) -> "Graph":
        # trusted internal path: rows already symmetric and loop-free,
        # orbit_reps, if given, one vertex per orbit of automorphisms, and
        # clique_free, if given, an r with no K_r in the rows
        g = cls.__new__(cls)
        g.n = n
        g.adj = tuple(adj)
        g.degrees = tuple(m.bit_count() for m in adj)
        g.orbit_reps = orbit_reps
        g.clique_free = clique_free
        return g

    @property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for k in _bits(rest):
                out.append((u, u + 1 + k))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


class PartSizes(Record):
    """Multiset of part sizes of a complete multipartite graph.

    Stored canonically in non-increasing order; zero-size parts are kept.
    """

    __slots__ = ("sizes",)
    sizes: tuple[int, ...]

    def __init__(self, sizes: Iterable[int]):
        tup = tuple(sorted((int(s) for s in sizes), reverse=True))
        if any(s < 0 for s in tup):
            raise ValueError("part sizes must be non-negative")
        object.__setattr__(self, "sizes", tup)

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, i):
        return self.sizes[i]


def e_f(G: Graph, f) -> ObjectiveValue:
    """Sum of f over the degree sequence of G, f once per distinct degree."""
    return degree_sum(f, list(Counter(G.degrees).items()))


# ---------------------------------------------------------------------------
# constructions


def complete_graph(r: int) -> Graph:
    full = (1 << r) - 1
    return Graph._from_adj(r, [full ^ (1 << v) for v in range(r)])


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def path_graph(m: int) -> Graph:
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite([a, b])


def multipartite_on_classes(n: int, classes: Iterable[Iterable[int]]) -> Graph:
    """Graph on 0..n-1 where u ~ v iff u and v lie in different classes.

    The classes must be disjoint; a vertex in no class stays isolated.
    """
    masks = []
    for cls in classes:
        mask = 0
        for v in cls:
            mask |= 1 << v
        masks.append(mask)
    full = 0
    for mask in masks:
        full |= mask
    adj = [0] * n
    for mask in masks:
        row = full & ~mask
        for v in _bits(mask):
            adj[v] = row
    return Graph._from_adj(n, adj)


def complete_multipartite(parts: Iterable[int] | PartSizes) -> Graph:
    """Complete multipartite graph; u ~ v iff u and v lie in different parts.

    Zero-size parts are permitted and contribute nothing. Every vertex in a
    part of size s has degree total - s.
    """
    sizes = list(parts)
    if any(s < 0 for s in sizes):
        raise ValueError("part sizes must be non-negative")
    classes = []
    start = 0
    for s in sizes:
        classes.append(range(start, start + s))
        start += s
    return multipartite_on_classes(start, classes)


def blowup_k3(s: int) -> Graph:
    """Triangle with every vertex duplicated s times: complete 3-partite (s,s,s)."""
    if s < 1:
        raise ValueError("class size must be positive")
    return complete_multipartite([s, s, s])


# ---------------------------------------------------------------------------
# subgraph containment


class SubgraphMatcher:
    """Backtracking search for (not necessarily induced) copies of a pattern.

    Pattern vertices are assigned in descending-degree order (ties by index).
    A candidate must have enough host degree and be a common neighbor of the
    images of its already-assigned pattern neighbors. A host is given by its
    adjacency bitmask rows, ``exists_using_edge(adj, n, a, b)``, and host
    degrees are read off the rows. Interchangeable pattern vertices (equal
    neighborhoods, as twins) are forced onto ascending host images, which
    removes the factorial blow-up on blow-up patterns without losing any
    copy.

    The twin order only looks backward: each position keeps its nearest
    earlier twin and must take a larger image than that twin's. Positions
    are filled in ascending order, so when one is placed every earlier
    twin already has its image and no later twin has one yet; a ceiling
    from later twins could never apply. By induction the images ascend
    along each twin class, so the nearest earlier twin carries the largest
    image among them.

    ``exists_using_edge`` pins one oriented pattern edge per orbit of Aut(F)
    on oriented edges onto the host edge, not all 2|E(F)| of them: any copy
    through the host edge can be composed with an automorphism so that the
    orbit's representative lands on it. Such a search drops the twin order
    on the two anchored positions and keeps it between the others. The
    composed copy cannot be asked to order its anchors against their twins,
    since the host edge fixes their images; permuting each twin class minus
    the anchors still sorts the rest. Keeping the twin order on the anchors
    loses copies: C4 has one anchor, and the C4-free search at n = 7 then
    accepts graphs that contain C4. The orbits are found on the first such
    call, by the same anchored search with F as its own host; Aut(F) itself
    is never listed.

    Three shapes leave the anchored search in ``exists_using_edge``; each
    kernel is faster than it on its shape. A connected pattern of maximum
    degree at most 2 that is not complete is a cycle C_k (k >= 4) when it
    has k edges and a path P_k (k >= 3) otherwise; both go to one bitset
    walk, ``_walk_from``.
    C_k through (a, b) is a walk of k - 2 vertices from b that ends in N(a);
    P_k through (a, b) hangs the k - 2 other vertices off b and a, each
    split once. So C4 = K_{2,2} and P3 = K_{1,2} take the walk. Any other
    complete bipartite K_{s,t} with s <= 2 (K_{1,t} and K_{2,t}, t >= 3)
    goes to ``_bipartite_through``, which counts degrees and common
    neighbourhoods as Kővári, Sós and Turán do; K_{s,t} with s >= 3 stays
    anchored, as does every complete pattern, K3 = C3 among them: the
    labeled search asks ``creates_clique`` itself of a complete pattern.
    The shape is read off the pattern alone.
    ``exists_in`` stays generic for every pattern, so re-checking a witness
    of a kernel search runs a different algorithm from the one that pruned it.
    """

    def __init__(self, F: Graph):
        self.pattern = F
        k = F.n
        order = sorted(range(k), key=lambda v: (-F.degrees[v], v))
        pos_of = {v: i for i, v in enumerate(order)}
        self.order = order
        self.deg = [F.degrees[v] for v in order]
        self.nbr_positions = [
            [pos_of[w] for w in F.neighbors(v)] for v in order
        ]
        # twin pairs as (earlier position, later position)
        twins = []
        for u, v in combinations(range(k), 2):
            mu, mv = F.adj[u], F.adj[v]
            if mu >> v & 1:
                same = (mu ^ (1 << v)) == (mv ^ (1 << u))
            else:
                same = mu == mv
            if same:
                pu, pv = pos_of[u], pos_of[v]
                twins.append((min(pu, pv), max(pu, pv)))
        self._twins = twins
        self.twin_prev = self._twin_prev(())
        self._anchors = None
        m = F.num_edges
        self._parts = _star_or_k2t_parts(F, order[0]) if k >= 3 else None
        # not complete: K3 stays anchored, and a connected pattern has k >= 3
        if m < k * (k - 1) // 2 and max(F.degrees) <= 2 and _is_connected(F):
            self._shape = "cycle" if m == k else "path"
        elif self._parts:
            self._shape = "bipartite"
        else:
            self._shape = "anchored"

    def _twin_prev(self, anchored) -> list[int]:
        """Per position, its nearest earlier twin position outside anchored, or -1."""
        prev = [-1] * self.pattern.n
        for lo, hi in self._twins:
            if lo > prev[hi] and lo not in anchored and hi not in anchored:
                prev[hi] = lo
        return prev

    def exists_in(self, host: Graph) -> bool:
        """Is there a copy in host? Only host.n and host.adj are read."""
        k = self.pattern.n
        if k > host.n:
            return False
        return self._search(host.adj, host.n, [-1] * k, 0, 0, self.twin_prev)

    def exists_using_edge(self, adj: Sequence[int], n: int, a: int, b: int) -> bool:
        """Is there a copy whose image covers the edge (a, b) of the host
        plus that edge?

        adj holds the host's rows as bitmasks over its n vertices; degrees
        are read off the rows, with the edge (a, b) counted whether or not
        adj already holds it. So the incremental forbidden-subgraph check
        may ask about an edge before writing it. No kernel reads the bit of
        (a, b) itself: the walks and the anchored search place a and b
        first and never test the pair, and the K_{1,t} and K_{2,t} counts
        add it to the rows of a and b.
        """
        k = self.pattern.n
        shape = self._shape
        if shape == "cycle":
            return _walk_from(adj, b, k - 2, 1 << a | 1 << b, adj[a])
        if shape == "path":
            return _path_through(adj, a, b, k - 2, 1 << a | 1 << b)
        if shape == "bipartite":
            s, t = self._parts
            return _bipartite_through(adj, a, b, s, t)
        if self._anchors is None:
            self._anchors = self._edge_orbit_anchors()
        deg_a = (adj[a] | 1 << b).bit_count()
        deg_b = (adj[b] | 1 << a).bit_count()
        for ix, iy, twin_prev in self._anchors:
            if deg_a < self.deg[ix] or deg_b < self.deg[iy]:
                continue
            assigned = [-1] * k
            assigned[ix] = a
            assigned[iy] = b
            if self._search(adj, n, assigned, 1 << a | 1 << b, 0, twin_prev):
                return True
        return False

    def _edge_orbit_anchors(self) -> list:
        """One (ix, iy, twin_prev) per Aut(F)-orbit of oriented edges.

        ix, iy are the positions of the representative's ends; twin_prev is
        the twin order without the anchored positions. Oriented edges are
        visited by position pair, so each representative is the
        lexicographically least of its orbit. (u, v) joins the orbit of a
        representative when an anchored search of F in F sends that
        representative onto (u, v); an edge-preserving injection of F into
        itself is an automorphism.
        """
        F = self.pattern
        k = F.n

        def maps_onto(anchor, u, v):
            ix, iy, twin_prev = anchor
            assigned = [-1] * k
            assigned[ix] = u
            assigned[iy] = v
            return self._search(F.adj, k, assigned, 1 << u | 1 << v, 0, twin_prev)

        anchors = []
        for ix in range(k):
            for iy in sorted(self.nbr_positions[ix]):
                u, v = self.order[ix], self.order[iy]
                if any(maps_onto(rep, u, v) for rep in anchors):
                    continue
                anchors.append((ix, iy, self._twin_prev((ix, iy))))
        return anchors

    def _search(self, adj: Sequence[int], n: int, assigned: list[int], used: int,
                i: int, twin_prev: list[int]) -> bool:
        k = len(assigned)
        while i < k and assigned[i] >= 0:
            i += 1
        if i == k:
            return True
        cand = (1 << n) - 1
        for j in self.nbr_positions[i]:
            hj = assigned[j]
            if hj >= 0:
                cand &= adj[hj]
        j = twin_prev[i]
        if j >= 0:
            cand &= -1 << (assigned[j] + 1)
        cand &= ~used
        need = self.deg[i]
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            if adj[h].bit_count() < need:
                continue
            assigned[i] = h
            if self._search(adj, n, assigned, used | low, i + 1, twin_prev):
                assigned[i] = -1
                return True
            assigned[i] = -1
        return False


def _is_connected(G: Graph) -> bool:
    """Does a breadth-first sweep from vertex 0 reach every vertex?"""
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= G.adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << G.n) - 1


def _star_or_k2t_parts(F: Graph, u: int) -> tuple[int, int] | None:
    """(s, t) when F is K_{s,t} with s <= min(2, t), else None.

    u has maximum degree, so it has a neighbour when F has an edge. In
    K_{s,t}, N(u) is the side without u, and each vertex is joined to
    exactly the side without it.
    """
    side = F.adj[u]
    rest = ((1 << F.n) - 1) ^ side
    if not side or any(F.adj[v] != (rest if side >> v & 1 else side)
                       for v in range(F.n)):
        return None
    s, t = sorted((side.bit_count(), rest.bit_count()))
    return (s, t) if s <= 2 else None


def _bipartite_through(adj: Sequence[int], a: int, b: int, s: int, t: int) -> bool:
    """Is there a K_{s,t} (s <= 2) through the edge (a, b) of the host plus
    that edge?

    Whether adj already holds (a, b) does not matter: the rows of a and b
    are read with b and a added, and no other row has a bit of the edge.
    K_{1,t}: a or b is the centre, with t leaves. K_{2,t} with u on the
    2-side and v on the t-side: some x in N(v) other than u shares t
    neighbours with u, v among them; (u, v) is tried as (a, b) and as
    (b, a).
    """
    if s == 1:
        return ((adj[a] | 1 << b).bit_count() >= t
                or (adj[b] | 1 << a).bit_count() >= t)
    for u, v in ((a, b), (b, a)):
        nu = adj[u] | 1 << v
        if nu.bit_count() < t:
            continue
        cand = adj[v] & ~(1 << u)
        while cand:
            low = cand & -cand
            cand ^= low
            if (nu & adj[low.bit_length() - 1]).bit_count() >= t:
                return True
    return False


def _walk_from(adj: Sequence[int], v: int, left: int, used: int, target: int) -> bool:
    """Is there a simple path of left >= 1 more vertices from v, outside used,
    whose last vertex is in target? used must hold v."""
    cand = adj[v] & ~used
    if left == 1:
        return bool(cand & target)
    if left == 2:
        # the last step is one mask test per middle vertex, with no call;
        # a vertex is never its own neighbour, so it needs no exclusion
        last = target & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            if adj[low.bit_length() - 1] & last:
                return True
        return False
    while cand:
        low = cand & -cand
        cand ^= low
        if _walk_from(adj, low.bit_length() - 1, left - 1, used | low, target):
            return True
    return False


def _path_through(adj: Sequence[int], a: int, y: int, left: int, used: int) -> bool:
    """Can left more vertices outside used extend the path from a to y at both
    ends? b's side, ending in y, grows one vertex per call, and at each length
    a's side takes the rest, so every split is tried once."""
    if left == 0 or _walk_from(adj, a, left, used, -1):
        return True
    cand = adj[y] & ~used
    while cand:
        low = cand & -cand
        cand ^= low
        if _path_through(adj, a, low.bit_length() - 1, left - 1, used | low):
            return True
    return False


def contains_subgraph(G: Graph, F: Graph) -> bool:
    """True iff some injective map V(F) -> V(G) sends edges of F to edges of G."""
    if F.n > G.n:
        return False
    return SubgraphMatcher(F).exists_in(G)


def mask_has_clique(adj: Sequence[int], mask: int, size: int) -> bool:
    """Does the vertex set given by mask span a clique of the given size?"""
    if size <= 0:
        return True
    if size == 1:
        return mask != 0
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        # cliques through v using only later vertices keep enumeration canonical
        if mask.bit_count() + 1 >= size and mask_has_clique(adj, adj[v] & mask, size - 1):
            return True
        if mask.bit_count() < size:
            return False
    return False


def creates_clique(adj: Sequence[int], r: int, a: int, b: int) -> bool:
    """Would the host plus the edge (a, b) have a K_r through that edge?

    adj may or may not hold (a, b) already: the common neighbourhood of a
    and b excludes both, so the edge's own bits are never read. r comes
    before the edge as the host order does in
    SubgraphMatcher.exists_using_edge, so the labeled search calls either
    test the same way. K3 asks for a common neighbour of a and b, K4 for an
    edge inside their common neighbourhood: some vertex of it with a later
    neighbour in it. Larger cliques go to mask_has_clique.
    """
    common = adj[a] & adj[b]
    if r == 3:
        return common != 0
    if r == 4:
        while common:
            low = common & -common
            common ^= low
            if adj[low.bit_length() - 1] & common:
                return True
        return False
    if r <= 2:
        return True
    return mask_has_clique(adj, common, r - 2)


# ---------------------------------------------------------------------------
# chromatic number

# the most colour placements one chromatic_number call makes; G(50, 1/2)
# needs millions
CHROMATIC_MAX_PLACEMENTS = 100_000


def chromatic_number(F: Graph) -> int:
    """Least k admitting a proper k-coloring; exact backtracking from the
    size of a greedy clique, which bounds k below, run as a loop so that
    no order of F is too deep for it. Past
    CHROMATIC_MAX_PLACEMENTS colour placements, F is refused by a
    ScaleLimitError naming its order."""
    n = F.n
    if n == 0:
        raise ValueError("chromatic number of the empty-order graph is undefined")
    if F.num_edges == 0:
        return 1
    adj = F.adj
    order = sorted(range(n), key=lambda v: (-F.degrees[v], v))
    # in degree order, each vertex adjacent to all taken so far; an edge
    # makes it at least 2
    clique = 0
    for v in order:
        if adj[v] & clique == clique:
            clique |= 1 << v
    placements = 0

    def colorable(k: int) -> bool:
        nonlocal placements
        # the vertices of each colour, as a mask
        classes = [0] * k
        # colour[i]: the colour of order[i], -1 while unplaced; used[i]: the
        # colours order[:i] take, so order[i] tries at most one new colour
        colour = [-1] * n
        used = [0] * (n + 1)
        idx = 0
        while True:
            v = order[idx]
            c = colour[idx]
            if c >= 0:
                classes[c] ^= 1 << v
            nbrs = adj[v]
            limit = min(k, used[idx] + 1)
            c += 1
            while c < limit and nbrs & classes[c]:
                c += 1
            if c == limit:
                # no colour left for order[idx]: move the vertex before it on
                colour[idx] = -1
                if idx == 0:
                    return False
                idx -= 1
                continue
            placements += 1
            if placements > CHROMATIC_MAX_PLACEMENTS:
                raise ScaleLimitError(
                    f"chromatic number of a graph on {n} vertices needs more "
                    f"than {CHROMATIC_MAX_PLACEMENTS} colour placements")
            classes[c] |= 1 << v
            colour[idx] = c
            idx += 1
            if idx == n:
                return True
            used[idx] = max(used[idx - 1], c + 1)

    k = clique.bit_count()
    while not colorable(k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# graph6 serialization (printable interchange format, 63-offset bytes,
# upper triangle in column-major order)

_G6_MAX_SHORT = 62
_G6_MAX = 258047


def _g6_encode_n(n: int) -> str:
    if n <= _G6_MAX_SHORT:
        return chr(n + 63)
    if n <= _G6_MAX:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError(f"order {n} exceeds supported graph6 range")


def graph6_encode(G: Graph) -> str:
    header = _g6_encode_n(G.n)
    bits = []
    for j in range(1, G.n):
        col = G.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    chunks = []
    for i in range(0, len(bits), 6):
        group = bits[i:i + 6] + [0] * (6 - len(bits[i:i + 6]))
        val = 0
        for b in group:
            val = (val << 1) | b
        chunks.append(chr(val + 63))
    return header + "".join(chunks)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    if any(not (63 <= ord(c) <= 126) for c in s):
        raise ValueError("graph6 bytes must be in the printable range 63..126")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("graph6 orders above 258047 are not supported")
        if len(s) < 4:
            raise ValueError("truncated graph6 order field")
        n = 0
        for c in s[1:4]:
            n = (n << 6) | (ord(c) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 body for order {n} needs {expected} bytes, got {len(body)}"
        )
    bits = []
    for c in body:
        val = ord(c) - 63
        bits.extend((val >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return Graph._from_adj(n, adj)
