"""Finite fields, norm graphs, and the two-sided construction they support.

The field GF(p^t) is represented as polynomials of degree < t over GF(p)
modulo a fixed irreducible monic polynomial (the smallest one in a
deterministic order, so equal parameters give identical fields). The norm
down to GF(p) is a |-> a**((p^t-1)/(p-1)); it is multiplicative and maps
onto the base field.

The norm graph puts an edge between distinct field elements a, b whenever
norm(a + b) = 1. Its vertices all have degree K or K-1 with
K = (p^t-1)/(p-1), and small common neighborhoods make it free of complete
bipartite subgraphs far denser than its degree suggests. Gluing one copy
inside each side of a complete bipartite graph yields a graph whose two
weighted-degree sums defeat every bipartite graph of the same order under
staircase weights that double just above the side size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import ScaleLimitError
from .graphs import Graph, ObjectiveValue, e_f
from .weights import WeightFunction, tabulate

_FIELD_MAX_P = 100
_FIELD_MAX_T = 4
_NORM_GRAPH_MAX_SIZE = 4096
_KAB_MAX_SUBSETS = 5_000_000


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_divisible(poly: list[int], div: list[int], p: int) -> bool:
    """Does the monic divisor divide poly over GF(p)? Both high-degree-last."""
    rem = list(poly)
    d = len(div) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            for j in range(d + 1):
                rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
    return all(x == 0 for x in rem)


def _smallest_irreducible(p: int, t: int) -> tuple[int, ...]:
    """Non-leading coefficients of the first monic irreducible of degree t,
    ordering candidates by their coefficient vector read as a base-p integer
    (constant term least significant)."""
    if t == 1:
        return (0,)  # x itself
    for val in range(p ** t):
        coeffs = [(val // p ** i) % p for i in range(t)]
        poly = coeffs + [1]
        reducible = False
        for d in range(1, t // 2 + 1):
            for dv in range(p ** d):
                div = [(dv // p ** i) % p for i in range(d)] + [1]
                if _poly_divisible(poly, div, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(coeffs)
    raise ArithmeticError(f"no irreducible of degree {t} over GF({p})")


class FiniteField:
    """GF(p^t) with a deterministic irreducible modulus."""

    def __init__(self, p: int, t: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if t < 1:
            raise ValueError("extension degree must be >= 1")
        if p > _FIELD_MAX_P or t > _FIELD_MAX_T:
            raise ScaleLimitError(
                f"fields limited to p <= {_FIELD_MAX_P}, t <= {_FIELD_MAX_T} "
                "(the modulus is certified by exhaustive factor search)"
            )
        self.p = p
        self.t = t
        self.size = p ** t
        self.modulus = _smallest_irreducible(p, t)

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.t:
            raise ValueError(f"at most {self.t} coefficients expected")
        cs += [0] * (self.t - len(cs))
        return FieldElement(self, tuple(cs))

    def from_index(self, i: int) -> "FieldElement":
        """Element number i, coefficients as base-p digits, constant first."""
        if not 0 <= i < self.size:
            raise ValueError("index out of range")
        return FieldElement(
            self, tuple((i // self.p ** k) % self.p for k in range(self.t))
        )

    def index(self, a: "FieldElement") -> int:
        return sum(c * self.p ** k for k, c in enumerate(a.coeffs))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.t)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.t - 1))

    def elements(self):
        return (self.from_index(i) for i in range(self.size))

    @property
    def norm_exponent(self) -> int:
        return (self.size - 1) // (self.p - 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteField)
                and (self.p, self.t) == (other.p, other.t))

    def __hash__(self):
        return hash((self.p, self.t))

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, t={self.t})"


@dataclass(frozen=True)
class FieldElement:
    """Polynomial residue; arithmetic reduces modulo the field's modulus."""

    field: FiniteField
    coeffs: tuple[int, ...]

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(self.field,
                            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        fld = self.field
        p, t = fld.p, fld.t
        prod = [0] * (2 * t - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % p
        mod = fld.modulus
        for i in range(len(prod) - 1, t - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(t):
                    prod[i - t + j] = (prod[i - t + j] - c * mod[j]) % p
        return FieldElement(fld, tuple(prod[:t]))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            raise ValueError("negative powers not supported")
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement{self.coeffs}"


def norm(a: FieldElement) -> FieldElement:
    """Multiplicative norm down to the base field: a**((p^t-1)/(p-1))."""
    if a.is_zero:
        return a.field.zero
    return a ** a.field.norm_exponent


def norm_graph(q: int, t: int, *, max_size: int = _NORM_GRAPH_MAX_SIZE) -> Graph:
    """Graph on GF(q^t): a ~ b (a != b) iff norm(a + b) = 1.

    Would-be loops (norm(a + a) = 1) are dropped, so each degree is K or
    K - 1 with K = (q^t - 1)/(q - 1).
    """
    if t < 2:
        raise ValueError("need extension degree t >= 2")
    fld = FiniteField(q, t)
    if fld.size > max_size:
        raise ScaleLimitError(f"norm graph on {fld.size} vertices exceeds limit {max_size}")
    one = fld.one
    norm_one = [a for a in fld.elements() if norm(a) == one]
    edges = []
    for i in range(fld.size):
        a = fld.from_index(i)
        for u in norm_one:
            j = fld.index(u - a)
            if j > i:
                edges.append((i, j))
    return Graph(fld.size, edges)


def _kab_scan(adj: Sequence[int], n: int, a: int, b: int, firsts) -> bool:
    """Scan all a-subsets whose smallest member lies in firsts."""
    for v0 in firsts:
        base = adj[v0]
        for rest in combinations(range(v0 + 1, n), a - 1):
            common = base
            for v in rest:
                common &= adj[v]
            if common.bit_count() >= b:
                return False
    return True


def _kab_job(args) -> bool:
    G, a, b, firsts = args
    return _kab_scan(G.adj, G.n, a, b, firsts)


def kab_free_check(G: Graph, a: int, b: int, *, workers: int = 1,
                   max_subsets: int = _KAB_MAX_SUBSETS) -> bool:
    """True iff no a-set of vertices has b or more common neighbors.

    The subset scan splits by smallest member; any violation anywhere
    decides the answer, so the reduction over workers is order-free.
    """
    if a > b:
        raise ValueError("call with a <= b")
    if a < 1:
        raise ValueError("subset size must be positive")
    total = 1
    for i in range(a):
        total = total * (G.n - i) // (i + 1)
    if total > max_subsets:
        raise ScaleLimitError(
            f"{total} subsets to scan exceeds the limit {max_subsets}"
        )
    firsts = range(G.n - a + 1)
    if workers > 1 and G.n >= 2 * workers:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [list(firsts)[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return all(pool.map(_kab_job, [(G, a, b, ch) for ch in chunks]))
    return _kab_scan(G.adj, G.n, a, b, firsts)


class ConstructionRefused(ValueError):
    """The side graph failed the freeness gate required by the assembly."""


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the two-sided graph: side fields GF(q^t), forbidden
    blow-up class size s, and the weight the gap is measured against."""

    q: int
    t: int
    s: int
    f: WeightFunction

    @property
    def side_size(self) -> int:
        return self.q ** self.t


def counterexample_graph(spec: CounterexampleSpec) -> Graph:
    """Complete bipartite K_{N,N} with a norm graph glued inside each side.

    Refuses to build unless the side graph is K_{s,s}-free: that gate is
    what keeps the blown-up triangle with class size s + 2 out of the
    result (two classes would otherwise pile >= s deep on one side).
    """
    side = norm_graph(spec.q, spec.t)
    if not kab_free_check(side, spec.s, spec.s):
        raise ConstructionRefused(
            f"side graph on {side.n} vertices contains a K_{{{spec.s},{spec.s}}}; "
            f"the assembly gate requires K_{{{spec.s},{spec.s}}}-freeness"
        )
    N = side.n
    edges = list(side.edges())
    edges += [(N + u, N + v) for u, v in side.edges()]
    edges += [(u, N + v) for u in range(N) for v in range(N)]
    return Graph(2 * N, edges)


def bipartite_upper_bound(n_k: int, f: WeightFunction) -> ObjectiveValue:
    """n_k * f(2*n_k - 1) + n_k * f(n_k).

    In any bipartite graph on 2*n_k vertices, at least n_k vertices lie in
    a side of size <= n_k and therefore have degree <= n_k; the rest are
    capped by 2*n_k - 1. This bounds the weighted degree sum of every
    bipartite graph of that order for non-decreasing f.
    """
    (hi, lo), den = tabulate(f, (2 * n_k - 1, n_k))
    return ObjectiveValue.scaled(n_k * hi + n_k * lo, den)


@dataclass(frozen=True)
class GapReport:
    """Weighted value of the construction against the bipartite ceiling."""

    side_size: int
    construction_value: ObjectiveValue
    bipartite_bound: ObjectiveValue
    exceeds: bool


def gap_report(spec: CounterexampleSpec, G: Graph) -> GapReport:
    """Compare the weighted value of G = counterexample_graph(spec) with
    the bipartite bound.

    exceeds = True certifies that no bipartite graph of the same order
    reaches the construction's value under this weight.
    """
    if G.n != 2 * spec.side_size:
        raise ValueError(f"graph on {G.n} vertices is not the construction "
                         f"on 2 * {spec.side_size} vertices")
    value = e_f(G, spec.f)
    bound = bipartite_upper_bound(spec.side_size, spec.f)
    return GapReport(side_size=spec.side_size, construction_value=value,
                     bipartite_bound=bound, exceeds=value > bound)
