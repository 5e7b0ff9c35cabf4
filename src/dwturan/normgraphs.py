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

That graph G is the join of two copies of the side graph H, so it never
needs a search of its own for the blown-up triangle K(m, m, m). A copy of
K(m, m, m) meets the two sides in K(x) and K(m - x) for some x in [0, m]^3,
and any such pair of copies combines into one, because the join supplies
every edge between the sides. The search is therefore for small patterns
K(x) in H. The assembly gate makes H K_{s,s}-free, and K(x) contains
K_{s,s} as soon as one part has s vertices and the other two together
have s; those x are ruled out without a search.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvariantViolation, Record, ScaleLimitError
from .graphs import (
    Graph,
    SubgraphMatcher,
    complete_multipartite,
    e_f,
)
from .weights import ObjectiveValue, WeightFunction, degree_sum

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


class FieldElement(Record):
    """Polynomial residue; arithmetic reduces modulo the field's modulus."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

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

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldElement:
            return NotImplemented
        return self.coeffs == other.coeffs and self.field == other.field

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"FieldElement{self.coeffs}"


def norm(a: FieldElement) -> FieldElement:
    """Multiplicative norm down to the base field: a**((p^t-1)/(p-1))."""
    if a.is_zero:
        return a.field.zero
    return a ** a.field.norm_exponent


def _norm_one_subgroup(fld: FiniteField) -> list[FieldElement]:
    """The elements of norm 1, as the powers of one generator.

    They form the subgroup of order K = (p^t - 1)/(p - 1) of the cyclic
    group GF(p^t)*, which is the image of x -> x^(p - 1). So h = a^(p - 1)
    generates it for a primitive a, and the cycle of h has length K; a
    shorter cycle means a was not primitive and the next a is tried. The
    first p indices are the base field, where a^(p - 1) = 1.
    """
    one = fld.one
    for i in range(fld.p, fld.size):
        h = fld.from_index(i) ** (fld.p - 1)
        subgroup = [one]
        x = h
        while x != one:
            subgroup.append(x)
            x = x * h
        if len(subgroup) == fld.norm_exponent:
            return subgroup
    raise InvariantViolation(f"no generator of the norm-one subgroup in {fld}")


def norm_graph(q: int, t: int) -> Graph:
    """Graph on GF(q^t): a ~ b (a != b) iff norm(a + b) = 1.

    Would-be loops (norm(a + a) = 1) are dropped, so each degree is K or
    K - 1 with K = (q^t - 1)/(q - 1). Vertex i is ``from_index(i)``.
    """
    if t < 2:
        raise ValueError("need extension degree t >= 2")
    fld = FiniteField(q, t)
    if fld.size > _NORM_GRAPH_MAX_SIZE:
        raise ScaleLimitError(
            f"norm graph on {fld.size} vertices exceeds limit {_NORM_GRAPH_MAX_SIZE}"
        )
    # b ~ a iff b = u - a for some u of norm 1. Addition is digit-wise mod q,
    # so elements are coded with base-(2q - 1) digits: adding two codes never
    # carries, and reduce_code maps the sum back to the index of u - a.
    wide = 2 * q - 1

    def code(i: int, sign: int) -> int:
        return sum(sign * (i // q ** k) % q * wide ** k for k in range(t))

    reduce_code = [sum((c // wide ** k) % wide % q * q ** k for k in range(t))
                   for c in range(wide ** t)]
    norm_one = [code(fld.index(u), 1) for u in _norm_one_subgroup(fld)]
    adj = []
    for i in range(fld.size):
        neg_a = code(i, -1)
        row = 0
        for u in norm_one:
            row |= 1 << reduce_code[u + neg_a]
        adj.append(row & ~(1 << i))
    return Graph._from_adj(fld.size, adj)


def kab_free_check(G: Graph, a: int, b: int, *,
                   max_subsets: int = _KAB_MAX_SUBSETS) -> bool:
    """True iff no a-set of vertices has b or more common neighbors.

    The scan grows an a-set in increasing vertex order and carries the
    common neighborhood of its members; a branch ends as soon as that
    neighborhood has fewer than b vertices, since adding members only
    shrinks it. The budget counts the sets the scan examines, of every
    size from 1 to a, and the scan raises ScaleLimitError as soon as it
    has examined more than max_subsets; the order is fixed, so the same
    input always answers or always stops at the same set. Sets smaller
    than a count too, so a scan that cuts nothing examines somewhat more
    than C(n, a) sets: at a = 2, C(n, 2) + n - 1. The last member is
    found by a plain loop, and the sets it examined, up to its first hit or
    all of them, are charged in one step; a scan that would go over budget
    there is refused as if charged set by set.
    """
    if a > b:
        raise ValueError("call with a <= b")
    if a < 1:
        raise ValueError("subset size must be positive")
    adj = G.adj
    n = G.n
    left = max_subsets
    refusal = f"K_{{{a},{b}}} scan examined more than {max_subsets} sets"

    def extend(common: int, start: int, need: int) -> bool:
        # need >= 1 members still to add, from vertices start..n-1
        nonlocal left
        if need == 1:
            hit = False
            for v in range(start, n):
                if (common & adj[v]).bit_count() >= b:
                    hit = True
                    break
            left -= v + 1 - start if hit else n - start
            if left < 0:
                raise ScaleLimitError(refusal)
            return hit
        for v in range(start, n - need + 1):
            left -= 1
            if left < 0:
                raise ScaleLimitError(refusal)
            shared = common & adj[v]
            if shared.bit_count() >= b and extend(shared, v + 1, need - 1):
                return True
        return False

    return not extend((1 << n) - 1, 0, a)


class ConstructionRefused(ValueError):
    """The side graph failed the freeness gate required by the assembly."""


class CounterexampleSpec(Record):
    """Parameters of the two-sided graph: side fields GF(q^t), forbidden
    blow-up class size s, and the weight the gap is measured against."""

    __slots__ = ("q", "t", "s", "f")
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
    full = (1 << N) - 1
    # row u: its side neighbors and all of the other copy; row N + u alike
    adj = [row | full << N for row in side.adj] + [row << N | full for row in side.adj]
    return Graph._from_adj(2 * N, adj)


def join_contains_blowup(side: Graph, m: int, *,
                         kss_free: Optional[int] = None) -> bool:
    """Does the join of two copies of side contain K(m, m, m)?

    Such a copy meets the first copy of side in some K(x), x in [0, m]^3,
    and the second in K(m - x); conversely, the join adds every edge
    between the copies, so any such pair of copies makes a K(m, m, m). Each
    sorted x is asked of side once. With kss_free = s the caller asserts
    that side is K_{s,s}-free, and every x with a part of size >= s while
    the other two sum to >= s is ruled out without a search: K(x) contains
    K_{s,s}, with that part as one side and the other two as the other.
    An x is also ruled out when K(x) contains a K(y) already found absent.
    """
    if m < 1:
        raise ValueError("class size must be positive")
    known: dict[tuple[int, ...], bool] = {}

    def contains(x: tuple[int, ...]) -> bool:
        x = tuple(sorted(x))
        if kss_free is not None and x[2] >= kss_free and x[0] + x[1] >= kss_free:
            return False
        if x not in known:
            # K(x) contains K(y) when sorted y is at most x part by part
            known[x] = not any(
                not hit and all(a <= b for a, b in zip(y, x))
                for y, hit in known.items()
            ) and SubgraphMatcher(complete_multipartite(x)).exists_in(side)
        return known[x]

    for x0 in range(m + 1):
        for x1 in range(x0, m + 1):
            for x2 in range(x1, m + 1):
                if contains((x0, x1, x2)) and contains((m - x0, m - x1, m - x2)):
                    return True
    return False


def bipartite_upper_bound(n_k: int, f: WeightFunction) -> ObjectiveValue:
    """n_k * f(2*n_k - 1) + n_k * f(n_k).

    In any bipartite graph on 2*n_k vertices, at least n_k vertices lie in
    a side of size <= n_k and therefore have degree <= n_k; the rest are
    capped by 2*n_k - 1. This bounds the weighted degree sum of every
    bipartite graph of that order for non-decreasing f. n_k must be at
    least 1, as n_k = 0 would ask for f(-1).
    """
    return degree_sum(f, [(2 * n_k - 1, n_k), (n_k, n_k)])


class GapReport(Record):
    """Weighted value of the construction against the bipartite ceiling."""

    __slots__ = ("side_size", "construction_value", "bipartite_bound", "exceeds")
    side_size: int
    construction_value: ObjectiveValue
    bipartite_bound: ObjectiveValue
    exceeds: bool


def gap_report(spec: CounterexampleSpec, G: Graph) -> GapReport:
    """Compare the weighted value of G = counterexample_graph(spec) with
    the bipartite bound.

    exceeds = True certifies that no bipartite graph of the same order
    reaches the construction's value under this weight. Both sides are
    exact totals, correctly rounded in float mode; rounding is monotone, so
    a float value above the bound is above it exactly too.
    """
    if G.n != 2 * spec.side_size:
        raise ValueError(f"graph on {G.n} vertices is not the construction "
                         f"on 2 * {spec.side_size} vertices")
    value = e_f(G, spec.f)
    bound = bipartite_upper_bound(spec.side_size, spec.f)
    return GapReport(side_size=spec.side_size, construction_value=value,
                     bipartite_bound=bound, exceeds=value > bound)
