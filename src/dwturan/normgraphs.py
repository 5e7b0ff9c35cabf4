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
have s; those x are ruled out without a search. The gate's K_{s,s} and
the K(x) are asked of one common-neighborhood scan, ``_multipartite_scan``,
which takes its first vertex from the side's orbit representatives.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvariantViolation, Record, ScaleLimitError
from .graphs import Graph, _bits, e_f
from .weights import ObjectiveValue, WeightFunction, degree_sum

_FIELD_MAX_P = 100
_FIELD_MAX_T = 4
_NORM_GRAPH_MAX_SIZE = 4096
_SCAN_MAX_SETS = 5_000_000


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


def _orbit_reps(fld: FiniteField, norm_one: list[FieldElement]) -> tuple[int, ...]:
    """One index per orbit of x -> u*x, norm(u) = 1, on GF(p^t), ascending.

    The orbits are {0} and the p - 1 cosets of the norm-one subgroup, so
    the representatives are 0 and a^j for j < p - 1, where a is the first
    element none of whose powers a^j with 0 < j < p - 1 lies in the
    subgroup: then no two of the a^j share a coset. A primitive a is one.
    """
    in_subgroup = {fld.index(u) for u in norm_one}
    for i in range(1, fld.size):
        a = fld.from_index(i)
        reps = [0, 1]
        x = fld.one
        for _ in range(fld.p - 2):
            x = x * a
            if fld.index(x) in in_subgroup:
                break
            reps.append(fld.index(x))
        else:
            return tuple(sorted(reps))
    raise InvariantViolation(f"no coset representatives of the norm-one subgroup in {fld}")


def norm_graph(q: int, t: int) -> Graph:
    """Graph on GF(q^t): a ~ b (a != b) iff norm(a + b) = 1.

    Would-be loops (norm(a + a) = 1) are dropped, so each degree is K or
    K - 1 with K = (q^t - 1)/(q - 1). Vertex i is ``from_index(i)``.

    x -> u*x with norm(u) = 1 is an automorphism, since norm(ux + uy) =
    norm(u) * norm(x + y), and it keeps every loop dropped. Its q orbits
    are {0} and the cosets of the norm-one subgroup; ``orbit_reps`` holds
    one vertex of each (see ``_orbit_reps``).
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
    # carries, and reduce_code maps the sum back to the index of u - a. The
    # table is built one digit at a time, most significant first.
    wide = 2 * q - 1

    def code(i: int, sign: int) -> int:
        return sum(sign * (i // q ** k) % q * wide ** k for k in range(t))

    reduce_code = [0]
    for _ in range(t):
        reduce_code = [x * q + d % q for x in reduce_code for d in range(wide)]
    units = _norm_one_subgroup(fld)
    norm_one = [code(fld.index(u), 1) for u in units]
    adj = []
    for i in range(fld.size):
        neg_a = code(i, -1)
        row = 0
        for u in norm_one:
            row |= 1 << reduce_code[u + neg_a]
        adj.append(row & ~(1 << i))
    return Graph._from_adj(fld.size, adj, _orbit_reps(fld, units))


def _multipartite_scan(G: Graph, max_sets: int, refusal: str):
    """contains(parts): is K(p_1, ..., p_k) in G, for 0 < p_1 <= ... <= p_k?

    The scan picks a p_1-set, carries its common neighborhood C and looks
    for K(p_2, ..., p_k) in C the same way, until the last part only needs
    C to hold p_k vertices: the Kovari-Sos-Turan count, one part at a time.
    A branch ends once C holds fewer vertices than the parts still to
    place. The first member of the p_1-set runs over ``G.orbit_reps``
    (None: every vertex), ascending, and its other members, ascending, over
    the vertices that are no representative <= the first. That is sound:
    an automorphism maps any copy of K(p) onto one whose p_1-set holds a
    representative, and from the least representative r in that set, which
    holds no smaller one, the scan meets it. Later parts run over C.

    Every call of contains draws on one budget of max_sets examined sets,
    of every size in every part; past it the scan raises ScaleLimitError
    with refusal. The order is fixed, so the same questions always answer
    or always stop at the same set. The last member of the last part but
    one is a plain loop, and the sets it examined, to its first hit or all
    of them, are charged in one step, which refuses exactly when charging
    set by set would.
    """
    adj = G.adj
    reps = range(G.n) if G.orbit_reps is None else G.orbit_reps
    left = max_sets

    def extend(common: int, rows: tuple[int, ...], start: int, need: int,
               rest: tuple[int, ...]) -> bool:
        # need >= 1 members of this part still to add, from the vertices of
        # rows[start:]; then K(rest) inside their common neighborhood
        nonlocal left
        end = len(rows)
        if need == 1 and len(rest) == 1:
            b = rest[0]
            hit = False
            for i in range(start, end):
                if (common & rows[i]).bit_count() >= b:
                    hit = True
                    break
            left -= i + 1 - start if hit else end - start
            if left < 0:
                raise ScaleLimitError(refusal)
            return hit
        total = sum(rest)
        for i in range(start, end - need + 1):
            left -= 1
            if left < 0:
                raise ScaleLimitError(refusal)
            shared = common & rows[i]
            if shared.bit_count() >= total and (
                    extend(shared, rows, i + 1, need - 1, rest) if need > 1
                    else within(shared, rest)):
                return True
        return False

    def within(allowed: int, parts: tuple[int, ...]) -> bool:
        # K(parts) on the vertices of allowed, which number sum(parts) or more
        return len(parts) == 1 or extend(allowed, tuple(adj[v] for v in _bits(allowed)),
                                         0, parts[0], parts[1:])

    def contains(parts: tuple[int, ...]) -> bool:
        nonlocal left
        if len(parts) < 2:
            return G.n >= sum(parts)
        first, rest = parts[0], parts[1:]
        total = sum(rest)
        below = ()  # rows of the vertices below r that are no representative
        after = 0  # the vertex after the previous representative
        for r in reps:
            below += adj[after:r]
            after = r + 1
            rows = below + adj[after:]
            if len(rows) < first - 1:
                break
            left -= 1
            if left < 0:
                raise ScaleLimitError(refusal)
            if adj[r].bit_count() >= total and (
                    extend(adj[r], rows, 0, first - 1, rest) if first > 1
                    else within(adj[r], rest)):
                return True
        return False

    return contains


def kab_free_check(G: Graph, a: int, b: int) -> bool:
    """True iff no a-set of vertices has b or more common neighbors: no
    K(a, b), asked of ``_multipartite_scan`` on a budget of _SCAN_MAX_SETS
    examined sets. With nothing cut at a = 2 it examines C(n, 2) + n - 1
    sets when G has no representatives, and the sum over k of 1 + n - k
    from representatives r_1 < r_2 < ....
    """
    if a > b:
        raise ValueError("call with a <= b")
    if a < 1:
        raise ValueError("subset size must be positive")
    refusal = f"K_{{{a},{b}}} scan examined more than {_SCAN_MAX_SETS} sets"
    return not _multipartite_scan(G, _SCAN_MAX_SETS, refusal)((a, b))


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


def counterexample_graph(spec: CounterexampleSpec) -> tuple[Graph, Graph]:
    """Complete bipartite K_{N,N} with a norm graph glued inside each side;
    returns that graph and the side graph, orbit representatives kept.

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
    return Graph._from_adj(2 * N, adj), side


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

    The K(x) questions go to one ``_multipartite_scan`` of side, so they
    share its budget of _SCAN_MAX_SETS examined sets, and its first
    members come from ``side.orbit_reps``; the questions run in a fixed
    order, so the same input always answers or always stops at the same
    set.
    """
    if m < 1:
        raise ValueError("class size must be positive")
    limit = _SCAN_MAX_SETS
    scan = _multipartite_scan(side, limit, f"K({m},{m},{m}) check examined more than "
                                           f"{limit} sets of the {side.n}-vertex side")
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
            ) and scan(tuple(p for p in x if p))
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
