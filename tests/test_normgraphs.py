"""Field arithmetic, norm graphs, and the two-sided construction."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dwturan import (
    ConstructionRefused,
    CounterexampleSpec,
    FiniteField,
    Graph,
    ScaleLimitError,
    bipartite_upper_bound,
    complete_bipartite,
    complete_multipartite,
    contains_subgraph,
    counterexample_graph,
    cycle_graph,
    e_f,
    gap_report,
    graph6_encode,
    join_contains_blowup,
    kab_free_check,
    log_family,
    norm,
    norm_graph,
    parse_weight,
    power,
    staircase,
    blowup_k3,
)
from dwturan import normgraphs
from oracles import (
    all_graphs,
    induced_subgraph,
    join,
    naive_kab_free,
    naive_norm_graph,
    per_set_kab_scan,
    per_set_scan,
    relabel,
)

# the norm graphs and K_{a,b} checks of the benchmark's construct workload
CONSTRUCT_FIELDS = ((13, 2), (11, 2), (7, 2), (5, 2), (3, 2), (2, 3), (3, 3), (5, 3), (2, 4))


def _random_graph(n, rng):
    p = rng.uniform(0.2, 0.9)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestFieldArithmetic:
    def test_gf9_modulus(self):
        fld = FiniteField(3, 2)
        assert fld.modulus == (1, 0)  # x^2 + 1

    def test_gf9_x_squared(self):
        fld = FiniteField(3, 2)
        x = fld.from_index(3)  # coefficients (0, 1)
        assert x * x == fld.from_index(2)  # x^2 = -1 = 2

    def test_additive_identity(self):
        fld = FiniteField(5, 2)
        rng = random.Random(1)
        for _ in range(20):
            a = fld.from_index(rng.randrange(fld.size))
            assert a + fld.zero == a

    def test_multiplicative_group_order(self):
        for p, t in ((3, 2), (5, 2), (2, 3)):
            fld = FiniteField(p, t)
            for i in range(1, fld.size):
                a = fld.from_index(i)
                assert a ** (fld.size - 1) == fld.one

    def test_field_axioms_spot_check(self):
        fld = FiniteField(7, 2)
        rng = random.Random(2)
        for _ in range(50):
            a, b, c = (fld.from_index(rng.randrange(fld.size)) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_nonzero_inverses_exist(self):
        fld = FiniteField(3, 2)
        for i in range(1, fld.size):
            a = fld.from_index(i)
            assert a * a ** (fld.size - 2) == fld.one

    def test_mixed_fields_rejected(self):
        a = FiniteField(3, 2).one
        b = FiniteField(5, 2).one
        with pytest.raises(ValueError):
            _ = a + b

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            FiniteField(6, 2)

    def test_scale_limit(self):
        with pytest.raises(ScaleLimitError):
            FiniteField(101, 2)


class TestNorm:
    def test_norm_of_one_and_zero(self):
        fld = FiniteField(3, 2)
        assert norm(fld.one) == fld.one
        assert norm(fld.zero) == fld.zero

    def test_norm_lands_in_base_field(self):
        fld = FiniteField(5, 2)
        for a in fld.elements():
            assert all(c == 0 for c in norm(a).coeffs[1:])

    def test_norm_one_kernel_size(self):
        for p, t in ((3, 2), (5, 2), (3, 3)):
            fld = FiniteField(p, t)
            count = sum(1 for a in fld.elements() if norm(a) == fld.one)
            assert count == (fld.size - 1) // (p - 1)

    def test_norm_multiplicative(self):
        fld = FiniteField(5, 2)
        rng = random.Random(3)
        for _ in range(500):
            a = fld.from_index(rng.randrange(fld.size))
            b = fld.from_index(rng.randrange(fld.size))
            assert norm(a * b) == norm(a) * norm(b)


class TestNormGraph:
    def test_gf9_shape(self):
        g = norm_graph(3, 2)
        assert g.n == 9
        assert g.num_edges == 16
        assert sorted(g.degrees) == [3, 3, 3, 3, 4, 4, 4, 4, 4]

    def test_gf9_k23_free(self):
        assert kab_free_check(norm_graph(3, 2), 2, 3)

    def test_gf9_has_k22(self):
        assert not kab_free_check(norm_graph(3, 2), 2, 2)

    def test_gf25_shape(self):
        g = norm_graph(5, 2)
        assert g.n == 25
        assert set(g.degrees) == {5, 6}
        assert kab_free_check(g, 2, 3)

    def test_degree_law(self):
        for q, t in ((3, 2), (5, 2), (2, 3)):
            g = norm_graph(q, t)
            K = (q ** t - 1) // (q - 1)
            assert set(g.degrees) <= {K - 1, K}

    def test_rejects_t1(self):
        with pytest.raises(ValueError):
            norm_graph(5, 1)

    def test_scale_limit(self):
        with pytest.raises(ScaleLimitError):
            norm_graph(17, 3)  # 4913 vertices

    @pytest.mark.parametrize("q,t", [
        (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
        (7, 2), (7, 3), (11, 2), (13, 2), (17, 2),
    ])
    def test_matches_field_element_construction(self, q, t):
        # every field with q^t <= 343 that FiniteField accepts
        assert graph6_encode(norm_graph(q, t)) == graph6_encode(naive_norm_graph(q, t))


class TestKabFree:
    def test_k23_is_not_k23_free(self):
        assert not kab_free_check(complete_bipartite(2, 3), 2, 3)

    def test_c5_no_shared_pair(self):
        assert kab_free_check(cycle_graph(5), 2, 2)

    def test_subset_budget(self, monkeypatch):
        monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", 10)
        with pytest.raises(ScaleLimitError):
            kab_free_check(norm_graph(5, 2), 2, 3)

    def test_budget_counts_examined_sets(self, monkeypatch):
        # on the 169-vertex norm graph nothing is cut at a = 2, b = 3. With
        # no hint the scan examines 168 single vertices and all
        # C(169, 2) = 14196 pairs; from the 13 representatives r_k it
        # examines the sum over k of 1 + 169 - k = 2119 sets
        G = norm_graph(13, 2)
        plain = Graph._from_adj(G.n, G.adj)
        for H, used in ((plain, 14364), (G, 2119)):
            monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", used)
            assert kab_free_check(H, 2, 3)
            monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", used - 1)
            with pytest.raises(ScaleLimitError):
                kab_free_check(H, 2, 3)

    def test_k33_gate_on_343_vertices(self, monkeypatch):
        # C(343, 3) > 5e6 sets exist, but the scan meets a K_{3,3} after
        # examining six; vertex 0 is the first representative, so the
        # hinted scan examines the same six
        G = norm_graph(7, 3)
        for H in (Graph._from_adj(G.n, G.adj), G):
            assert not kab_free_check(H, 3, 3)
            monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", 6)
            assert not kab_free_check(H, 3, 3)
            monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", 5)
            with pytest.raises(ScaleLimitError):
                kab_free_check(H, 3, 3)
            monkeypatch.undo()

    PAIRS = [(a, b) for b in range(1, 5) for a in range(1, b + 1)]

    def test_matches_subset_scan_small_graphs(self):
        for n in range(6):
            for G in all_graphs(n):
                for a, b in self.PAIRS:
                    assert kab_free_check(G, a, b) == naive_kab_free(G, a, b), (G.adj, a, b)

    def test_matches_subset_scan_random_graphs(self):
        rng = random.Random(6)
        for n in range(6, 10):
            for _ in range(40):
                G = _random_graph(n, rng)
                for a, b in self.PAIRS:
                    assert kab_free_check(G, a, b) == naive_kab_free(G, a, b), (G.adj, a, b)

    @pytest.mark.parametrize("q,t", CONSTRUCT_FIELDS)
    def test_matches_subset_scan_norm_graphs(self, q, t):
        G = norm_graph(q, t)
        for a, b in ((t, t), (t, math.factorial(t) + 1)):
            assert kab_free_check(G, a, b) == naive_kab_free(G, a, b)


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, q))


# every field with t >= 2 and q^t <= 625 that FiniteField accepts
HINTED_FIELDS = [(q, t) for t in (2, 3, 4) for q in range(2, 26)
                 if _is_prime(q) and q ** t <= 625]


class TestOrbitReps:
    """norm_graph's hint: one vertex per orbit of x -> u*x, norm(u) = 1."""

    @pytest.mark.parametrize("q,t", HINTED_FIELDS)
    def test_one_representative_per_orbit(self, q, t):
        G = norm_graph(q, t)
        fld = FiniteField(q, t)
        K = (fld.size - 1) // (q - 1)
        units = [x for x in fld.elements() if norm(x) == fld.one]

        def order(x):
            k, y = 1, x
            while y != fld.one:
                k, y = k + 1, y * x
            return k

        h = next(x for x in units if order(x) == K)
        image = [fld.index(h * x) for x in fld.elements()]
        assert relabel(G, image) == G
        reps = G.orbit_reps
        assert list(reps) == sorted(set(reps)) and len(reps) == q
        seen = set()
        for v in range(G.n):
            orbit = {v}
            while image[v] not in orbit:
                v = image[v]
                orbit.add(v)
            if not orbit & seen:
                assert len(orbit & set(reps)) == 1, (q, t, orbit)
                seen |= orbit
        assert len(seen) == G.n

    def test_hint_ignored_by_equality_and_graph6(self):
        G = norm_graph(5, 2)
        plain = Graph._from_adj(G.n, G.adj)
        assert plain.orbit_reps is None and G.orbit_reps is not None
        assert G == plain and hash(G) == hash(plain)
        assert graph6_encode(G) == graph6_encode(plain)

    @pytest.mark.slow
    @pytest.mark.parametrize("q,t,a,b", [(7, 3, 3, 7), (5, 4, 4, 25)])
    def test_matches_plain_scan_past_the_budget(self, monkeypatch, q, t, a, b):
        # the plain scan needs more than the default budget on these sides
        G = norm_graph(q, t)
        plain = Graph._from_adj(G.n, G.adj)
        with pytest.raises(ScaleLimitError):
            kab_free_check(plain, a, b)
        hinted = kab_free_check(G, a, b)
        monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", 10 ** 9)
        assert hinted == kab_free_check(plain, a, b)


def _outcome(scan):
    """scan()'s answer, or the message of its refusal."""
    try:
        return scan()
    except ScaleLimitError as err:
        return str(err)


class TestKabBudget:
    """kab_free_check charges the last member's sets in one step; its answers
    and refusals equal those of a scan charging one set at a time, on each
    side of the budget a full scan needs and far from it: on norm graphs
    with their hint and on hint-free copies of them."""

    NORM = [norm_graph(q, t) for q, t in ((2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3))]
    GRAPHS = (NORM + [Graph._from_adj(G.n, G.adj) for G in NORM]
              + [_random_graph(n, random.Random(n)) for n in range(4, 13)])
    PAIRS = [(a, b) for b in range(1, 5) for a in range(1, b + 1)]

    def test_matches_per_set_charging(self, monkeypatch):
        cases = refusals = 0
        for G in self.GRAPHS:
            for a, b in self.PAIRS:
                _, used = per_set_kab_scan(G, a, b, 10 ** 9)
                budgets = {1, 2, 3, 5, 10, 30, 100, 1000, used - 1, used, used + 1, 10 ** 9}
                for budget in sorted(budgets - {0}):
                    expected = _outcome(lambda: per_set_kab_scan(G, a, b, budget)[0])
                    monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", budget)
                    got = _outcome(lambda: kab_free_check(G, a, b))
                    assert got == expected, (G.adj, a, b, budget)
                    cases += 1
                    refusals += isinstance(expected, str)
        assert refusals > cases // 10


def _sorted_parts(total):
    """Every sorted tuple of positive parts summing to 1..total."""
    def parts(left, least):
        yield ()
        for p in range(least, left + 1):
            for tail in parts(left - p, p):
                yield (p,) + tail
    return [x for x in parts(total, 1) if x]


def _one_per_class(n):
    seen = set()
    for H in all_graphs(n):
        if H not in seen:
            seen.update(relabel(H, p) for p in itertools.permutations(range(n)))
            yield H


class TestMultipartiteScan:
    """The common-neighbourhood scan behind both norm-graph checks, against
    the matcher, against itself without representatives, and against a
    scan charging its budget one set at a time."""

    PARTS = _sorted_parts(7)

    @classmethod
    def _agrees(cls, H):
        for x in cls.PARTS:
            expected = contains_subgraph(H, complete_multipartite(x))
            assert normgraphs._multipartite_scan(H, 10 ** 9, "")(x) == expected, (H.adj, x)

    def test_matches_matcher_small_graphs(self):
        assert len(self.PARTS) == 44
        for n in range(7):
            for H in _one_per_class(n):
                self._agrees(H)

    def test_matches_matcher_random_graphs(self):
        rng = random.Random(8)
        for n in (7, 8):
            for _ in range(15):
                self._agrees(_random_graph(n, rng))

    @pytest.mark.parametrize("q,t", [(3, 2), (5, 2), (7, 2), (2, 3), (3, 3)])
    def test_reps_change_no_answer(self, q, t):
        # every K(x) a K(m, m, m) check with m <= 6 asks, and the checks
        G = norm_graph(q, t)
        plain = Graph._from_adj(G.n, G.adj)
        limit = normgraphs._SCAN_MAX_SETS
        for x in itertools.combinations_with_replacement(range(7), 3):
            x = tuple(p for p in x if p)
            assert (normgraphs._multipartite_scan(G, limit, "")(x)
                    == normgraphs._multipartite_scan(plain, limit, "")(x)), (q, t, x)
        for m in range(1, 7):
            assert join_contains_blowup(G, m) == join_contains_blowup(plain, m), (q, t, m)

    def test_matches_per_set_charging_three_parts_or_more(self):
        cases = refusals = 0
        for G in TestKabBudget.GRAPHS:
            for x in (x for x in self.PARTS if len(x) >= 3):
                _, used = per_set_scan(G, x, 10 ** 9, "")
                budgets = {1, 2, 3, 5, 10, 30, 100, 1000, used - 1, used, used + 1, 10 ** 9}
                for budget in sorted(budgets - {0}):
                    refusal = f"over {budget}"
                    expected = _outcome(lambda: per_set_scan(G, x, budget, refusal)[0])
                    got = _outcome(lambda: normgraphs._multipartite_scan(G, budget, refusal)(x))
                    assert got == expected, (G.adj, x, budget)
                    cases += 1
                    refusals += isinstance(expected, str)
        assert refusals > cases // 10


class TestJoinBlowup:
    """The decomposed check against a direct search of the join H + H."""

    @staticmethod
    def _agrees(H):
        G = join(H, H)
        for m in range(1, 5):
            expected = contains_subgraph(G, blowup_k3(m))
            assert join_contains_blowup(H, m) == expected, (H.adj, m)
            for s in range(1, 4):
                if kab_free_check(H, s, s):
                    assert join_contains_blowup(H, m, kss_free=s) == expected, (H.adj, m, s)

    def test_small_sides(self):
        # one side per isomorphism class: both answers are invariant under relabeling
        for n in range(6):
            seen = set()
            for H in all_graphs(n):
                if H in seen:
                    continue
                seen.update(relabel(H, p) for p in itertools.permutations(range(n)))
                self._agrees(H)

    def test_random_sides(self):
        rng = random.Random(7)
        for n in (6, 7):
            for _ in range(15):
                self._agrees(_random_graph(n, rng))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            join_contains_blowup(norm_graph(3, 2), 0)

    def test_sets_budget(self, monkeypatch):
        # the K(x) questions of the K(5,5,5) check on the GF(25) side examine
        # 211 sets in all, on one budget counted set by set
        side = norm_graph(5, 2)
        monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", 211)
        assert not join_contains_blowup(side, 5, kss_free=3)
        monkeypatch.setattr(normgraphs, "_SCAN_MAX_SETS", 210)
        with pytest.raises(ScaleLimitError) as err:
            join_contains_blowup(side, 5, kss_free=3)
        assert str(err.value) == ("K(5,5,5) check examined more than 210 sets "
                                  "of the 25-vertex side")


def _toy_staircase():
    return staircase(0.5, (9,), 1)


class TestCounterexample:
    def test_assembly_shape(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        g, _ = counterexample_graph(spec)
        assert g.n == 18
        assert g.num_edges == 81 + 2 * 16 == 113
        assert set(g.degrees) == {12, 13}

    def test_forbidden_blowup_absent(self):
        for s in (3, 4):
            spec = CounterexampleSpec(q=3, t=2, s=s, f=_toy_staircase())
            g, side = counterexample_graph(spec)
            assert side == induced_subgraph(g, range(spec.side_size)) == norm_graph(3, 2)
            assert side.orbit_reps == norm_graph(3, 2).orbit_reps
            assert not contains_subgraph(g, blowup_k3(s + 2))
            assert not join_contains_blowup(side, s + 2, kss_free=s)
            assert not join_contains_blowup(side, s + 2)

    @pytest.mark.parametrize("q,s", [(3, 3), (13, 4)])
    def test_assembly_is_the_join(self, q, s):
        spec = CounterexampleSpec(q=q, t=2, s=s, f=_toy_staircase())
        side = norm_graph(q, 2)
        assert counterexample_graph(spec) == (join(side, side), side)

    def test_refuses_s_two(self):
        # the GF(9) norm graph contains a K_{2,2}, so the s=2 gate fails
        spec = CounterexampleSpec(q=3, t=2, s=2, f=_toy_staircase())
        with pytest.raises(ConstructionRefused):
            counterexample_graph(spec)

    def test_contains_smaller_blowups(self):
        # sanity: the construction is far from sparse; K3(2) does embed
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        g, _ = counterexample_graph(spec)
        assert contains_subgraph(g, blowup_k3(2))


class TestBipartiteBound:
    def test_staircase_values(self):
        f = _toy_staircase()
        v = bipartite_upper_bound(9, f)
        assert v.exact == 9 * 2 + 9 * 1 == 27

    def test_constant(self):
        from dwturan import StepWeight

        assert bipartite_upper_bound(11, StepWeight([0], [1])).exact == 22

    def test_linear(self):
        assert bipartite_upper_bound(9, power(1)).exact == 9 * 17 + 9 * 9 == 234

    @pytest.mark.parametrize("weight", ["log:floor=0", "pow:mu=0.5", "pow:mu=1.5",
                                        "pow:mu=2.7"])
    def test_float_is_the_rounded_sum_of_its_multiset(self, weight):
        f = parse_weight(weight)
        for n_k in range(1, 225):
            multiset = [f(2 * n_k - 1)] * n_k + [f(n_k)] * n_k
            assert bipartite_upper_bound(n_k, f).approx == math.fsum(multiset), n_k

    def test_negative_side_refused(self):
        with pytest.raises(ValueError):
            bipartite_upper_bound(-2, power(2))

    def test_empty_side_refused_before_evaluating_f(self):
        # n_k = 0 would ask for f(-1), outside the domain of every weight
        with pytest.raises(ValueError, match="degree -1"):
            bipartite_upper_bound(0, log_family())

    def test_bounds_actual_bipartite_graphs(self):
        # every bipartite graph on 2m vertices obeys the bound for
        # non-decreasing weights; spot-check complete bipartite splits
        f = power(2)
        m = 6
        cap = bipartite_upper_bound(m, f)
        for a in range(0, 2 * m + 1):
            g = complete_multipartite([a, 2 * m - a])
            assert e_f(g, f) <= cap


class TestGapReport:
    def test_staircase_gap(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        rep = gap_report(spec, counterexample_graph(spec)[0])
        assert rep.construction_value.exact == 36
        assert rep.bipartite_bound.exact == 27
        assert rep.exceeds

    def test_doubled_level_identity(self):
        # 36 is exactly 2 * side * f(climb end): all degrees sit past the climb
        f = _toy_staircase()
        assert Fraction(36) == 2 * 9 * f.value(10)

    def test_linear_weight_shows_no_gap(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=power(1))
        rep = gap_report(spec, counterexample_graph(spec)[0])
        assert rep.construction_value.exact == 226  # twice the edge count
        assert rep.bipartite_bound.exact == 234
        assert not rep.exceeds

    def test_gap_scales_to_gf25(self):
        # seed = side size 25; the climb ends at 27 and every degree
        # in the assembly is at least 30, so the doubled level applies
        f = staircase(0.5, (25,), 1)
        spec = CounterexampleSpec(q=5, t=2, s=3, f=f)
        rep = gap_report(spec, counterexample_graph(spec)[0])
        assert rep.construction_value.exact == 100
        assert rep.bipartite_bound.exact == 75
        assert rep.exceeds

    def test_rejects_graph_of_another_order(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        with pytest.raises(ValueError):
            gap_report(spec, norm_graph(3, 2))
