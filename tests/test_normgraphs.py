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
    StaircaseParams,
    bipartite_upper_bound,
    complete_bipartite,
    contains_subgraph,
    counterexample_graph,
    cycle_graph,
    e_f,
    gap_report,
    graph6_encode,
    join_contains_blowup,
    kab_free_check,
    norm,
    norm_graph,
    power,
    staircase,
    blowup_k3,
)
from oracles import all_graphs, join, naive_kab_free, naive_norm_graph

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

    def test_subset_budget(self):
        with pytest.raises(ScaleLimitError):
            kab_free_check(norm_graph(5, 2), 2, 3, max_subsets=10)

    def test_budget_counts_examined_sets(self):
        # on the 169-vertex norm graph nothing is cut at a = 2, b = 3: the
        # scan examines 168 single vertices and all C(169, 2) = 14196 pairs
        G = norm_graph(13, 2)
        assert kab_free_check(G, 2, 3, max_subsets=14364)
        with pytest.raises(ScaleLimitError):
            kab_free_check(G, 2, 3, max_subsets=14363)

    def test_k33_gate_on_343_vertices(self):
        # C(343, 3) > 5e6 sets exist, but the scan meets a K_{3,3} after
        # examining six
        G = norm_graph(7, 3)
        assert not kab_free_check(G, 3, 3)
        assert not kab_free_check(G, 3, 3, max_subsets=6)
        with pytest.raises(ScaleLimitError):
            kab_free_check(G, 3, 3, max_subsets=5)

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
                seen.update(H.relabel(p) for p in itertools.permutations(range(n)))
                self._agrees(H)

    def test_random_sides(self):
        rng = random.Random(7)
        for n in (6, 7):
            for _ in range(15):
                self._agrees(_random_graph(n, rng))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            join_contains_blowup(norm_graph(3, 2), 0)


def _toy_staircase():
    return staircase(StaircaseParams(0.5, (9,), 1))


class TestCounterexample:
    def test_assembly_shape(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        g = counterexample_graph(spec)
        assert g.n == 18
        assert g.num_edges == 81 + 2 * 16 == 113
        assert set(g.degrees) == {12, 13}

    def test_forbidden_blowup_absent(self):
        for s in (3, 4):
            spec = CounterexampleSpec(q=3, t=2, s=s, f=_toy_staircase())
            g = counterexample_graph(spec)
            side = g.induced_subgraph(range(spec.side_size))
            assert side == norm_graph(3, 2)
            assert not contains_subgraph(g, blowup_k3(s + 2))
            assert not join_contains_blowup(side, s + 2, kss_free=s)
            assert not join_contains_blowup(side, s + 2)

    def test_refuses_s_two(self):
        # the GF(9) norm graph contains a K_{2,2}, so the s=2 gate fails
        spec = CounterexampleSpec(q=3, t=2, s=2, f=_toy_staircase())
        with pytest.raises(ConstructionRefused):
            counterexample_graph(spec)

    def test_contains_smaller_blowups(self):
        # sanity: the construction is far from sparse; K3(2) does embed
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        g = counterexample_graph(spec)
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

    def test_bounds_actual_bipartite_graphs(self):
        # every bipartite graph on 2m vertices obeys the bound for
        # non-decreasing weights; spot-check complete bipartite splits
        from dwturan import complete_multipartite

        f = power(2)
        m = 6
        cap = bipartite_upper_bound(m, f)
        for a in range(0, 2 * m + 1):
            g = complete_multipartite([a, 2 * m - a])
            assert e_f(g, f) <= cap


class TestGapReport:
    def test_staircase_gap(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        rep = gap_report(spec, counterexample_graph(spec))
        assert rep.construction_value.exact == 36
        assert rep.bipartite_bound.exact == 27
        assert rep.exceeds

    def test_doubled_level_identity(self):
        # 36 is exactly 2 * side * f(climb end): all degrees sit past the climb
        f = _toy_staircase()
        assert Fraction(36) == 2 * 9 * f.exact(10)

    def test_linear_weight_shows_no_gap(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=power(1))
        rep = gap_report(spec, counterexample_graph(spec))
        assert rep.construction_value.exact == 226  # twice the edge count
        assert rep.bipartite_bound.exact == 234
        assert not rep.exceeds

    def test_gap_scales_to_gf25(self):
        # seed = side size 25; the climb ends at 27 and every degree
        # in the assembly is at least 30, so the doubled level applies
        f = staircase(StaircaseParams(0.5, (25,), 1))
        spec = CounterexampleSpec(q=5, t=2, s=3, f=f)
        rep = gap_report(spec, counterexample_graph(spec))
        assert rep.construction_value.exact == 100
        assert rep.bipartite_bound.exact == 75
        assert rep.exceeds

    def test_rejects_graph_of_another_order(self):
        spec = CounterexampleSpec(q=3, t=2, s=3, f=_toy_staircase())
        with pytest.raises(ValueError):
            gap_report(spec, norm_graph(3, 2))
