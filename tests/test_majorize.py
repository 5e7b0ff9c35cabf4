"""Degree majorizer: worked examples, random suites, negative controls."""

import random

import pytest

from dwturan import (
    Graph,
    MajorizerResult,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    e_f,
    erdos_majorizer,
    graph6_encode,
    log_family,
    parse_weight,
    power,
    random_kr_free_graph,
    theorem1_chain,
    verify_majorization,
)
from dwturan import majorize
from dwturan.graphs import mask_has_clique
from oracles import empty_graph, naive_contains, turan_graph


class TestConstruction:
    def test_c5(self):
        res = erdos_majorizer(cycle_graph(5), 3)
        assert sorted(len(c) for c in res.classes) == [2, 3]
        assert sorted(res.graph.degrees) == [2, 2, 2, 3, 3]
        assert verify_majorization(cycle_graph(5), res)

    def test_k23_recovers_bipartition(self):
        g = complete_bipartite(2, 3)
        res = erdos_majorizer(g, 3)
        assert set(res.classes) == {(0, 1), (2, 3, 4)}
        assert res.graph == g

    def test_empty_graph(self):
        for r in (2, 3, 5):
            res = erdos_majorizer(empty_graph(6), r)
            nonempty = [c for c in res.classes if c]
            assert len(res.classes) == r - 1
            assert len(nonempty) == 1
            assert res.graph.num_edges == 0
            assert verify_majorization(empty_graph(6), res)

    def test_rejects_clique(self):
        with pytest.raises(ValueError):
            erdos_majorizer(complete_graph(3), 3)

    def test_rejects_edges_at_r2(self):
        with pytest.raises(ValueError):
            erdos_majorizer(Graph(3, [(0, 1)]), 2)

    def test_class_count_bound(self):
        rng = random.Random(3)
        for r in (3, 4, 5):
            g = random_kr_free_graph(15, r, 0.4, rng)
            res = erdos_majorizer(g, r)
            assert len(res.classes) == r - 1
            assert sum(1 for c in res.classes if c) <= r - 1

    def test_first_class_degree_argument(self):
        # every vertex of the first class gets H-degree equal to the max
        # G-degree; the recursed side gains the whole first class
        rng = random.Random(11)
        g = random_kr_free_graph(20, 3, 0.3, rng)
        res = erdos_majorizer(g, 3)
        first = res.classes[0]
        max_deg = max(g.degrees)
        for v in first:
            assert res.graph.degrees[v] == g.n - len(first)
            assert g.n - len(first) == max_deg >= g.degrees[v]


class TestFrozenClasses:
    """Classes on seeded graphs, recorded before the construction moved to
    vertex masks: the maximum-degree tie-break (smallest label) and the
    class order must not drift. The graphs are pinned by their graph6, as
    recorded when random_kr_free_graph wrote each edge before asking
    creates_clique; asking first must keep every rng draw and so the graph."""

    GRAPH6 = {1: "IAO?_CC??", 2: "K?XBwDSUEOYb", 3: r"Mqd\L^Y}nqu?~jUj?",
              4: "H[_xqqE", 5: "O??PA?o_G@?A@?c?O?gEO"}

    @pytest.mark.parametrize("seed,n,r,p,classes", [
        (1, 10, 3, 0.3, ((0, 1, 2, 5, 6, 7, 8, 9), (3, 4))),
        (2, 12, 4, 0.5, ((0, 1, 2, 3, 7), (4, 5, 8, 11), (6, 9, 10))),
        (3, 14, 5, 0.6, ((0, 3, 5, 13), (7, 9, 12), (1, 2, 4, 8), (6, 10, 11))),
        (4, 9, 3, 0.8, ((0, 1, 5, 6, 7), (2, 3, 4, 8))),
        (5, 16, 4, 0.2, ((0, 1, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15), (2, 3, 9, 10), ())),
    ])
    def test_seeded(self, seed, n, r, p, classes):
        g = random_kr_free_graph(n, r, p, random.Random(seed))
        assert graph6_encode(g) == self.GRAPH6[seed]
        res = erdos_majorizer(g, r)
        assert res.classes == classes
        assert verify_majorization(g, res)


class TestVerification:
    def test_rejects_non_dominating(self):
        claim = MajorizerResult(classes=((0, 1, 2),), graph=empty_graph(3))
        assert not verify_majorization(complete_graph(3), claim)

    def test_rejects_shuffled_classes(self):
        g = cycle_graph(5)
        good = erdos_majorizer(g, 3)
        # move vertex 0 into the other class without rebuilding the graph
        a, b = good.classes
        bad = MajorizerResult(classes=(tuple(x for x in a if x != 0),
                                       tuple(sorted(b + (0,)))),
                              graph=good.graph)
        assert not verify_majorization(g, bad)

    def test_rejects_vertex_set_mismatch(self):
        res = erdos_majorizer(cycle_graph(5), 3)
        with pytest.raises(ValueError):
            verify_majorization(cycle_graph(6), res)

    def test_rejects_incomplete_partition(self):
        claim = MajorizerResult(classes=((0, 1),), graph=empty_graph(3))
        assert not verify_majorization(empty_graph(3), claim)


class TestRandomSuite:
    @pytest.mark.parametrize("r", [3, 4])
    def test_random_graphs_majorize(self, r):
        rng = random.Random(1000 + r)
        for i in range(200):
            n = rng.randrange(1, 41)
            p = (i % 10 + 1) / 20
            g = random_kr_free_graph(n, r, p, rng)
            res = erdos_majorizer(g, r)
            assert verify_majorization(g, res), (r, n, p, g.edges())

    def test_weight_composition(self):
        rng = random.Random(77)
        f = power(2)
        for _ in range(50):
            g = random_kr_free_graph(rng.randrange(1, 30), 3, 0.35, rng)
            res = erdos_majorizer(g, 3)
            assert e_f(g, f) <= e_f(res.graph, f)


class TestChain:
    def test_c5_square(self):
        rep = theorem1_chain(cycle_graph(5), 3, power(2))
        assert rep.value_graph.exact == 20
        assert rep.value_majorized.exact == 30
        assert rep.value_optimum.exact == 30
        assert rep.holds_first and rep.holds_second

    def test_balanced_split_is_tight(self):
        rep = theorem1_chain(turan_graph(2, 6), 3, power(1))
        assert rep.value_graph.exact == rep.value_majorized.exact
        assert rep.holds_first and rep.holds_second

    def test_empty_graph(self):
        rep = theorem1_chain(empty_graph(4), 3, power(3))
        assert rep.value_graph.exact == 0
        assert rep.holds_first and rep.holds_second

    def test_float_turan_graph_reaches_optimum(self):
        # e_f sums 21 degrees, the DP two parts: one exact total, rounded once
        rep = theorem1_chain(turan_graph(2, 21), 3, log_family())
        assert rep.holds_first and rep.holds_second

    def test_float_turan_graphs(self):
        # base=0.7: the Turan graph's degrees are rational (7/10, 7/5), the
        # DP's table is not (f(6) is irrational), and both give one total
        for weight in ("log:floor=0", "pow:mu=0.5", "pow:mu=2.5",
                       "staircase:c=0.9,seeds=5,base=0.7"):
            f = parse_weight(weight)
            for r in (3, 4, 5):
                for n in range(1, 40):
                    rep = theorem1_chain(turan_graph(r - 1, n), r, f)
                    assert rep.holds_first and rep.holds_second, (weight, r, n)

    def test_weight_checked_on_occurring_degrees_only(self):
        # f drops only at 4, a degree no vertex of a 4-vertex graph has
        from dwturan import StepWeight

        rep = theorem1_chain(cycle_graph(4), 3, StepWeight([0, 4], [1, 0]))
        assert rep.value_graph.exact == rep.value_optimum.exact == 4
        assert rep.holds_first and rep.holds_second

    def test_random_instances(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_kr_free_graph(rng.randrange(1, 25), 4, 0.3, rng)
            rep = theorem1_chain(g, 4, power(2))
            assert rep.holds_first and rep.holds_second


def test_generator_output_is_clique_free():
    from dwturan import contains_subgraph

    rng = random.Random(9)
    for r in (3, 4):
        for _ in range(20):
            g = random_kr_free_graph(12, r, 0.6, rng)
            assert not contains_subgraph(g, complete_graph(r))


class TestCliqueHint:
    """random_kr_free_graph records the r it proved in ``clique_free``, and
    erdos_majorizer skips its clique search only for a hint at most r."""

    def test_hint_is_sound_by_oracle(self):
        rng = random.Random(21)
        for r in (3, 4, 5, 6):
            for n in range(1, 11):
                for p in (0.5, 0.95):
                    g = random_kr_free_graph(n, r, p, rng)
                    assert g.clique_free == r
                    assert not naive_contains(g, complete_graph(g.clique_free)), (r, n, p)

    def test_hint_is_sound_by_clique_search(self):
        rng = random.Random(22)
        for r in (3, 4, 5, 6):
            for _ in range(15):
                n = rng.randrange(11, 61)
                g = random_kr_free_graph(n, r, rng.uniform(0.3, 1.0), rng)
                assert g.clique_free == r
                assert not mask_has_clique(g.adj, (1 << n) - 1, g.clique_free), (r, n)

    def test_hinted_and_unhinted_agree(self):
        rng = random.Random(24)
        for r in (3, 4, 5):
            for _ in range(20):
                g = random_kr_free_graph(rng.randrange(1, 40), r, rng.random(), rng)
                plain = Graph._from_adj(g.n, g.adj)
                assert plain.clique_free is None and plain == g
                assert hash(plain) == hash(g) and graph6_encode(plain) == graph6_encode(g)
                for s in range(r, r + 2):
                    assert erdos_majorizer(g, s) == erdos_majorizer(plain, s)

    def test_hint_above_r_still_runs_the_gate(self):
        # K4 is K5-free, so the hint 5 is true, but it proves nothing at r=4
        g = Graph._from_adj(4, complete_graph(4).adj, clique_free=5)
        with pytest.raises(ValueError):
            erdos_majorizer(g, 4)
        assert erdos_majorizer(g, 5).graph == complete_graph(4)

    def test_hint_at_most_r_skips_the_gate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the clique gate ran on a proved graph")

        rng = random.Random(25)
        g = random_kr_free_graph(20, 3, 0.5, rng)
        monkeypatch.setattr(majorize, "mask_has_clique", refuse)
        for r in (3, 4, 5):
            assert verify_majorization(g, erdos_majorizer(g, r))
            assert theorem1_chain(g, r, power(2)).holds_first
        with pytest.raises(AssertionError):
            erdos_majorizer(Graph._from_adj(g.n, g.adj), 4)
