"""Graph core: construction, weighted totals, containment, coloring."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dwturan import (
    Graph,
    ObjectiveValue,
    PartSizes,
    ScaleLimitError,
    blowup_k3,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    contains_subgraph,
    cycle_graph,
    e_f,
    graph6_decode,
    graph6_encode,
    half,
    log_family,
    path_graph,
    power,
)
import dwturan.graphs as core
from dwturan.cli import parse_graph_spec
from dwturan.graphs import SubgraphMatcher
from oracles import (
    all_graphs,
    empty_graph,
    naive_chromatic_number,
    naive_contains,
    naive_contains_through_edge,
    petersen_graph,
    relabel,
    turan_graph,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph(n, edges)


class TestConstruction:
    def test_from_edges_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g == complete_graph(3)

    def test_from_edges_empty(self):
        g = Graph(2, [])
        assert g.num_edges == 0 and g.n == 2

    def test_duplicate_edges_collapse(self):
        g = Graph(4, [(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_multipartite_octahedron(self):
        g = complete_multipartite([2, 2, 2])
        assert g == blowup_k3(2)
        assert g.n == 6 and g.num_edges == 12

    def test_multipartite_single_part_is_empty(self):
        g = complete_multipartite([5])
        assert g.num_edges == 0

    def test_multipartite_degree_law(self):
        g = complete_multipartite([3, 2])
        assert sorted(g.degrees) == [2, 2, 2, 3, 3]

    def test_multipartite_zero_parts(self):
        g = complete_multipartite([3, 0, 2])
        assert g == complete_bipartite(3, 2)

    def test_turan_mantel_value(self):
        v = e_f(turan_graph(2, 4), power(1))
        assert v.exact == 8 == 2 * (4 * 4 // 4)

    def test_blowup_k3(self):
        assert blowup_k3(1) == complete_graph(3)
        g = blowup_k3(5)
        assert g.n == 15 and g.num_edges == 75
        assert chromatic_number(g) == 3

    def test_constructors_give_no_orbit_hint(self):
        # a hint on a graph without that symmetry would cut the K_{a,b}
        # scan short: P3 hinted (0,) would read as K_{1,2}-free
        for g in (Graph(3, [(0, 1)]), complete_graph(4), cycle_graph(5), path_graph(3),
                  complete_bipartite(2, 3), complete_multipartite([2, 2, 2]), blowup_k3(2),
                  graph6_decode(graph6_encode(petersen_graph())), parse_graph_spec("K3s:2")):
            assert g.orbit_reps is None, g

    def test_constructors_give_no_clique_hint(self):
        # a hint on a graph that has the clique would let erdos_majorizer
        # skip its gate: K4 hinted 3 would pass as triangle-free
        for g in (Graph(3, [(0, 1)]), complete_graph(4), cycle_graph(5), path_graph(3),
                  complete_bipartite(2, 3), complete_multipartite([2, 2, 2]), blowup_k3(2),
                  graph6_decode(graph6_encode(petersen_graph())),
                  graph6_decode(graph6_encode(complete_graph(5))),
                  parse_graph_spec("K3s:2"), parse_graph_spec("K4"), parse_graph_spec("C5"),
                  parse_graph_spec("P5"), parse_graph_spec("K2,3"), parse_graph_spec("Dhc")):
            assert g.clique_free is None, g


class TestObjective:
    def test_k3_square_weight(self):
        assert e_f(complete_graph(3), power(2)).exact == 12

    def test_half_counts_edges(self):
        g = petersen_graph()
        assert e_f(g, half()).exact == g.num_edges

    def test_empty_graph_zero(self):
        assert e_f(empty_graph(5), power(1)).exact == 0

    def test_star_fourth_power(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert e_f(star, power(4)).exact == 84

    def test_log_is_log_of_degree_product(self):
        import math

        v = e_f(complete_graph(3), log_family())
        assert v.approx == pytest.approx(3 * math.log(2))
        assert math.exp(v.approx) == pytest.approx(8.0)

    def test_equal_values_hash_equal(self):
        assert len({ObjectiveValue.of(Fraction(1, 3)), ObjectiveValue.approximate(1 / 3)}) == 1
        values = [ObjectiveValue.of(Fraction(1, 3)), ObjectiveValue.approximate(1 / 3),
                  ObjectiveValue.of(2), ObjectiveValue.approximate(2.0),
                  ObjectiveValue.of(Fraction(4, 2)), ObjectiveValue.scaled(6, 3, True),
                  ObjectiveValue.scaled(8, 4, False), ObjectiveValue.of(Fraction(7, 10)),
                  ObjectiveValue.approximate(0.7), ObjectiveValue.approximate(0.1)]
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b), (a, b)

    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degrees) == 2 * g.num_edges

    @given(graphs(), st.randoms(use_true_random=False))
    def test_isomorphism_invariance(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert e_f(relabel(g, perm), power(2)).exact == e_f(g, power(2)).exact

    @given(graphs(max_n=7))
    def test_monotone_under_edge_addition(self, g):
        f = power(2)
        base = e_f(g, f)
        for u, v in combinations(range(g.n), 2):
            if not g.adj[u] >> v & 1:
                bigger = Graph(g.n, g.edges() + [(u, v)])
                assert e_f(bigger, f) >= base
                break


class TestContainment:
    def test_clique_nesting(self):
        assert contains_subgraph(complete_graph(4), complete_graph(3))

    def test_bipartite_triangle_free(self):
        assert not contains_subgraph(complete_bipartite(3, 3), complete_graph(3))

    def test_petersen_has_c5(self):
        assert contains_subgraph(petersen_graph(), cycle_graph(5))

    def test_petersen_no_c3_c4(self):
        assert not contains_subgraph(petersen_graph(), cycle_graph(3))
        assert not contains_subgraph(petersen_graph(), cycle_graph(4))

    def test_not_induced(self):
        # C4 sits inside K4 as a (non-induced) subgraph
        assert contains_subgraph(complete_graph(4), cycle_graph(4))

    def test_octahedron_contains_c5(self):
        assert contains_subgraph(blowup_k3(2), cycle_graph(5))

    @given(graphs(max_n=6), graphs(max_n=4))
    @settings(max_examples=60)
    def test_matches_naive_oracle(self, g, f):
        assert contains_subgraph(g, f) == naive_contains(g, f)

    @given(graphs(max_n=6), graphs(max_n=4))
    @settings(max_examples=40)
    def test_monotone_in_host(self, g, f):
        if not contains_subgraph(g, f):
            return
        for u, v in combinations(range(g.n), 2):
            if not g.adj[u] >> v & 1:
                assert contains_subgraph(Graph(g.n, g.edges() + [(u, v)]), f)
                return


class TestIncrementalContainment:
    """exists_using_edge must equal full containment when the host was
    pattern-free before the edge arrived (every new copy uses the edge)."""

    @pytest.mark.parametrize("pattern", [
        complete_graph(3), complete_graph(4), cycle_graph(4), cycle_graph(5),
        blowup_k3(2), complete_bipartite(2, 3), Graph(4, [(0, 1), (1, 2), (2, 3)]),
    ])
    def test_matches_full_search_on_growing_hosts(self, pattern):
        matcher = SubgraphMatcher(pattern)
        rng = random.Random(hash(pattern) & 0xFFFF)
        for _ in range(15):
            n = rng.randrange(pattern.n, 9)
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(slots)
            adj = [0] * n
            edges = []
            for u, v in slots:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                incremental = matcher.exists_using_edge(adj, n, u, v)
                full = contains_subgraph(Graph(n, edges + [(u, v)]), pattern)
                assert incremental == full
                if incremental:
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                else:
                    edges.append((u, v))


CLI_SHORTHANDS = ["K3", "K4", "C4", "C5", "P4", "P5", "K2,3", "K3s:2"]
# K1,4: four false twins around one centre. D~w: K5 minus an edge, a class
# of three true twins that holds both ends of an anchored edge. C6 and P6
# widen the path-and-cycle kernel's cover; C` (2K2) and DgC (P3 + K2) have
# maximum degree 2 but are disconnected, so they stay anchored. K1,3 and
# K2,4 widen the complete-bipartite kernel's cover; K3,3 has s = 3 and stays
# anchored. C4 = K2,2 and P3 = K1,2 take the walk, not the bipartite kernel.
# K3, K4 and K5 take the anchored search.
KERNEL_PATTERNS = ["C4", "C5", "C6", "P3", "P4", "P5", "P6"]
BIPARTITE_KERNEL_PATTERNS = ["K1,3", "K1,4", "K2,3", "K2,4"]
ORACLE_PATTERNS = CLI_SHORTHANDS + ["K1,4", "D~w", "C6", "P3", "P6", "C`", "DgC",
                                    "K1,3", "K2,4", "K3,3", "K5"]


def _without(G, a, b):
    """G's rows as a list, with the edge (a, b) taken out."""
    adj = list(G.adj)
    adj[a] ^= 1 << b
    adj[b] ^= 1 << a
    return adj


class TestEdgeAnchoredOracle:
    """exists_using_edge against trying every injective vertex map, on every
    edge of every host, in both orientations, asked with the edge in the
    rows and with it taken out (the answer is for the host plus the edge
    either way); exists_in on every host."""

    @staticmethod
    def _check_every_edge(matcher, G):
        F = matcher.pattern
        present = naive_contains(G, F)
        assert matcher.exists_in(G) == present, (graph6_encode(F), graph6_encode(G))
        for a, b in G.edges():
            expected = present and naive_contains_through_edge(G, F, a, b)
            without = _without(G, a, b)
            for u, v in ((a, b), (b, a)):
                got = matcher.exists_using_edge(G.adj, G.n, u, v)
                assert got == expected, (graph6_encode(F), graph6_encode(G), u, v)
                got = matcher.exists_using_edge(without, G.n, u, v)
                assert got == expected, (graph6_encode(F), graph6_encode(G), u, v, "unwritten")

    @pytest.mark.parametrize("spec", ORACLE_PATTERNS)
    def test_every_labeled_host_up_to_five_vertices(self, spec):
        matcher = SubgraphMatcher(parse_graph_spec(spec))
        for n in range(2, 6):
            for G in all_graphs(n):
                self._check_every_edge(matcher, G)

    @pytest.mark.parametrize("spec", ORACLE_PATTERNS)
    def test_sampled_six_vertex_hosts(self, spec):
        matcher = SubgraphMatcher(parse_graph_spec(spec))
        rng = random.Random(6)
        pairs = list(combinations(range(6), 2))
        for _ in range(200):
            mask = rng.getrandbits(len(pairs))
            G = Graph(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
            self._check_every_edge(matcher, G)

    @pytest.mark.parametrize("spec", ORACLE_PATTERNS)
    def test_petersen_host(self, spec):
        self._check_every_edge(SubgraphMatcher(parse_graph_spec(spec)), petersen_graph())


def _refuse(*args):
    raise AssertionError("pattern reached the wrong kernel")


class TestKernelDispatch:
    """Which algorithm exists_using_edge runs, read off the pattern's shape."""

    @staticmethod
    def _ask_every_edge(matcher, G):
        return [matcher.exists_using_edge(G.adj, G.n, u, v)
                for a, b in G.edges() for u, v in ((a, b), (b, a))]

    @pytest.mark.parametrize("spec", KERNEL_PATTERNS)
    def test_paths_and_cycles_skip_the_anchored_search(self, monkeypatch, spec):
        calls = []
        walk = core._walk_from
        monkeypatch.setattr(core, "_walk_from",
                            lambda *args: calls.append(args[2]) or walk(*args))
        monkeypatch.setattr(SubgraphMatcher, "_search", _refuse)
        monkeypatch.setattr(core, "_bipartite_through", _refuse)
        monkeypatch.setattr(core, "creates_clique", _refuse)
        assert all(self._ask_every_edge(SubgraphMatcher(parse_graph_spec(spec)),
                                        complete_graph(6)))
        assert calls

    # Dl?: C4 plus an isolated vertex
    @pytest.mark.parametrize("spec", ["C`", "DgC", "Dl?"])
    def test_disconnected_degree_two_patterns_stay_anchored(self, monkeypatch, spec):
        monkeypatch.setattr(core, "_bipartite_through", _refuse)
        monkeypatch.setattr(core, "_walk_from", _refuse)
        monkeypatch.setattr(core, "_path_through", _refuse)
        monkeypatch.setattr(core, "creates_clique", _refuse)
        assert all(self._ask_every_edge(SubgraphMatcher(parse_graph_spec(spec)),
                                        complete_graph(6)))

    @pytest.mark.parametrize("spec", BIPARTITE_KERNEL_PATTERNS)
    def test_stars_and_k2t_go_to_the_bipartite_kernel(self, monkeypatch, spec):
        monkeypatch.setattr(SubgraphMatcher, "_search", _refuse)
        monkeypatch.setattr(core, "_walk_from", _refuse)
        monkeypatch.setattr(core, "_path_through", _refuse)
        monkeypatch.setattr(core, "creates_clique", _refuse)
        matcher = SubgraphMatcher(parse_graph_spec(spec))
        assert all(self._ask_every_edge(matcher, complete_graph(6)))
        # C4- and K1,4-free, so every kernel also runs to its end
        self._ask_every_edge(matcher, petersen_graph())

    def test_k33_stays_anchored(self, monkeypatch):
        monkeypatch.setattr(core, "_bipartite_through", _refuse)
        monkeypatch.setattr(core, "creates_clique", _refuse)
        assert all(self._ask_every_edge(SubgraphMatcher(parse_graph_spec("K3,3")),
                                        complete_graph(6)))

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_cliques_take_the_anchored_search(self, monkeypatch, r):
        # the labeled search asks creates_clique itself; through the matcher
        # a clique, K3 = C3 too, is one more anchored pattern, so a search
        # that asks the matcher checks the clique test against another algorithm
        calls = []
        search = SubgraphMatcher._search
        monkeypatch.setattr(SubgraphMatcher, "_search",
                            lambda *args: calls.append(args) or search(*args))
        monkeypatch.setattr(core, "creates_clique", _refuse)
        monkeypatch.setattr(core, "_walk_from", _refuse)
        monkeypatch.setattr(core, "_path_through", _refuse)
        monkeypatch.setattr(core, "_bipartite_through", _refuse)
        K = complete_graph(r)
        matcher = SubgraphMatcher(K)
        # K6 holds every K_r, T(6, 3) no K4, T(7, 4) no K5 and C5 no K3
        for G in (complete_graph(6), turan_graph(3, 6), turan_graph(4, 7), cycle_graph(5)):
            for a, b in G.edges():
                expected = naive_contains_through_edge(G, K, a, b)
                for u, v in ((a, b), (b, a)):
                    assert matcher.exists_using_edge(G.adj, G.n, u, v) == expected, (
                        graph6_encode(G), u, v)
        assert calls


class TestCreatesClique:
    """creates_clique on its own, against trying every injective vertex map:
    the labeled search and majorize call it directly, for r up to 5. Each
    edge is asked with it in the rows and with it taken out."""

    CLIQUES = {r: complete_graph(r) for r in range(2, 7)}

    def _check(self, G, a, b):
        without = _without(G, a, b)
        for r, K in self.CLIQUES.items():
            expected = naive_contains_through_edge(G, K, a, b)
            for u, v in ((a, b), (b, a)):
                for adj in (G.adj, without):
                    assert core.creates_clique(adj, r, u, v) == expected, (
                        graph6_encode(G), u, v, r, adj is without)

    def test_every_labeled_host_up_to_five_vertices(self):
        for n in range(2, 6):
            for G in all_graphs(n):
                for a, b in G.edges():
                    self._check(G, a, b)

    def test_sampled_seven_vertex_hosts(self):
        # one edge per host, as the oracle tries up to 5040 maps per
        # question; denser hosts hold the K5 and K6 answers that are true
        rng = random.Random(7)
        pairs = list(combinations(range(7), 2))
        for _ in range(200):
            density = rng.choice((0.5, 0.75, 0.9))
            G = Graph(7, [p for p in pairs if rng.random() < density])
            if G.num_edges:
                self._check(G, *rng.choice(G.edges()))


def dense_random_graph() -> Graph:
    """G(50, 1/2) from random.Random(1), each slot u < v kept in order."""
    rng = random.Random(1)
    return Graph(50, [(u, v) for u in range(50) for v in range(u + 1, 50)
                      if rng.random() < 0.5])


class TestChromaticNumber:
    @pytest.mark.parametrize("g,chi", [
        (complete_graph(4), 4),
        (cycle_graph(5), 3),
        (blowup_k3(2), 3),
        (complete_bipartite(3, 3), 2),
        (empty_graph(4), 1),
        (petersen_graph(), 3),
        (cycle_graph(6), 2),
    ])
    def test_known_values(self, g, chi):
        assert chromatic_number(g) == chi

    def test_empty_order_rejected(self):
        with pytest.raises(ValueError):
            chromatic_number(Graph(0))

    def test_dense_random_graph_refused_within_a_second(self):
        # chi = 9, which takes millions of colour placements to settle
        start = time.perf_counter()
        with pytest.raises(ScaleLimitError, match=(
                r"^chromatic number of a graph on 50 vertices needs more than "
                rf"{core.CHROMATIC_MAX_PLACEMENTS} colour placements$")):
            chromatic_number(dense_random_graph())
        assert time.perf_counter() - start < 1

    def test_every_labeled_graph_up_to_five_vertices(self):
        for n in range(1, 6):
            for G in all_graphs(n):
                assert chromatic_number(G) == naive_chromatic_number(n, G.edges()), \
                    graph6_encode(G)


@pytest.mark.parametrize("n,chi", [(999, 3), (1000, 2), (4097, 3)])
def test_colouring_deeper_than_the_recursion_limit(n, chi):
    # one backtracking level per vertex, past sys.getrecursionlimit()
    assert chromatic_number(cycle_graph(n)) == chi


class TestPartSizes:
    def test_canonical_order(self):
        assert PartSizes([1, 3, 2]).sizes == (3, 2, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PartSizes([2, -1])

