"""Exhaustive search: frozen values, naive-oracle agreement, determinism."""

import math
import random
import re
from fractions import Fraction

import pytest

from dwturan import (
    Graph,
    ScaleLimitError,
    StepWeight,
    WeightFunction,
    complete_bipartite,
    complete_graph,
    contains_subgraph,
    cycle_graph,
    e_f,
    ex_exact,
    graph6_encode,
    ex_prime,
    parse_weight,
    path_graph,
    power,
    ratio_table,
    verify_theorem1,
)
from dwturan.cli import parse_graph_spec
from dwturan.graphs import SubgraphMatcher
from dwturan.search import _ceil_scaled, _search_tree
from oracles import (
    empty_graph,
    naive_ex_exact,
    naive_ex_exact_witness,
    naive_log_witness,
    reference_search_tree,
    relabel,
)
from test_graphs import CLI_SHORTHANDS, _refuse
from test_weights import _ThirdThenFloat


class TestExExact:
    def test_mantel_five(self):
        res = ex_exact(5, complete_graph(3), power(1))
        assert res.value.exact == 12
        assert res.witness == relabel(complete_bipartite(2, 3), [3, 4, 0, 1, 2])

    def test_no_c5_on_four_vertices(self):
        res = ex_exact(4, cycle_graph(5), power(2))
        assert res.value.exact == 36
        assert res.witness == complete_graph(4)

    def test_matches_partition_optimum_for_triangles(self):
        for n in range(0, 8):
            a = ex_exact(n, complete_graph(3), power(2)).value
            b = ex_prime(n, 2, power(2)).value
            assert a.exact == b.exact

    def test_witness_is_forbidden_free(self):
        res = ex_exact(6, cycle_graph(4), power(1))
        assert not contains_subgraph(res.witness, cycle_graph(4))
        assert e_f(res.witness, power(1)).exact == res.value.exact

    def test_refuses_above_limit(self):
        with pytest.raises(ScaleLimitError):
            ex_exact(9, complete_graph(3), power(1))

    def test_limit_override(self):
        res = ex_exact(5, complete_graph(3), power(1), limit=5)
        assert res.value.exact == 12

    def test_rejects_degenerate_forbidden(self):
        from dwturan import Graph

        with pytest.raises(ValueError):
            ex_exact(3, Graph(0), power(1))
        with pytest.raises(ValueError):
            ex_exact(3, empty_graph(2), power(1))

    def test_edgeless_forbidden_larger_than_host(self):
        res = ex_exact(3, empty_graph(4), power(1))
        assert res.witness == complete_graph(3)

    @pytest.mark.parametrize("F", [complete_graph(6), cycle_graph(5),
                                   complete_bipartite(3, 3)],
                             ids=["K6", "C5", "K3,3"])
    def test_forbidden_larger_than_host_builds_no_matcher(self, monkeypatch, F):
        import dwturan.graphs
        import dwturan.search

        def refuse(pattern):
            raise AssertionError("matcher built for a pattern larger than the host")

        monkeypatch.setattr(dwturan.graphs, "SubgraphMatcher", refuse)
        monkeypatch.setattr(dwturan.search, "SubgraphMatcher", refuse)
        res = ex_exact(4, F, power(1))
        assert res.value == e_f(complete_graph(4), power(1))
        assert res.witness == complete_graph(4)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_cliques_go_straight_to_the_clique_test(self, monkeypatch, r):
        import dwturan.search

        calls = []
        clique = dwturan.search.creates_clique
        monkeypatch.setattr(dwturan.search, "creates_clique",
                            lambda *args: calls.append(args[1]) or clique(*args))
        monkeypatch.setattr(SubgraphMatcher, "exists_using_edge", _refuse)
        res = ex_exact(6, complete_graph(r), power(1))
        assert res.value == ex_prime(6, r - 1, power(1)).value
        assert calls and set(calls) == {r}

    @pytest.mark.parametrize("spec", ["C4", "P4", "K2,3", "K3s:2"])
    def test_other_patterns_never_reach_the_clique_test(self, monkeypatch, spec):
        import dwturan.graphs
        import dwturan.search

        calls = []
        ask = SubgraphMatcher.exists_using_edge
        monkeypatch.setattr(SubgraphMatcher, "exists_using_edge",
                            lambda *args: calls.append(args[2]) or ask(*args))
        monkeypatch.setattr(dwturan.graphs, "creates_clique", _refuse)
        monkeypatch.setattr(dwturan.search, "creates_clique", _refuse)
        ex_exact(6, parse_graph_spec(spec), power(1))
        assert calls and set(calls) == {6}

    @pytest.mark.parametrize("n", range(0, 6))
    def test_naive_oracle_triangle(self, n):
        assert ex_exact(n, complete_graph(3), power(2)).value == \
            naive_ex_exact(n, complete_graph(3), power(2))

    @pytest.mark.parametrize("forbidden", [
        complete_graph(4), cycle_graph(4), cycle_graph(5),
        complete_bipartite(1, 3), complete_bipartite(2, 2),
        # paw and diamond
        Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    ])
    def test_naive_oracle_various(self, forbidden):
        for n in range(2, 6):
            ours = ex_exact(n, forbidden, power(1)).value
            theirs = naive_ex_exact(n, forbidden, power(1))
            if theirs is None:
                continue
            assert ours == theirs, (forbidden, n)

    def test_non_monotone_weight_still_exact(self):
        class Dip(WeightFunction):
            # favors degree 1 over anything larger
            def value(self, n):
                return float({0: 0, 1: 5}.get(n, 1))

        res = ex_exact(4, complete_graph(3), Dip())
        assert res.value.approx == 20.0  # perfect matching: all degrees 1

    def test_nodes_counter_positive(self):
        assert ex_exact(4, complete_graph(3), power(1)).nodes_explored > 0

    def test_worker_count_does_not_change_result(self):
        seq = ex_exact(5, complete_graph(3), power(2), workers=1)
        par = ex_exact(5, complete_graph(3), power(2), workers=2)
        assert seq.value == par.value
        assert seq.witness == par.witness
        # under pow:mu=0 every maximal graph ties, so only the reduce's
        # choice among equal subtree values decides the witness
        for weight in ["pow:mu=0", "step:0:0;3:1;5:3"]:
            f = parse_weight(weight)
            for shorthand in ["C4", "K3s:2"]:
                F = parse_graph_spec(shorthand)
                for n in (5, 6):
                    seq = ex_exact(n, F, f, workers=1)
                    for workers in (2, 8):
                        par = ex_exact(n, F, f, workers=workers)
                        assert par.value == seq.value, (weight, shorthand, n, workers)
                        assert par.witness == seq.witness, (weight, shorthand, n, workers)

    def test_float_weight_path(self):
        res = ex_exact(5, complete_graph(3), power(1.5))
        assert res.value.approx == pytest.approx(
            naive_ex_exact(5, complete_graph(3), power(1.5)).approx
        )

    @pytest.mark.parametrize("n,F,weight,witness", [
        (4, complete_graph(4), "log", "C^"),
        (7, cycle_graph(4), "pow:mu=1.5", "F@QFw"),
    ])
    def test_float_witness_is_least_bitstring(self, n, F, weight, witness):
        # isomorphic optima must tie exactly, whatever order their degrees
        # are summed in, so that the least bitstring is the witness
        res = ex_exact(n, F, parse_weight(weight))
        assert graph6_encode(res.witness) == witness

    @pytest.mark.parametrize("weight", ["pow:mu=364.5", "pow:mu=400"])
    def test_optimum_past_float_refused(self, weight):
        # the K4-free optimum on 8 vertices passes the largest float, under
        # a float weight and an exact one alike
        f = parse_weight(weight)
        with pytest.raises(ValueError, match=rf"^the optimum at n=8 free of 'C~' \(graph6\) "
                                             rf"under {re.escape(repr(f))} overflows float$"):
            ex_exact(8, complete_graph(4), f)

    def test_float_totals_near_overflow(self):
        # degree 6 under pow:mu=364.5 is about 1e283, and the bound's
        # integer table holds such floats exactly
        res = ex_exact(7, complete_graph(6), parse_weight("pow:mu=364.5"))
        assert res.value.approx == 1.7305763173275746e+284
        assert graph6_encode(res.witness) == "FF~~w"
        assert res.nodes_explored == 2088

    def test_trivial_orders_float_weight(self):
        assert ex_exact(0, complete_graph(3), power(1.5)).value.approx == 0.0
        assert ex_exact(1, complete_graph(3), power(1.5)).value.approx == 0.0


class _UlpApart(WeightFunction):
    """0 and 1 at degrees 0 and 1, exact; 1 + 2**-52 and 1 + 3 * 2**-52 at
    degrees 2 and 3, floats only."""

    def value(self, n):
        return (0, 1, 1 + 2.0 ** -52, 1 + 3 * 2.0 ** -52)[n]


class TestExactTies:
    """Leaves and the prefix reduce compare exact totals, as the DP does, so
    two totals that round to one float do not tie."""

    @pytest.mark.parametrize("workers,nodes", [(1, 77), (2, 83), (8, 66)])
    def test_totals_rounding_together_do_not_tie(self, workers, nodes):
        # K_{2,2} totals 4 + 4 * 2**-52 and K_{1,3} 4 + 3 * 2**-52, and both
        # round to 4 + 2**-50
        f = _UlpApart()
        res = ex_exact(4, complete_graph(3), f, workers=workers)
        assert graph6_encode(res.witness) == "C]"
        assert list(res.witness.degrees) == [2, 2, 2, 2]
        assert res.nodes_explored == nodes
        dp = ex_prime(4, 2, f)
        assert tuple(dp.witness) == (2, 2) and not dp.ties_flag
        assert res.value == dp.value
        assert res.value.approx == 4 + 2.0 ** -50


class TestWitnessOracle:
    """Value and least optimal maximal bitstring, against full enumeration."""

    def test_float_totals_near_1e15(self):
        # the totals reach 4e14, where one ulp is more than a 1e-9 margin
        f = power(20.5)
        res = ex_exact(6, complete_graph(4), f)
        value, witness = naive_ex_exact_witness(6, complete_graph(4), f)
        assert res.value == value
        assert res.witness == witness

    @pytest.mark.parametrize("F", [complete_graph(3), complete_graph(4), cycle_graph(4),
                                   cycle_graph(5)])
    @pytest.mark.parametrize("weight", ["pow:mu=2", "half", "log:floor=0", "pow:mu=12.5"])
    def test_agrees(self, F, weight):
        f = parse_weight(weight)
        for n in range(1, 6):
            res = ex_exact(n, F, f)
            assert (res.value, res.witness) == naive_ex_exact_witness(n, F, f), n


class TestLogTieOracle:
    """log:floor=0 scores a graph by ln of its degree product (degree 0
    counted as 1). Float sums of logs can split equal products by an ulp,
    so the witness is checked against an oracle that compares the integer
    products themselves."""

    @pytest.mark.parametrize("shorthand", CLI_SHORTHANDS + ["K1,4"])
    def test_agrees_with_integer_products(self, shorthand):
        F = parse_graph_spec(shorthand)
        f = parse_weight("log:floor=0")
        for n in range(1, 7):
            res = ex_exact(n, F, f)
            product, witness = naive_log_witness(n, F)
            assert res.witness == witness, n
            assert math.prod(max(d, 1) for d in res.witness.degrees) == product, n
            assert res.value.approx == math.fsum(math.log(max(d, 1))
                                                 for d in witness.degrees), n


REFERENCE_WEIGHTS = ["pow:mu=2", "half", "pow:mu=0", "step:0:0;3:1;5:3",
                     "log:floor=0", "pow:mu=0.5"]


def _reference_rows(n, F, f, prefix=()):
    """reference_search_tree with its best bitstring decoded to adjacency rows."""
    total, best, bits, nodes = reference_search_tree(n, F, f, prefix)
    if best is None:
        return total, best, None, nodes
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [0] * n
    for i, (u, v) in enumerate(slots):
        if bits >> (len(slots) - 1 - i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return total, best, rows, nodes


class TestReferenceSearch:
    """The search against its plainest form, oracles.reference_search_tree:
    same best total and value, same witness (the reference's least
    bitstring, decoded to rows) and same node count, so the cheaper nodes
    walk the same tree in the same order and prune the same subtrees, in
    the int, scaled-Fraction and float modes; in float mode the search's
    integer bound test prunes what the reference's float sum does."""

    @pytest.mark.parametrize("shorthand", CLI_SHORTHANDS + ["K1,4"])
    def test_whole_tree(self, shorthand):
        F = parse_graph_spec(shorthand)
        for weight in REFERENCE_WEIGHTS:
            f = parse_weight(weight)
            for n in range(7):
                assert [*_search_tree(n, F, f)] == [_reference_rows(n, F, f)], (weight, n)

    @pytest.mark.parametrize("shorthand", CLI_SHORTHANDS + ["K1,4"])
    def test_every_three_slot_prefix(self, shorthand):
        # one depth-3 call yields its eight subtrees in prefix order, each
        # searched from the set-up the call made once
        F = parse_graph_spec(shorthand)
        prefixes = [(p >> 2 & 1, p >> 1 & 1, p & 1) for p in range(8)]
        for weight in REFERENCE_WEIGHTS:
            f = parse_weight(weight)
            assert ([*_search_tree(5, F, f, 3)]
                    == [_reference_rows(5, F, f, prefix) for prefix in prefixes]), weight

    def test_scaled_band_is_exact(self):
        # the float-mode cutoff is the incumbent's value less the margin, in
        # floats, and the least integer bound that reaches it is the exact
        # ceiling of the cutoff times the scale
        rng = random.Random(20)
        for _ in range(2000):
            value = rng.uniform(-1e3, 1e3) * 2.0 ** rng.randrange(-60, 60)
            slack = rng.random() * 2.0 ** rng.randrange(-80, 10)
            scale = 1 << rng.randrange(0, 1100)
            cutoff = value - slack
            assert _ceil_scaled(cutoff, scale) == math.ceil(Fraction(cutoff) * scale)

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("weight", ["log:floor=0", "pow:mu=0.5",
                                        "pow:mu=1.5", "pow:mu=2.7"])
    def test_float_band_at_seven(self, r, weight):
        # float mode decides a child on its integer bound against the
        # scaled cutoff, the reference on the caps' float sum against the
        # cutoff itself; these runs bring the two within float_slack of
        # each other, K4 under pow:mu=0.5 899 times
        F = complete_graph(r)
        f = parse_weight(weight)
        assert [*_search_tree(7, F, f)] == [_reference_rows(7, F, f)]


class TestFrozenPatternValues:
    """Values, witnesses and node counts that the incremental matcher decides.

    C4 at n = 7 is where an edge-anchored matcher that loses copies reads
    252 (the complete graph) instead of 60.
    """

    @pytest.mark.parametrize("F,n,value,witness,nodes", [
        (cycle_graph(4), 7, 60, "F@QFw", 158553),
        (cycle_graph(5), 7, 92, "F?B~w", 96284),
        (path_graph(4), 7, 42, "F??Fw", 8154),
        (path_graph(5), 7, 48, "F??Nw", 31310),
    ])
    def test_seven_vertices(self, F, n, value, witness, nodes):
        self._check(F, n, value, witness, nodes)

    @pytest.mark.slow
    @pytest.mark.parametrize("F,n,value,witness,nodes", [
        (cycle_graph(5), 8, 128, "G?~vf_", 1932811),
        (cycle_graph(4), 8, 74, "G?CaF{", 4818487),
    ])
    def test_eight_vertices(self, F, n, value, witness, nodes):
        self._check(F, n, value, witness, nodes)

    @pytest.mark.parametrize("spec,n,weight,value,witness,nodes", [
        ("C5", 7, "step:0:0;3:1;5:3", 9, "FJaNw", 79997),
        ("K3s:2", 7, "pow:mu=2", 172, "FK~~w", 21155),
        ("K2,3", 6, "half", 10, "ELrw", 8190),
        ("K3,3", 7, "pow:mu=2", 152, "FLr~w", 65668),
    ], ids=["C5-step", "K3s:2-anchored", "K2,3-half", "K3,3-anchored"])
    def test_other_weights_and_anchored_patterns(self, spec, n, weight, value,
                                                 witness, nodes):
        # K3s:2 and K3,3 go through the anchored search, whose degree
        # filters read the host's rows; K2,3 goes to the complete-bipartite
        # kernel
        self._check(parse_graph_spec(spec), n, value, witness, nodes,
                    parse_weight(weight))

    @pytest.mark.parametrize("spec,weight,value,witness,nodes", [
        ("K2,3", "pow:mu=2", 90, "FBjFw", 313616),
        ("K2,3", "log:floor=0", 8.55333223803211, "FBn^?", 199134),
        ("K1,4", "pow:mu=2", 58, "F@^V?", 249999),
        ("K1,4", "log:floor=0", 7.284820912568604, "F@^V?", 121091),
    ])
    def test_complete_bipartite_seven_vertices(self, spec, weight, value,
                                               witness, nodes):
        # the tree is the same whichever kernel answers the matcher
        self._check(parse_graph_spec(spec), 7, value, witness, nodes,
                    parse_weight(weight))

    @staticmethod
    def _check(F, n, value, witness, nodes, f=power(2)):
        res = ex_exact(n, F, f)
        if isinstance(value, float):
            assert not res.value.is_exact and res.value.approx == value
        else:
            assert res.value.exact == value
        assert graph6_encode(res.witness) == witness
        assert res.nodes_explored == nodes


class TestFrozenCliqueValues:
    """Values, witnesses and node counts of the clique search.

    The node counts follow every prune decision of the degree-cap bound in
    the int, scaled-Fraction and float modes; a bound that is stale or off
    by one term moves them before it moves a value.
    """

    @pytest.mark.parametrize("r,n,weight,value,witness,nodes", [
        (3, 7, "pow:mu=2", 84, "F?~v_", 50875),
        (4, 7, "pow:mu=2", 148, "FFz~o", 44747),
        (3, 6, "half", 9, "EFz_", 3146),
        (4, 6, "half", 12, "E]~o", 2164),
        (3, 7, "log:floor=0", 8.55333223803211, "F?~v_", 23029),
        (4, 7, "log:floor=0", 10.596634733096073, "FFz~o", 18302),
        # a step table is flat between jumps, so some exclusions leave the
        # exact bound as it is
        (3, 7, "step:0:0;3:1;5:3", 7, "F?~v_", 63891),
        (4, 6, "pow:mu=0", 6, "E?~w", 57787),
        (3, 7, "pow:mu=0.5", 12.928203230275509, "F?~v_", 25659),
    ])
    def test_one_worker(self, r, n, weight, value, witness, nodes):
        res = ex_exact(n, complete_graph(r), parse_weight(weight))
        if isinstance(value, float):
            assert res.value.approx == pytest.approx(value, rel=1e-12)
        else:
            assert res.value.exact == value
        assert graph6_encode(res.witness) == witness
        assert res.nodes_explored == nodes

    @pytest.mark.slow
    @pytest.mark.parametrize("r,value,witness,nodes", [
        (3, "0x1.62e42fefa39efp+3", "G?~vf_", 283834),
        (4, "0x1.a7af4787cb1e7p+3", "GFzf~w", 344215),
    ])
    def test_float_eight_vertices(self, r, value, witness, nodes):
        res = ex_exact(8, complete_graph(r), parse_weight("log:floor=0"))
        assert res.value.approx.hex() == value
        assert graph6_encode(res.witness) == witness
        assert res.nodes_explored == nodes

    @pytest.mark.parametrize("workers,nodes", [(1, 408), (2, 515)],
                             ids=["1-408", "2-515"])
    def test_pool_prefixes(self, workers, nodes):
        # two workers split the tree on its first three slots, so the
        # subtrees start from prefix decisions that exclude slots
        res = ex_exact(5, complete_graph(3), parse_weight("pow:mu=1"),
                       workers=workers)
        assert res.value.exact == 12
        assert graph6_encode(res.witness) == "DFw"
        assert res.nodes_explored == nodes


class TestVerifyTheorem1:
    def test_small_cases(self):
        assert verify_theorem1(6, 3, power(2))
        assert verify_theorem1(7, 4, power(1))
        assert verify_theorem1(0, 3, power(3))

    def test_common_value_seven_four(self):
        # the balanced 3-partite graph on 7 vertices has 16 edges
        assert ex_prime(7, 3, power(1)).value.exact == 32

    # staircase:c=0.9,seeds=5 climbs through an irrational f(6); the
    # construct workload's staircase is 1 on every degree below 9, exact
    @pytest.mark.parametrize("weight", ["log:floor=0", "pow:mu=0.5", "pow:mu=1.5", "pow:mu=2.7",
                                        "pow:mu=3.3", "staircase:c=0.9,seeds=5",
                                        "staircase:c=0.9,seeds=5,base=0.3",
                                        "staircase:c=0.9,seeds=5,base=1/3",
                                        "log:floor=-5e-324"])
    def test_float_optima_equal(self, weight):
        # both sides are the exact optimum correctly rounded, so they are
        # equal to the bit, not up to rounding
        f = parse_weight(weight)
        for r in (3, 4, 5):
            for n in range(8):
                assert verify_theorem1(n, r, f), (r, n)
                full = ex_exact(n, complete_graph(r), f)
                assert full.value.approx.hex() == ex_prime(n, r - 1, f).value.approx.hex(), (r, n)

    def test_weight_checked_on_occurring_degrees_only(self):
        # f drops only at 4, a degree no vertex of a 4-vertex graph has
        assert verify_theorem1(4, 3, StepWeight([0, 4], [1, 0]))

    def test_rejects_non_monotone(self):
        class Dip(WeightFunction):
            def value(self, n):
                return -float(n)

        with pytest.raises(ValueError):
            verify_theorem1(4, 3, Dip())

    def test_rejects_weight_whose_table_drops(self):
        # the floats of f(0) = 1/3 and f(1) tie, but the search's table,
        # exact at 0, drops, so the weight is refused like any other dip
        with pytest.raises(ValueError, match="non-decreasing"):
            verify_theorem1(3, 3, _ThirdThenFloat())


class TestRatioTable:
    def test_c5_square_rows(self):
        rows = ratio_table((4, 6), cycle_graph(5), power(2))
        assert [r.n for r in rows] == [4, 5, 6]
        assert rows[0].ex_value.exact == 36
        assert rows[0].ex_prime_value.exact == 16
        assert all(r.ratio >= 1 for r in rows)

    def test_triangle_rows_all_one(self):
        rows = ratio_table((3, 7), complete_graph(3), power(1))
        assert all(r.ratio == 1.0 for r in rows)

    def test_rejects_bipartite_forbidden(self):
        with pytest.raises(ValueError, match="non-bipartite"):
            ratio_table((3, 5), complete_bipartite(2, 2), power(1))

    def test_float_optima_tied_up_to_rounding(self):
        # ex and ex' of K5 at n = 5 are the same exact total, summed two
        # ways in integers and rounded once
        rows = ratio_table((5, 5), complete_graph(5), power(1.7))
        assert rows[0].ex_value.approx == rows[0].ex_prime_value.approx
        assert rows[0].ratio == 1.0

    def test_zero_order_row(self):
        rows = ratio_table((0, 1), complete_graph(3), power(1))
        assert rows[0].ratio == 1.0

    def test_equal_negative_optima_read_one(self):
        # K_{1,2} and K_{2,2} are optimal, and negative
        rows = ratio_table((3, 4), complete_graph(3), parse_weight("step:0:-3;1:-2;2:-1"))
        assert [(r.ex_value.exact, r.ex_prime_value.exact, r.ratio) for r in rows] == [
            (-5, -5, 1.0), (-4, -4, 1.0)]


class TestSandwich:
    def test_every_instance(self):
        forb = {
            "K3": (complete_graph(3), 2),
            "K4": (complete_graph(4), 3),
            "C5": (cycle_graph(5), 2),
        }
        weights = [power(1), power(2), StepWeight([0, 2, 4], [0, 3, 11])]
        for F, k in forb.values():
            for f in weights:
                for n in range(0, 7):
                    lower = ex_prime(n, k, f).value
                    upper = ex_exact(n, F, f).value
                    assert lower <= upper
