"""Exhaustive search: frozen values, naive-oracle agreement, determinism."""

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
    power,
    ratio_table,
    verify_theorem1,
)
from oracles import naive_ex_exact, naive_ex_exact_witness


class TestExExact:
    def test_mantel_five(self):
        res = ex_exact(5, complete_graph(3), power(1))
        assert res.value.exact == 12
        assert res.witness == complete_bipartite(2, 3).relabel([3, 4, 0, 1, 2])

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
        from dwturan import Graph, empty_graph

        with pytest.raises(ValueError):
            ex_exact(3, Graph(0), power(1))
        with pytest.raises(ValueError):
            ex_exact(3, empty_graph(2), power(1))

    def test_edgeless_forbidden_larger_than_host(self):
        from dwturan import empty_graph

        res = ex_exact(3, empty_graph(4), power(1))
        assert res.witness == complete_graph(3)

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
            def __call__(self, n):
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

    def test_trivial_orders_float_weight(self):
        assert ex_exact(0, complete_graph(3), power(1.5)).value.approx == 0.0
        assert ex_exact(1, complete_graph(3), power(1.5)).value.approx == 0.0


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


class TestFrozenPatternValues:
    """Values, witnesses and node counts that the incremental matcher decides.

    C4 at n = 7 is where an edge-anchored matcher that loses copies reads
    252 (the complete graph) instead of 60.
    """

    @pytest.mark.parametrize("F,n,value,witness,nodes", [
        (cycle_graph(4), 7, 60, "F@QFw", 158553),
        (cycle_graph(5), 7, 92, "F?B~w", 96284),
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

    @staticmethod
    def _check(F, n, value, witness, nodes):
        res = ex_exact(n, F, power(2))
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
    ])
    def test_one_worker(self, r, n, weight, value, witness, nodes):
        res = ex_exact(n, complete_graph(r), parse_weight(weight))
        if isinstance(value, float):
            assert res.value.approx == pytest.approx(value, rel=1e-12)
        else:
            assert res.value.exact == value
        assert graph6_encode(res.witness) == witness
        assert res.nodes_explored == nodes

    @pytest.mark.parametrize("workers,nodes", [(1, 408), (2, 515)])
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

    def test_rejects_non_monotone(self):
        class Dip(WeightFunction):
            def __call__(self, n):
                return -float(n)

        with pytest.raises(ValueError):
            verify_theorem1(4, 3, Dip())


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
        # ex and ex' of K5 at n = 5 are the same total, summed two ways
        rows = ratio_table((5, 5), complete_graph(5), power(1.7))
        assert rows[0].ex_value.approx != rows[0].ex_prime_value.approx
        assert rows[0].ratio == pytest.approx(1.0, abs=1e-15)

    def test_zero_order_row(self):
        rows = ratio_table((0, 1), complete_graph(3), power(1))
        assert rows[0].ratio == 1.0


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
