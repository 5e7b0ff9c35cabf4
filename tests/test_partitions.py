"""Multipartite optimizer: DP against enumeration, witnesses, chain report."""

import random
from fractions import Fraction

import pytest

from dwturan import (
    PartSizes,
    log_family,
    ScaleLimitError,
    StepWeight,
    complete_multipartite,
    e_f,
    ex_prime,
    ex_prime_enumerated,
    half,
    multipartite_value,
    parse_weight,
    power,
    turan_chain_check,
)
from dwturan.weights import float_slack, tabulate
from oracles import full_table_ex_prime, generator_ex_prime, random_step_weight

# integer, scaled-rational and float weights, monotone and not
REFERENCE_WEIGHTS = [
    "pow:mu=2",
    "half",
    "step:0:0;3:1;50:2;200:5",
    "log:floor=0",
    "staircase:c=0.5,seeds=9;100,base=1",
    "pow:mu=0.5",
    "pow:mu=1.5",
    "step:0:3;2:1",
    "pow:mu=1",
    "staircase:c=0.5,seeds=100,base=1",
    "step:0:1/3;2:0;4:7/2;9:1",
]


def _bits(res):
    """Value (exact, or the float's hex), witness and ties_flag."""
    value = res.value.exact if res.value.is_exact else res.value.approx.hex()
    return value, tuple(res.witness), res.ties_flag


class TestMultipartiteValue:
    def test_square_bipartite(self):
        assert multipartite_value((2, 2), power(1)).exact == 8

    def test_unbalanced_fourth_power(self):
        assert multipartite_value((3, 1), power(4)).exact == 84

    def test_empty(self):
        assert multipartite_value((), power(2)).exact == 0

    def test_matches_graph_evaluation(self):
        # one degree multiset, one correctly rounded sum, however it is grouped
        rng = random.Random(0)
        for weight in ("pow:mu=2", "log:floor=0", "pow:mu=0.5", "pow:mu=1.5", "pow:mu=2.7"):
            f = parse_weight(weight)
            for _ in range(200):
                parts = [rng.randrange(0, 13) for _ in range(rng.randrange(1, 7))]
                direct = multipartite_value(parts, f)
                via_graph = e_f(complete_multipartite(parts), f)
                assert direct.exact == via_graph.exact
                assert direct.approx.hex() == via_graph.approx.hex(), (weight, parts)

    def test_negative_part_refused(self):
        # complete_multipartite refuses the same parts
        with pytest.raises(ValueError):
            multipartite_value((3, -1), power(1))
        with pytest.raises(ValueError):
            complete_multipartite((3, -1))


class TestExPrime:
    def test_square_split(self):
        res = ex_prime(4, 2, power(1))
        assert res.value.exact == 8
        assert res.witness == PartSizes([2, 2])

    def test_unbalanced_beats_balanced(self):
        res = ex_prime(4, 2, power(4))
        assert res.value.exact == 84
        assert res.witness == PartSizes([3, 1])
        assert multipartite_value((2, 2), power(4)).exact == 64

    def test_zero_order(self):
        res = ex_prime(0, 3, power(2))
        assert res.value.exact == 0
        assert res.witness == PartSizes([0, 0, 0])

    def test_single_part_forces_empty(self):
        f = StepWeight([0], [7])
        assert ex_prime(11, 1, f).value.exact == 77

    def test_half_weight_fractional_mode(self):
        res = ex_prime(5, 2, half())
        # edges of the best bipartition: 3*2 = 6
        assert res.value.exact == Fraction(6)
        assert res.witness == PartSizes([3, 2])

    def test_witness_realizes_value(self):
        for n, k, mu in [(9, 2, 3), (13, 3, 2), (17, 4, 1)]:
            res = ex_prime(n, k, power(mu))
            assert e_f(complete_multipartite(res.witness), power(mu)).exact == res.value.exact

    def test_dominates_balanced_split(self):
        from dwturan import turan_graph

        for n in range(0, 30):
            res = ex_prime(n, 3, power(2))
            assert res.value >= e_f(turan_graph(3, n), power(2))

    def test_monotone_in_k(self):
        for n in (7, 12):
            values = [ex_prime(n, k, power(2)).value.exact for k in range(1, 6)]
            assert values == sorted(values)

    def test_scale_covariance(self):
        f1 = StepWeight([0, 3, 6], [1, 2, 9])
        f3 = StepWeight([0, 3, 6], [Fraction(3, 7), Fraction(6, 7), Fraction(27, 7)])
        a = ex_prime(12, 3, f1)
        b = ex_prime(12, 3, f3)
        assert b.value.exact == a.value.exact * Fraction(3, 7)
        assert a.witness == b.witness

    def test_ties_flag_exact(self):
        # constant weight: every split of 4 into two parts scores 4*c
        res = ex_prime(4, 2, StepWeight([0], [3]))
        assert res.ties_flag
        assert res.witness == PartSizes([2, 2])

    def test_no_ties_flag_when_unique(self):
        assert not ex_prime(4, 2, power(4)).ties_flag

    def test_exact_on_the_degrees_used(self):
        # f(101) lies inside the climb at seed 100 and is irrational, but no
        # vertex of a graph on 101 vertices has degree 101
        f = parse_weight("staircase:c=0.5,seeds=100,base=1")
        res = ex_prime(101, 2, f)
        via_graph = e_f(complete_multipartite(res.witness), f)
        assert res.value.is_exact and via_graph.is_exact
        assert res.value.exact == via_graph.exact == 101


class TestAgainstFullTable:
    """The DP fills only the entries it reads; the reference fills them all."""

    @pytest.mark.parametrize("weight", REFERENCE_WEIGHTS)
    def test_bit_identical(self, weight):
        f = parse_weight(weight)
        for n in [*range(42), 57, 101, 150]:
            for k in range(1, 9):
                assert _bits(ex_prime(n, k, f)) == _bits(full_table_ex_prime(n, k, f)), (n, k)

    @pytest.mark.parametrize("weight", ["pow:mu=2", "log:floor=0"])
    def test_parts_past_n_are_zero(self, weight):
        f = parse_weight(weight)
        value, witness, ties = _bits(ex_prime(5, 5, f))
        many = ex_prime(5, 10**5, f)
        assert many.k == 10**5
        assert _bits(many) == (value, witness + (0,) * (10**5 - 5), ties)

    # a largest-part bound t >= ceil(m/j) on rows 3 and up regroups these sums
    @pytest.mark.parametrize("n,k,bits", [
        (5, 3, "0x1.71f7b3a6b9187p+2"),
        (5, 4, "0x1.96ca77c922cf9p+2"),
        (13, 3, "0x1.bf999e2324e34p+4"),
    ])
    def test_frozen_float_bits(self, n, k, bits):
        f = parse_weight("log:floor=0")
        assert ex_prime(n, k, f).value.approx.hex() == bits
        assert ex_prime_enumerated(n, k, f).value.approx.hex() == bits


class TestLargeFloatTotals:
    """Totals past 1e7, where one ulp exceeds any fixed tie tolerance of 1e-9."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_bit_identical_to_references(self, k):
        f = parse_weight("pow:mu=3.3")
        for n in range(50, 121):
            assert _bits(ex_prime(n, k, f)) == _bits(full_table_ex_prime(n, k, f)), (n, k)
        for n in (50, 56, 83, 120) if k == 5 else range(50, 121, 3):
            assert _bits(ex_prime_enumerated(n, k, f)) == _bits(generator_ex_prime(n, k, f)), (n, k)

    def test_routines_agree_up_to_rounding(self):
        # the DP and the enumeration add the parts in different orders
        f = parse_weight("pow:mu=3.3")
        a = ex_prime(50, 3, f)
        b = ex_prime_enumerated(50, 3, f)
        assert a.value.approx != b.value.approx
        vals, den = tabulate(f, range(50))
        assert abs(a.value - b.value) <= float_slack(vals, den, 50)
        assert a.witness == b.witness and a.ties_flag == b.ties_flag


class TestEnumeratedOracle:
    @pytest.mark.parametrize("weight", REFERENCE_WEIGHTS)
    def test_bit_identical_to_generators(self, weight):
        f = parse_weight(weight)
        for n in range(61):
            for k in range(1, 6):
                assert _bits(ex_prime_enumerated(n, k, f)) == _bits(generator_ex_prime(n, k, f)), (n, k)

    @pytest.mark.parametrize("weight", ["log:floor=0", "pow:mu=1.5", "pow:mu=0.5"])
    def test_float_value_is_left_to_right_sum(self, weight):
        f = parse_weight(weight)
        for n in range(1, 41):
            for k in range(1, 6):
                res = ex_prime_enumerated(n, k, f)
                assert not res.value.is_exact
                total = 0
                for t in res.witness:
                    if t:
                        total += t * f(n - t)
                assert res.value.approx.hex() == float(total).hex(), (n, k)

    def test_agrees_on_erratum_instance(self):
        assert ex_prime_enumerated(4, 2, power(4)).value.exact == 84

    def test_agrees_on_square(self):
        a = ex_prime(50, 3, power(2))
        b = ex_prime_enumerated(50, 3, power(2))
        assert a.value.exact == b.value.exact
        assert a.witness == b.witness

    def test_single_part(self):
        f = StepWeight([0], [5])
        assert ex_prime_enumerated(9, 1, f).value.exact == 45

    def test_scale_refusal(self):
        with pytest.raises(ScaleLimitError):
            ex_prime_enumerated(500, 2, power(1))
        with pytest.raises(ScaleLimitError):
            ex_prime_enumerated(10, 6, power(1))

    def test_random_cross_check(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randrange(0, 121)
            k = rng.randrange(1, 5)
            f = random_step_weight(rng)
            a = ex_prime(n, k, f)
            b = ex_prime_enumerated(n, k, f)
            assert a.value.exact == b.value.exact, (n, k, f)
            assert a.witness == b.witness, (n, k, f)

    def test_fractional_step_cross_check(self):
        # level denominators 2, 3 and 7: the DP runs on integers over 42
        f = StepWeight([0, 2, 5, 9], [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), 3])
        for n in range(0, 31):
            for k in (2, 3, 4):
                a = ex_prime(n, k, f)
                b = ex_prime_enumerated(n, k, f)
                via_graph = e_f(complete_multipartite(a.witness), f)
                assert a.value.is_exact, (n, k)
                assert a.value.exact == b.value.exact == via_graph.exact, (n, k)
                assert a.witness == b.witness, (n, k)

    def test_float_mode_cross_check(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randrange(0, 60)
            k = rng.randrange(1, 4)
            a = ex_prime(n, k, power(1.5))
            b = ex_prime_enumerated(n, k, power(1.5))
            assert a.value.approx == pytest.approx(b.value.approx, rel=1e-12)
            assert a.witness == b.witness


class TestChainCheck:
    def test_square_weight_at_12(self):
        rep = turan_chain_check(12, 3, power(2), 0.5)
        assert rep.balanced_value.exact == 432
        assert rep.holds_first

    def test_edge_count_formula(self):
        for n in range(2, 20):
            rep = turan_chain_check(n, 3, power(1), 0.5)
            assert rep.balanced_value.exact == 2 * (n * n // 4)

    def test_constant_all_equal(self):
        rep = turan_chain_check(6, 3, StepWeight([0], [1]), 1.0)
        assert rep.optimum.exact == 6
        assert rep.balanced_value.exact == 6
        assert rep.floor_term_r.exact == 6
        assert rep.floor_term_rm1.exact == 6
        assert rep.holds_first and rep.holds_middle_r and rep.holds_middle_rm1
        assert rep.holds_tail_r and rep.holds_tail_rm1

    def test_min_degree_reading_always_holds(self):
        # n*f(min degree of the balanced split) is a true lower bound;
        # the other floor reading can fail, which is why both are reported
        for n in range(3, 40):
            for mu in (1, 2, 3):
                rep = turan_chain_check(n, 3, power(mu), 0.1)
                assert rep.holds_first
                assert rep.holds_middle_rm1

    def test_float_balanced_split_at_its_own_floor(self):
        # 33 + 33 + 33: every vertex has degree 66, so the balanced value
        # and the floor term score one multiset, 99 copies of ln 66, and
        # its correctly rounded sum is the same bits on both sides
        rep = turan_chain_check(99, 4, log_family(), 0.1)
        assert rep.balanced_value.approx == rep.floor_term_rm1.approx
        assert rep.holds_first and rep.holds_middle_rm1

    def test_float_min_degree_reading_holds(self):
        for weight in ("log:floor=0", "pow:mu=0.5", "pow:mu=1.5"):
            f = parse_weight(weight)
            for r in (3, 4, 5):
                for n in range(3, 120, 4):
                    rep = turan_chain_check(n, r, f, 0.1)
                    assert rep.holds_first and rep.holds_middle_rm1, (weight, r, n)

    def test_other_reading_can_fail(self):
        failures = sum(
            not turan_chain_check(n, 3, power(3), 0.1).holds_middle_r
            for n in range(3, 40)
        )
        assert failures > 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            turan_chain_check(10, 2, power(1), 0.5)
        with pytest.raises(ValueError):
            turan_chain_check(10, 3, power(1), 0.0)
