"""Multipartite optimizer: DP against enumeration, witnesses."""

import random
from fractions import Fraction

import pytest

from dwturan import (
    PartSizes,
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
)
from oracles import full_table_ex_prime, generator_ex_prime, random_step_weight, turan_graph

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


def _falling_step_weight(rng):
    """Random step table whose levels rise and fall, some below zero."""
    jumps = [0] + sorted(rng.sample(range(1, 60), rng.randrange(0, 8)))
    return StepWeight(jumps, [rng.randrange(-20, 60) for _ in jumps])


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

    @pytest.mark.parametrize("seed", range(4))
    def test_random_step_tables(self, seed):
        # the oracle's non-decreasing tables, and tables whose levels fall
        # and go negative
        rng = random.Random(seed)
        for _ in range(3):
            for f in (random_step_weight(rng), _falling_step_weight(rng)):
                for n in [*range(31), 57]:
                    for k in range(1, 9):
                        assert _bits(ex_prime(n, k, f)) == _bits(full_table_ex_prime(n, k, f)), \
                            (f, n, k)

    @pytest.mark.parametrize("weight", REFERENCE_WEIGHTS)
    def test_parts_near_n(self, weight):
        # kk reaches n - 1 or n, where the cap on a part, the vertices
        # left over the parts above, is tightest
        f = parse_weight(weight)
        for n in range(31):
            for k in (n - 1, n, n + 3):
                if k >= 1:
                    assert _bits(ex_prime(n, k, f)) == _bits(full_table_ex_prime(n, k, f)), \
                        (n, k)

    @pytest.mark.parametrize("weight", REFERENCE_WEIGHTS)
    def test_many_parts_against_generators(self, weight):
        f = parse_weight(weight)
        for n in range(15):
            for k in (6, 7, 8):
                assert _bits(ex_prime(n, k, f)) == _bits(generator_ex_prime(n, k, f)), (n, k)

    @pytest.mark.parametrize("weight", ["pow:mu=2", "log:floor=0"])
    def test_parts_past_n_are_zero(self, weight):
        f = parse_weight(weight)
        value, witness, ties = _bits(ex_prime(5, 5, f))
        many = ex_prime(5, 10**5, f)
        assert many.k == 10**5
        assert _bits(many) == (value, witness + (0,) * (10**5 - 5), ties)

    # the optimum's exact total correctly rounded; a float DP that summed
    # part products in its own grouping read ...e34p+4 at (13, 3)
    @pytest.mark.parametrize("n,k,bits", [
        (5, 3, "0x1.71f7b3a6b9187p+2"),
        (5, 4, "0x1.96ca77c922cf9p+2"),
        (13, 3, "0x1.bf999e2324e33p+4"),
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
        # the DP and the enumeration add the parts in different orders, in
        # integers, and round the same exact total once
        f = parse_weight("pow:mu=3.3")
        a = ex_prime(50, 3, f)
        b = ex_prime_enumerated(50, 3, f)
        assert a.value.approx == b.value.approx
        assert a.witness == b.witness and a.ties_flag == b.ties_flag


class TestFloatOverflow:
    """pow:mu=364.5 keeps every f(d) finite up to d = 7, but at n = 8 the
    best 4-partite total passes the largest float; at n = 7 it does not."""

    F = "pow:mu=364.5"

    @pytest.mark.parametrize("optimizer", [ex_prime, ex_prime_enumerated])
    def test_overflowed_optimum_refused(self, optimizer):
        with pytest.raises(ValueError, match=r"4-partite optimum at n=8 .*364\.5"):
            optimizer(8, 4, parse_weight(self.F))

    @pytest.mark.parametrize("optimizer", [ex_prime, ex_prime_enumerated])
    def test_exact_optimum_past_float_refused(self, optimizer):
        # an exact total has no float to report either
        with pytest.raises(ValueError, match=r"^the 4-partite optimum at n=8 under "
                                             r"PowerWeight\(mu=400\) overflows float$"):
            optimizer(8, 4, power(400))

    def test_finite_optimum_kept(self):
        f = parse_weight(self.F)
        assert ex_prime(7, 2, f).value.approx == 4.3264407933189366e+283
        assert _bits(ex_prime(7, 2, f)) == _bits(ex_prime_enumerated(7, 2, f))


class TestEnumeratedOracle:
    # base=0.3 and base=1/3 put non-dyadic rationals beside irrational climbs
    @pytest.mark.parametrize("weight", REFERENCE_WEIGHTS + [
        "pow:mu=2.7", "pow:mu=3.3", "staircase:c=0.9,seeds=5,base=0.3",
        "staircase:c=0.5,seeds=25,base=1/3"])
    def test_bit_identical_to_generators(self, weight):
        # the DP, the enumeration, the generators and the witness's own
        # multiset all give the optimum's exact total, correctly rounded
        # in float mode, to the bit
        f = parse_weight(weight)
        for n in range(61):
            for k in range(1, 6):
                res = ex_prime_enumerated(n, k, f)
                assert _bits(res) == _bits(generator_ex_prime(n, k, f)), (n, k)
                assert _bits(res) == _bits(ex_prime(n, k, f)), (n, k)
                witness_value = multipartite_value(res.witness, f)
                assert res.value.approx.hex() == witness_value.approx.hex(), (n, k)

    def test_subnormal_table(self):
        # f(0) = -5e-324 scales the table by 2**1074: integers of about
        # 1,100 bits, on which the DP, the enumeration and the generator
        # oracle still agree to the bit
        f = parse_weight("log:floor=-5e-324")
        for n in range(31):
            for k in range(1, 6):
                dp = ex_prime(n, k, f)
                assert dp.value.is_exact == (n == 0)
                assert _bits(dp) == _bits(ex_prime_enumerated(n, k, f)), (n, k)
                assert _bits(dp) == _bits(generator_ex_prime(n, k, f)), (n, k)

    @pytest.mark.parametrize("weight", ["log:floor=0", "pow:mu=1.5", "pow:mu=0.5"])
    def test_float_value_is_left_to_right_sum(self, weight):
        # the witness's part products added left to right, exactly, and the
        # total correctly rounded once
        f = parse_weight(weight)
        for n in range(1, 41):
            for k in range(1, 6):
                res = ex_prime_enumerated(n, k, f)
                assert not res.value.is_exact
                total = Fraction(0)
                for t in res.witness:
                    if t:
                        total += t * Fraction(f(n - t))
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

