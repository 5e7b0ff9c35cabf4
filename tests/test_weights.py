"""Weight families, the staircase construction, and the predicate scanners."""

import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from dwturan import (
    ScaleLimitError,
    StepWeight,
    WeightFunction,
    check_growth_bound,
    check_log_continuity,
    half,
    is_nondecreasing,
    least_growth_seed,
    log_family,
    parse_weight,
    power,
    staircase,
)
from dwturan import weights
from dwturan.weights import (
    MAX_EXPONENT,
    degree_sum,
    float_slack,
    growth_bound_profile,
    growth_rows,
    tabulate,
)


class _Pow2(WeightFunction):
    """x -> 2**x, capped at inf to dodge float overflow; still blows every bound."""

    def value(self, n):
        return 2.0 ** n if n < 1000 else math.inf


class _NaNAt7(WeightFunction):
    """x -> x, but NaN at 7."""

    def value(self, n):
        return math.nan if n == 7 else float(n)


class _ThirdThenFloat(WeightFunction):
    """Exactly 1/3 at 0; from 1 on, irrational, with the float of 1/3."""

    def value(self, n):
        return Fraction(1, 3) if n == 0 else 1 / 3


class TestFamilies:
    def test_power_basic(self):
        assert power(2)(7) == 49
        assert power(2).value(7) == 49

    def test_power_zero_convention(self):
        # 0**0 = 1 so the zeroth power counts vertices
        assert power(0)(0) == 1
        assert power(0).value(0) == 1

    def test_power_fractional_no_exact(self):
        f = power(0.5)
        assert isinstance(f.value(4), float)
        assert f(4) == 2.0

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError):
            power(-1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_power_rejects_non_finite(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            power(mu)

    def test_power_exponent_limit(self):
        # exact mode would compute n ** mu as an integer
        assert power(MAX_EXPONENT).value(2) == 2 ** MAX_EXPONENT
        with pytest.raises(ScaleLimitError, match="mu="):
            power(MAX_EXPONENT + 1)
        with pytest.raises(ScaleLimitError):
            parse_weight("pow:mu=1e300")

    @pytest.mark.parametrize("mu,degree", [(364.5, 8), (MAX_EXPONENT, 2000)])
    def test_power_float_overflow_names_weight_and_degree(self, mu, degree):
        with pytest.raises(OverflowError,
                           match=rf"^PowerWeight\(mu={mu}\) overflows float at degree {degree}$"):
            power(mu)(degree)

    def test_half(self):
        assert half().value(5) == Fraction(5, 2)

    def test_log_family(self):
        f = log_family()
        assert f(1) == 0.0
        assert f(0) == 0.0
        assert f(8) == pytest.approx(math.log(8))

    def test_log_floor_keeps_monotone(self):
        f = log_family(-5.0)
        assert is_nondecreasing(f, (0, 50))

    def test_log_rejects_positive_floor(self):
        with pytest.raises(ValueError):
            log_family(0.5)

    @pytest.mark.parametrize("text", ["log:floor=nan", "log:floor=-inf", "log:floor=inf"])
    def test_log_rejects_non_finite_floor(self, text):
        with pytest.raises(ValueError, match="floor must be finite"):
            parse_weight(text)

    def test_step_weight(self):
        f = StepWeight([0, 5, 9], [1, 3, 7])
        assert [f.value(n) for n in (0, 4, 5, 8, 9, 100)] == [1, 1, 3, 3, 7, 7]


_STEP_2_3_7 = StepWeight([0, 2, 5, 9], [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), 3])


_SHIPPED = [
    *(pytest.param(parse_weight(text), id=text) for text in (
        *(f"pow:mu={mu}" for mu in (0, 1, 2, 3, 4, 5, 7, 10, 20, 50, 0.5, 2.5)),
        "half", "log:floor=0", "log:floor=-2", "step:0:1/2;2:2/3;5:5/7;9:3",
        "staircase:c=0.5,seeds=9;200;5000,base=1",
        "staircase:c=0.3,seeds=25;400,base=1/3",
    )),
    pytest.param(StepWeight(range(0, 10**4, 7), [Fraction(j, 3) for j in range(0, 10**4, 7)]),
                 id="step:j:j/3 for every 7th j"),
]


class TestFloatAgreesWithExact:
    """A family's float is its exact value rounded, wherever it has one."""

    @pytest.mark.parametrize("f", _SHIPPED)
    def test_float_is_rounded_exact(self, f):
        for n in range(10**4 + 1):
            assert f(n) == float(f.value(n)), n

    def test_pow_rounds_its_integer_points(self):
        # 9749**4 = 9033172039086001 lies halfway between two floats; the
        # float power lands an ulp off on some platforms, the rounding does not
        assert power(4)(9749) == 9033172039086000.0

    def test_half_and_step_bits(self):
        f = half()
        assert all(f(n).hex() == (n / 2).hex() for n in range(10**4 + 1))
        jumps, levels = _STEP_2_3_7.jumps, _STEP_2_3_7.levels
        for n in range(12):
            level = levels[max(i for i, j in enumerate(jumps) if j <= n)]
            assert _STEP_2_3_7(n).hex() == float(level).hex()

    def test_irrational_points_keep_the_float_formula(self):
        assert power(2.5)(7) == 7.0 ** 2.5
        # seed 25 at c=1/2 climbs in two steps through 2**(1/2)
        assert staircase(0.5, (25,), 1)(26) == 2.0 ** 0.5
        assert log_family()(5) == math.log(5)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


_FROZEN_POINTS = {"0..399": range(400),
                  "scattered": [26, 0, 7, 10100, 3, 199, 200, 5100, 26, 1, 11000]}


class TestFrozenTables:
    """tabulate and the float view of every shipped family, frozen: the bit
    length of den, the exact flag, and digests of (values, den, exact) and
    of the floats' hex, over two fixed point sets."""

    FROZEN = [
        ("pow:mu=0", "0..399", 1, True, "075d314df6f96065", "efc7c34a392042e2"),
        ("pow:mu=0", "scattered", 1, True, "ab3d5f748bfee996", "50429ec56877be25"),
        ("pow:mu=1", "0..399", 1, True, "24cc9beee632ecd0", "11fbb3f9c9f7c13a"),
        ("pow:mu=1", "scattered", 1, True, "b1a76005362fe017", "61dc00de6c397573"),
        ("pow:mu=2", "0..399", 1, True, "0b9e8d025741a469", "3bbc82e9b07e2889"),
        ("pow:mu=2", "scattered", 1, True, "9a7d0f3dc327713b", "be2970f6e7a99309"),
        ("pow:mu=3", "0..399", 1, True, "8752c8a0144cd2e6", "f996c1593ad4d516"),
        ("pow:mu=3", "scattered", 1, True, "4eb1ec126a35de33", "a70f1ecea21e8225"),
        ("pow:mu=10", "0..399", 1, True, "80df5a3c031aea7b", "bf38169f5fb88994"),
        ("pow:mu=10", "scattered", 1, True, "cc1363b6a29fb97d", "251120463b325e01"),
        ("pow:mu=0.5", "0..399", 53, False, "3d2cce8e5cd1f179", "2d12c0aa766b0dff"),
        ("pow:mu=0.5", "scattered", 52, False, "3f4d2caf636b9d24", "00493561f6de25a5"),
        ("pow:mu=2.5", "0..399", 51, False, "2285bf6f8c61aa49", "1910fffbb17129ed"),
        ("pow:mu=2.5", "scattered", 46, False, "d9be5f7cca8e9573", "9d4ff34f21088117"),
        ("half", "0..399", 2, True, "2fa4be4479becfde", "a621fdd98f464c00"),
        ("half", "scattered", 2, True, "ff72e21bb14a6850", "b1cb77e74cc6e0c7"),
        ("log:floor=0", "0..399", 54, False, "7334d40fb2218485", "78cf98e410adf7f5"),
        ("log:floor=0", "scattered", 53, False, "2f9bb6c06ea06363", "9f5aae44039dc1d7"),
        ("log:floor=-2", "0..399", 54, False, "c2ce87c50c57cf5b", "eae37720d28c966d"),
        ("log:floor=-2", "scattered", 53, False, "9bda7df2a340b64e", "2da5f5cd01295d98"),
        ("log:floor=-5e-324", "0..399", 1075, False, "cdcc3d901e1c49c7", "e19407691b1acf52"),
        ("log:floor=-5e-324", "scattered", 1075, False, "90d605e0510da6ad", "04d629b9afefd3c5"),
        ("staircase:c=0.5,seeds=9;200;5000,base=1", "0..399", 52, False,
         "cf11332ee0e515ff", "85c51dce803e5e1c"),
        ("staircase:c=0.5,seeds=9;200;5000,base=1", "scattered", 1, True,
         "8fa217a3735f95d0", "754228c752ff8b2b"),
        ("staircase:c=0.3,seeds=25;400,base=1/3", "0..399", 2, True,
         "a8449168acfd2c1a", "cff5199098352a78"),
        ("staircase:c=0.3,seeds=25;400,base=1/3", "scattered", 2, True,
         "1bea39634e90df54", "74d4b2ca71e0662e"),
        ("staircase:c=0.5,seeds=9;100,base=1/3", "0..399", 55, False,
         "11cfd13f9a0e21fe", "f145a2a381abe46c"),
        ("staircase:c=0.5,seeds=9;100,base=1/3", "scattered", 2, True,
         "940d880c69b783c7", "fa7fbd895f2915ef"),
        ("staircase:c=0.9,seeds=5,base=0.3", "0..399", 57, False,
         "d0ffcfa3f9650853", "d1db19606555031f"),
        ("staircase:c=0.9,seeds=5,base=0.3", "scattered", 4, True,
         "bdca1343961962be", "d66329422bcbd65a"),
        ("step:0:1/2;2:2/3;5:5/7;9:3", "0..399", 6, True, "a148ec466f14580d", "508a7a0eee2ed5e3"),
        ("step:0:1/2;2:2/3;5:5/7;9:3", "scattered", 6, True, "4c50b17527158660", "e590b074d30e0e06"),
        ("step:0:0;3:1;5:3", "0..399", 1, True, "2c49bde3f94a7f66", "f00c94568ebf7b51"),
        ("step:0:0;3:1;5:3", "scattered", 1, True, "0348d5f5b8eeb6e2", "f8e8deb5826dbf92"),
    ]

    @pytest.mark.parametrize("text,points,den_bits,exact,table,floats", FROZEN)
    def test_table_and_floats_unchanged(self, text, points, den_bits, exact, table, floats):
        f = parse_weight(text)
        pts = _FROZEN_POINTS[points]
        got = tabulate(f, pts)
        assert (got[1].bit_length(), got[2]) == (den_bits, exact)
        assert _digest(got) == table
        assert _digest([f(p).hex() for p in pts]) == floats

    def test_pow_refusal_unchanged(self):
        with pytest.raises(OverflowError,
                           match=r"^PowerWeight\(mu=364\.5\) overflows float at degree 8$"):
            tabulate(parse_weight("pow:mu=364.5"), range(12))


def test_families_state_each_point_once():
    # every shipped family states value alone; the base class holds the one
    # float view, so no family's float can disagree with its value
    families = {cls for cls in vars(weights).values()
                if isinstance(cls, type) and issubclass(cls, WeightFunction)
                and cls is not WeightFunction}
    assert len(families) == 5
    for cls in families:
        assert "value" in vars(cls), cls
        assert "exact" not in vars(cls) and "__call__" not in vars(cls), cls


class TestOverflowNamed:
    """Past the largest float, tabulate, the float view and degree_sum name f
    (and the degree, where one point is at fault) for every family."""

    @pytest.mark.parametrize("text,points,degree", [
        ("pow:mu=364.5", range(12), 8),
        # seed 25 at c=1/2: degree 26 is the one irrational point
        ("staircase:c=0.5,seeds=25,base=1e400", range(30), 26),
    ])
    def test_tabulate(self, text, points, degree):
        f = parse_weight(text)
        with pytest.raises(OverflowError,
                           match=rf"^{re.escape(repr(f))} overflows float at degree {degree}$"):
            tabulate(f, points)

    @pytest.mark.parametrize("text,degree", [
        ("pow:mu=364.5", 8), ("pow:mu=1000", 2000), ("staircase:c=0.5,seeds=9,base=1e400", 0),
        ("staircase:c=0.5,seeds=25,base=1e400", 26), ("step:0:1;5:1e400", 5),
    ])
    def test_float_view(self, text, degree):
        f = parse_weight(text)
        with pytest.raises(OverflowError,
                           match=rf"^{re.escape(repr(f))} overflows float at degree {degree}$"):
            f(degree)

    @pytest.mark.parametrize("text,pairs", [
        ("half", [(10 ** 309, 1)]), ("step:0:1e308", [(11, 10)]),
        ("staircase:c=0.5,seeds=9,base=1e308", [(11, 10)]),
    ])
    def test_degree_sum_total(self, text, pairs):
        # every value is exact and finite; only the total passes the largest float
        f = parse_weight(text)
        with pytest.raises(OverflowError,
                           match=rf"^the total of {re.escape(repr(f))} overflows float$"):
            degree_sum(f, pairs)


class TestTabulate:
    """tabulate against per-point f.value, scaled to integers over one
    denominator; den None below marks float mode."""

    @pytest.mark.parametrize("f,points,den", [
        (power(2), range(0, 40), 1),
        (power(0), range(0, 5), 1),
        (power(2.5), range(0, 40), None),
        (half(), range(0, 40), 2),
        (half(), [4, 0, 8, 4], 1),  # even degrees only: integral halves
        (half(), [4, 3], 2),
        (log_family(), range(0, 40), None),
        (log_family(-2.0), [0], None),
        # seed 25 at c=1/2 climbs in two steps: 26 is irrational, 25 and 27 are not
        (staircase(0.5, (25,), 1), [*range(0, 26), *range(27, 60)], 1),
        (staircase(0.5, (25,), 1), range(0, 60), None),
        (staircase(0.5, (9, 100), Fraction(1, 3)), range(0, 101), 3),
        (staircase(0.5, (9, 100), 1), range(0, 102), None),
        (_STEP_2_3_7, range(0, 12), 42),
        (_STEP_2_3_7, [5, 0, 5, 2], 42),
        (_STEP_2_3_7, [9, 10, 11], 1),
        (_STEP_2_3_7, [], 1),
        # float mode keeps the rational points' values: 1/3 and 3/10, not
        # their floats
        (staircase(0.5, (9, 100), Fraction(1, 3)), range(0, 102), None),
        (parse_weight("staircase:c=0.9,seeds=5,base=0.3"), range(0, 8), None),
    ])
    def test_matches_per_point_values(self, f, points, den):
        vals, got_den, exact = tabulate(f, points)
        assert all(type(v) is int for v in vals)
        assert exact == (den is not None)
        if den is None:
            assert any(isinstance(f.value(p), float) for p in points)
            # the rational values and the floats exactly, over the lcm of
            # their denominators
            want = [Fraction(f.value(p)) for p in points]
            assert got_den == math.lcm(*(x.denominator for x in want))
            assert [Fraction(v, got_den) for v in vals] == want
            assert [v / got_den for v in vals] == [f(p) for p in points]
        else:
            assert got_den == den
            assert [Fraction(v, den) for v in vals] == [f.value(p) for p in points]

    @pytest.mark.parametrize("f,point,shown", [(_Pow2(), 1000, "inf"), (_NaNAt7(), 7, "nan")])
    def test_non_finite_float_refused_by_name(self, f, point, shown):
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(f))} is {shown} "
                                             rf"at degree {point}, not a finite number$"):
            tabulate(f, range(point + 2))

    def test_subnormal_table(self):
        # log:floor=-5e-324 puts the least subnormal at degree 0: the scale
        # is 2**1074 and every value an integer of about 1,100 bits
        f = parse_weight("log:floor=-5e-324")
        vals, den, exact = tabulate(f, range(30))
        assert not exact and den == 2 ** 1074
        assert vals[0] == -1
        assert [v / den for v in vals] == [f(p) for p in range(30)]


class TestDegreeSum:
    """degree_sum against the sum of f over the expanded multiset."""

    @pytest.mark.parametrize("f", [power(2), half(), _STEP_2_3_7])
    def test_exact_total(self, f):
        rng = random.Random(3)
        for _ in range(50):
            pairs = [(rng.randrange(0, 12), rng.randrange(0, 5))
                     for _ in range(rng.randrange(0, 5))]
            value = degree_sum(f, pairs)
            assert value.exact == sum((m * f.value(d) for d, m in pairs), Fraction(0))

    @pytest.mark.parametrize("weight", ["log:floor=0", "pow:mu=0.5", "pow:mu=3.3"])
    def test_float_total_ignores_grouping(self, weight):
        # the correctly rounded sum: splitting or reordering the pairs keeps its bits
        f = parse_weight(weight)
        rng = random.Random(4)
        for _ in range(50):
            pairs = [(rng.randrange(1, 120), rng.randrange(0, 40))
                     for _ in range(rng.randrange(1, 6))]
            singles = [(d, 1) for d, m in pairs for _ in range(m)]
            rng.shuffle(singles)
            value = degree_sum(f, pairs)
            assert not value.is_exact
            assert value.approx.hex() == math.fsum(f(d) for d, _ in singles).hex()
            assert degree_sum(f, singles).approx.hex() == value.approx.hex()

    def test_empty_multiset(self):
        assert degree_sum(log_family(), []).exact == 0

    @pytest.mark.parametrize("pairs", [[(-1, 0)], [(3, -1)], [(2, 2), (-5, -2)]])
    def test_negative_refused_before_evaluating_f(self, pairs):
        class Refuses(WeightFunction):
            def value(self, n):
                raise AssertionError(f"evaluated f({n})")

        with pytest.raises(ValueError, match="must be non-negative"):
            degree_sum(Refuses(), pairs)


class TestFloatSlack:
    def test_zero_in_exact_mode(self):
        assert float_slack(*tabulate(power(2), range(50)), 50) == 0

    def test_formula_in_float_mode(self):
        vals, den, exact = tabulate(power(2.5), range(10))
        assert not exact
        assert float_slack(vals, den, exact, 10) == 2 * 100 * 2.0 ** -52 * 9 ** 2.5
        assert float_slack([], 1, False, 3) == 0
        assert float_slack([-8, 2], 2, False, 1) == 2 * 2.0 ** -52 * 4

    def test_bounds_reordered_sums(self):
        # these eight values, summed in every order, land on several floats
        vals, den, exact = tabulate(power(3.3), range(120))
        terms = [vals[d] / den for d in (12, 23, 80, 92, 110, 37, 15, 95)]
        sums = {sum(order) for order in permutations(terms)}
        assert len(sums) > 1
        assert max(sums) - min(sums) <= float_slack(vals, den, exact, len(terms))


class TestStaircase:
    def test_seed_nine(self):
        f = staircase(0.5, (9,), 1)
        assert f.value(8) == 1
        assert f.value(9) == 1
        assert f.value(10) == 2
        assert all(f.value(n) == 2 for n in range(10, 19))

    def test_doubling_law_exact(self):
        # m=2 window (seed 25 at c=1/2): endpoints stay dyadic
        f = staircase(0.5, (25,), 1)
        assert f.value(25) == 1
        assert f.value(27) == 2
        assert isinstance(f.value(26), float)  # interior point, factor sqrt(2)
        assert f(26) == pytest.approx(math.sqrt(2))

    def test_doubling_law_float(self):
        f = staircase(0.5, (100, 300, 1000), 1)
        for n_k, m_k in f.windows():
            assert f(n_k + m_k) == pytest.approx(2 * f(n_k), rel=1e-12)

    def test_flat_between_climb_end_and_double(self):
        f = staircase(0.5, (100, 300), 1)
        for n_k, m_k in f.windows():
            level = f(n_k + m_k)
            assert all(f(n) == level for n in range(n_k + m_k, 2 * n_k + 1))

    def test_multiple_seeds_stack(self):
        f = staircase(0.5, (9, 19), 1)
        assert f.value(18) == 2
        assert f.value(21) == 4  # m_2 = floor(sqrt(19)/2) = 2, climb ends at 21

    def test_monotone(self):
        f = staircase(0.5, (9, 100, 300), 1)
        assert is_nondecreasing(f, (0, 600))

    def test_rejects_crowded_seeds(self):
        with pytest.raises(ValueError):
            staircase(0.5, (9, 15), 1)

    def test_rejects_tiny_seed(self):
        with pytest.raises(ValueError):
            staircase(0.5, (3,), 1)  # floor(sqrt(3)/2) = 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            staircase(0.5, (100, 9), 1)


class TestNondecreasing:
    def test_power_cube(self):
        assert is_nondecreasing(power(3), (0, 100))

    def test_decreasing_detected(self):
        class Neg(WeightFunction):
            def value(self, n):
                return -float(n)

        assert not is_nondecreasing(Neg(), (0, 10))

    def test_staircase_over_double_range(self):
        f = staircase(0.5, (9, 19, 100), 1)
        assert is_nondecreasing(f, (0, 2 * 100))

    def test_exact_values_compared_exactly(self):
        # 1 + 2**-60 and 1 round to one float, but the exact values decrease
        f = StepWeight([0, 1, 2], [1, 1 + Fraction(1, 2 ** 60), 1])
        assert f(1) == f(2)
        assert not is_nondecreasing(f, (0, 2))
        assert is_nondecreasing(f, (0, 1))

    def test_mixed_exact_and_float_compared_as_tabulated(self):
        # exactly 1/3 at 0, the float just below 1/3 from 1 on: the floats
        # tie, but the table the search reads monotonicity off drops
        f = _ThirdThenFloat()
        assert f(0) == f(1)
        values, _den, _exact = tabulate(f, range(3))
        assert values[0] > values[1]
        assert not is_nondecreasing(f, (0, 2))
        assert is_nondecreasing(f, (1, 2))


class TestLogContinuity:
    def test_square_passes_at_matching_eps(self):
        # (1.1)^2 = 1.21, so eps 0.21 absorbs delta 0.1 exactly
        assert check_log_continuity(power(2), 0.21, 0.1, (1, 10_000))

    def test_square_fails_below(self):
        assert not check_log_continuity(power(2), 0.20, 0.1, (1, 10_000))

    def test_exponential_fails(self):
        assert not check_log_continuity(_Pow2(), 1.0, 0.01, (1, 10_000))

    def test_constant_passes(self):
        assert check_log_continuity(power(0), 0.01, 5.0, (1, 1000))

    def test_non_monotone_scans_every_m(self):
        # f is 1 except f(11) = 5. With delta 0.5 the window of n ends at
        # floor(1.5 n), which is never 11, so only the scan over every m of
        # the window (n = 8, 9, 10) can see the bump
        f = StepWeight([0, 11, 12], [1, 5, 1])
        assert not is_nondecreasing(f, (1, 30))
        assert not check_log_continuity(f, 3.9, 0.5, (1, 20))
        assert check_log_continuity(f, 4.0, 0.5, (1, 20))

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.21, 0.5, 1.0, 1.25])
    @pytest.mark.parametrize("mu", [1, 2, 3])
    def test_power_witness_delta(self, eps, mu):
        # delta = (1+eps)^(1/mu) - 1 makes the power weight pass exactly
        delta = (1 + eps) ** (1 / mu) - 1
        assert check_log_continuity(power(mu), eps, delta, (1, 100_000))

    @pytest.mark.parametrize("eps, delta, name", [
        (math.nan, 0.5, "eps"), (math.inf, 0.5, "eps"), (0.0, 0.5, "eps"),
        (1.0, math.nan, "delta"), (1.0, math.inf, "delta"), (1.0, -0.5, "delta"),
    ])
    def test_rejects_parameters_not_finite_and_positive(self, eps, delta, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            check_log_continuity(power(2), eps, delta, (1, 10))

    def test_window_maximum_matches_every_m(self):
        # the sliding maximum against a scan of every m of every window
        rng = random.Random(7)
        for _ in range(200):
            jumps = [0] + sorted(rng.sample(range(1, 40), rng.randrange(0, 6)))
            f = StepWeight(jumps, [rng.randrange(0, 6) for _ in jumps])
            eps, delta = rng.choice([0.2, 1.0, 3.0]), rng.choice([0.1, 0.5, 2.0])
            lo, hi = rng.randrange(0, 10), rng.randrange(10, 40)
            every_m = all(f(m) <= (1 + eps) * f(n) for n in range(lo, hi + 1)
                          for m in range(n, math.floor((1 + delta) * n) + 1))
            assert check_log_continuity(f, eps, delta, (lo, hi)) is every_m

    def test_evaluates_each_point_at_most_twice(self):
        # f alternates 1, 2 and passes at eps = 1, so every window is read;
        # a scan of every m per window would evaluate f about 500 000 times
        calls = []

        class Alternating(WeightFunction):
            def value(self, n):
                calls.append(n)
                return 1.0 + n % 2

        assert check_log_continuity(Alternating(), 1.0, 1.0, (1, 1000))
        assert len(calls) <= 2000 + 1000


class TestGrowthBound:
    def test_exponential_fails(self):
        assert not check_growth_bound(_Pow2(), 0.5, (1, 100))

    def test_constant_passes(self):
        assert check_growth_bound(power(0), 0.5, (1, 100))

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            check_growth_bound(StepWeight([0, 5], [0, 1]), 0.5, (1, 10))

    def test_staircase_passes_below_its_exponent(self):
        # with seeds this large the climb ratio 2**(1/m) ~ 1 + 1.386*n^-0.5
        # sits under the looser bound 1 + n^-0.4
        f = staircase(0.5, (10_000,), 1)
        assert check_growth_bound(f, 0.4, (1, 20_000))

    def test_staircase_fails_at_own_exponent(self):
        # 2**(1/m) - 1 >= ln2/m >= 2*ln2*n^-c > n^-c for m = floor(n^c/2),
        # so every climb step violates the bound at the staircase's own c
        f = staircase(0.5, (10_000,), 1)
        assert not check_growth_bound(f, 0.5, (1, 20_000))

    def test_ratio_equal_to_bound_passes(self):
        # 48/47 is exactly 1 + 1/47; the product form 47 * (1 + 1/47) rounds
        # below 48, the ratio form the report prints does not
        assert list(growth_rows(power(1), 1, (47, 47))) == [
            (47, 48 / 47, 1 + 47 ** -1, True)]
        assert growth_bound_profile(power(1), 1, (47, 47)) == (True, None)

    def test_profile_reads_the_rows(self):
        f = staircase(0.5, (9, 100), 1)
        rows = list(growth_rows(f, 0.5, (1, 300)))
        first = next(n for n, _ratio, _bound, ok in rows if not ok)
        assert growth_bound_profile(f, 0.5, (1, 300)) == (False, first) == (False, 9)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_exponent_not_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="^exponent c must be finite and positive"):
            list(growth_rows(power(2), c, (1, 4)))
        with pytest.raises(ValueError, match="^exponent c must be finite and positive"):
            check_growth_bound(power(2), c, (1, 4))

    def test_exponent_checked_on_the_call(self):
        # no row is asked for: the refusal may not wait for the first next()
        with pytest.raises(ValueError, match="^exponent c must be finite and positive"):
            growth_rows(power(2), math.nan, (1, 4))

    def test_no_seed_passes_at_own_exponent(self):
        for c in (0.3, 0.5, 0.7):
            assert least_growth_seed(c, 200_000) is None


class TestParser:
    @pytest.mark.parametrize("text,probe,expected", [
        ("pow:mu=2", 5, 25.0),
        ("pow:mu=4", 3, 81.0),
        ("half", 7, 3.5),
        ("log:floor=0", 1, 0.0),
        ("step:0:1;5:3", 6, 3.0),
    ])
    def test_parse_and_eval(self, text, probe, expected):
        assert parse_weight(text)(probe) == expected

    def test_parse_staircase(self):
        f = parse_weight("staircase:c=0.5,seeds=9;200;5000,base=1")
        assert f.value(10) == 2
        assert f.value(2 * 5000 + 100) == 8

    @pytest.mark.parametrize("bad", [
        "pow", "pow:mu=", "pow:nu=2", "half:x=1", "nosuch:a=1",
        "staircase:c=0.5", "step:", "pow:mu=2,mu=3",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_weight(bad)
