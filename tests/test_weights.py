"""Weight families, the staircase construction, and the predicate scanners."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from dwturan import (
    ScaleLimitError,
    StaircaseParams,
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

    def __call__(self, n):
        return 2.0 ** n if n < 1000 else math.inf


class TestFamilies:
    def test_power_basic(self):
        assert power(2)(7) == 49
        assert power(2).exact(7) == 49

    def test_power_zero_convention(self):
        # 0**0 = 1 so the zeroth power counts vertices
        assert power(0)(0) == 1
        assert power(0).exact(0) == 1

    def test_power_fractional_no_exact(self):
        f = power(0.5)
        assert f.exact(4) is None
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
        assert power(MAX_EXPONENT).exact(2) == 2 ** MAX_EXPONENT
        with pytest.raises(ScaleLimitError, match="mu="):
            power(MAX_EXPONENT + 1)
        with pytest.raises(ScaleLimitError):
            parse_weight("pow:mu=1e300")

    def test_half(self):
        assert half().exact(5) == Fraction(5, 2)

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
        assert [f.exact(n) for n in (0, 4, 5, 8, 9, 100)] == [1, 1, 3, 3, 7, 7]


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
            x = f.exact(n)
            if x is not None:
                assert f(n) == float(x), n

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
        assert staircase(StaircaseParams(0.5, (25,), 1))(26) == 2.0 ** 0.5
        assert log_family()(5) == math.log(5)


class TestTabulate:
    """tabulate against per-point f.exact (scaled) or f (float)."""

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
        (staircase(StaircaseParams(0.5, (25,), 1)), [*range(0, 26), *range(27, 60)], 1),
        (staircase(StaircaseParams(0.5, (25,), 1)), range(0, 60), None),
        (staircase(StaircaseParams(0.5, (9, 100), Fraction(1, 3))), range(0, 101), 3),
        (staircase(StaircaseParams(0.5, (9, 100), 1)), range(0, 102), None),
        (_STEP_2_3_7, range(0, 12), 42),
        (_STEP_2_3_7, [5, 0, 5, 2], 42),
        (_STEP_2_3_7, [9, 10, 11], 1),
        (_STEP_2_3_7, [], 1),
    ])
    def test_matches_per_point_values(self, f, points, den):
        vals, got_den = tabulate(f, points)
        assert got_den == den
        if den is None:
            assert any(f.exact(p) is None for p in points)
            assert vals == [f(p) for p in points]
            assert all(type(v) is float for v in vals)
        else:
            assert all(type(v) is int for v in vals)
            assert [Fraction(v, den) for v in vals] == [f.exact(p) for p in points]


class TestDegreeSum:
    """degree_sum against the sum of f over the expanded multiset."""

    @pytest.mark.parametrize("f", [power(2), half(), _STEP_2_3_7])
    def test_exact_total(self, f):
        rng = random.Random(3)
        for _ in range(50):
            pairs = [(rng.randrange(0, 12), rng.randrange(0, 5))
                     for _ in range(rng.randrange(0, 5))]
            value = degree_sum(f, pairs)
            assert value.exact == sum((m * f.exact(d) for d, m in pairs), Fraction(0))

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
            def exact(self, n):
                raise AssertionError(f"evaluated f({n})")

        with pytest.raises(ValueError, match="must be non-negative"):
            degree_sum(Refuses(), pairs)


class TestFloatSlack:
    def test_zero_in_exact_mode(self):
        vals, den = tabulate(power(2), range(50))
        assert float_slack(vals, den, 50) == 0

    def test_formula_in_float_mode(self):
        vals, den = tabulate(power(2.5), range(10))
        assert den is None
        assert float_slack(vals, den, 10) == 2 * 100 * 2.0 ** -52 * 9 ** 2.5
        assert float_slack([], None, 3) == 0
        assert float_slack([-4.0, 1.0], None, 1) == 2 * 2.0 ** -52 * 4

    def test_bounds_reordered_sums(self):
        # these eight values, summed in every order, land on several floats
        vals, den = tabulate(power(3.3), range(120))
        terms = [vals[d] for d in (12, 23, 80, 92, 110, 37, 15, 95)]
        sums = {sum(order) for order in permutations(terms)}
        assert len(sums) > 1
        assert max(sums) - min(sums) <= float_slack(vals, den, len(terms))


class TestStaircase:
    def test_seed_nine(self):
        f = staircase(StaircaseParams(0.5, (9,), 1))
        assert f.exact(8) == 1
        assert f.exact(9) == 1
        assert f.exact(10) == 2
        assert all(f.exact(n) == 2 for n in range(10, 19))

    def test_doubling_law_exact(self):
        # m=2 window (seed 25 at c=1/2): endpoints stay dyadic
        f = staircase(StaircaseParams(0.5, (25,), 1))
        assert f.exact(25) == 1
        assert f.exact(27) == 2
        assert f.exact(26) is None  # interior point, factor sqrt(2)
        assert f(26) == pytest.approx(math.sqrt(2))

    def test_doubling_law_float(self):
        params = StaircaseParams(0.5, (100, 300, 1000), 1)
        f = staircase(params)
        for n_k, m_k in params.windows():
            assert f(n_k + m_k) == pytest.approx(2 * f(n_k), rel=1e-12)

    def test_flat_between_climb_end_and_double(self):
        params = StaircaseParams(0.5, (100, 300), 1)
        f = staircase(params)
        for n_k, m_k in params.windows():
            level = f(n_k + m_k)
            assert all(f(n) == level for n in range(n_k + m_k, 2 * n_k + 1))

    def test_multiple_seeds_stack(self):
        f = staircase(StaircaseParams(0.5, (9, 19), 1))
        assert f.exact(18) == 2
        assert f.exact(21) == 4  # m_2 = floor(sqrt(19)/2) = 2, climb ends at 21

    def test_monotone(self):
        f = staircase(StaircaseParams(0.5, (9, 100, 300), 1))
        assert is_nondecreasing(f, (0, 600))

    def test_rejects_crowded_seeds(self):
        with pytest.raises(ValueError):
            StaircaseParams(0.5, (9, 15), 1)

    def test_rejects_tiny_seed(self):
        with pytest.raises(ValueError):
            StaircaseParams(0.5, (3,), 1)  # floor(sqrt(3)/2) = 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            StaircaseParams(0.5, (100, 9), 1)


class TestNondecreasing:
    def test_power_cube(self):
        assert is_nondecreasing(power(3), (0, 100))

    def test_decreasing_detected(self):
        class Neg(WeightFunction):
            def __call__(self, n):
                return -float(n)

        assert not is_nondecreasing(Neg(), (0, 10))

    def test_staircase_over_double_range(self):
        params = StaircaseParams(0.5, (9, 19, 100), 1)
        f = staircase(params)
        assert is_nondecreasing(f, (0, 2 * 100))


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
            def __call__(self, n):
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
        f = staircase(StaircaseParams(0.5, (10_000,), 1))
        assert check_growth_bound(f, 0.4, (1, 20_000))

    def test_staircase_fails_at_own_exponent(self):
        # 2**(1/m) - 1 >= ln2/m >= 2*ln2*n^-c > n^-c for m = floor(n^c/2),
        # so every climb step violates the bound at the staircase's own c
        f = staircase(StaircaseParams(0.5, (10_000,), 1))
        assert not check_growth_bound(f, 0.5, (1, 20_000))

    def test_ratio_equal_to_bound_passes(self):
        # 48/47 is exactly 1 + 1/47; the product form 47 * (1 + 1/47) rounds
        # below 48, the ratio form the report prints does not
        assert list(growth_rows(power(1), 1, (47, 47))) == [
            (47, 48 / 47, 1 + 47 ** -1, True)]
        assert growth_bound_profile(power(1), 1, (47, 47)) == (True, None)

    def test_profile_reads_the_rows(self):
        f = staircase(StaircaseParams(0.5, (9, 100), 1))
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
        assert f.exact(10) == 2
        assert f.exact(2 * 5000 + 100) == 8

    @pytest.mark.parametrize("bad", [
        "pow", "pow:mu=", "pow:nu=2", "half:x=1", "nosuch:a=1",
        "staircase:c=0.5", "step:", "pow:mu=2,mu=3",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_weight(bad)
