"""Weight functions on vertex degrees and their regularity predicates.

A weight function maps non-negative integers to reals. The shipped families
are non-decreasing: powers x^mu, the halving x/2 (so the weighted total of a
graph is its edge count), a floored logarithm (turning the weighted total
into the log of the degree product), staircase functions that double across
short windows and stay flat in between, and explicit non-decreasing step
tables.

Every family evaluates in float; families whose values are rational also
evaluate exactly (as Fractions), queried per point via ``exact``.
``tabulate`` is the one place that turns a weight into numbers: exact
integers over a common denominator when every requested point is rational,
floats otherwise; ``float_slack`` is the one rule for comparing two totals
of them. The predicate checkers are finite-range scanners: they certify
the scanned range and nothing beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ScaleLimitError

MAX_EXPONENT = 1000  # exact mode computes n ** mu as an integer


class WeightFunction:
    """Base class: a function on non-negative integers.

    Subclasses implement ``__call__`` (float) and may implement ``exact``
    returning a Fraction, or None at points with no rational value.
    """

    def __call__(self, n: int) -> float:
        raise NotImplementedError

    def exact(self, n: int) -> Optional[Fraction]:
        return None

    def spec_string(self) -> str:
        """Round-trippable description in the CLI mini-language."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


@dataclass(frozen=True, repr=False)
class PowerWeight(WeightFunction):
    """x -> x**mu with the convention 0**0 = 1, so mu = 0 counts vertices."""

    mu: float

    def __post_init__(self):
        if not math.isfinite(self.mu) or self.mu < 0:
            raise ValueError(f"pow parameter mu must be finite and non-negative, got {self.mu}")
        if self.mu > MAX_EXPONENT:
            raise ScaleLimitError(f"pow parameter mu={self.mu:g} above limit {MAX_EXPONENT}")

    def __call__(self, n: int) -> float:
        return float(n) ** self.mu

    def exact(self, n: int) -> Optional[Fraction]:
        if self.mu != int(self.mu):
            return None
        return Fraction(n ** int(self.mu))

    def spec_string(self) -> str:
        mu = self.mu
        return f"pow:mu={int(mu) if mu == int(mu) else mu}"


@dataclass(frozen=True, repr=False)
class HalfWeight(WeightFunction):
    """x -> x/2; the weighted total of a graph equals its number of edges."""

    def __call__(self, n: int) -> float:
        return n / 2

    def exact(self, n: int) -> Optional[Fraction]:
        return Fraction(n, 2)

    def spec_string(self) -> str:
        return "half"


@dataclass(frozen=True, repr=False)
class LogWeight(WeightFunction):
    """x -> ln x for x >= 1, with a configurable value at 0.

    Keeping the zero value <= 0 preserves monotonicity. Summing this weight
    over a graph with minimum degree >= 1 gives ln of the degree product.
    """

    floor_at_zero: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.floor_at_zero):
            raise ValueError(f"log parameter floor must be finite, got {self.floor_at_zero}")
        if self.floor_at_zero > 0:
            raise ValueError("value at 0 must be <= 0 to keep the family non-decreasing")

    def __call__(self, n: int) -> float:
        if n == 0:
            return self.floor_at_zero
        return math.log(n)

    def spec_string(self) -> str:
        return f"log:floor={self.floor_at_zero:g}"


@dataclass(frozen=True)
class StaircaseParams:
    """Parameters of a doubling staircase.

    Around each seed n_k the function climbs by the factor 2**(1/m_k) for
    exactly m_k = climb_steps(n_k, c) steps, and is flat everywhere
    else. Seeds must be spread out (2*n_k < n_{k+1}) so that the flat run
    after a climb reaches at least 2*n_k before the next climb starts.
    """

    c: float
    seeds: tuple[int, ...]
    base: Fraction = Fraction(1)

    def __init__(self, c: float, seeds: Sequence[int], base=1):
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        object.__setattr__(self, "base", Fraction(base))
        if not 0 < self.c < 1:
            raise ValueError("exponent c must lie in (0, 1)")
        if self.base <= 0:
            raise ValueError("base value must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        prev = None
        for n_k, m_k in self.windows():
            if m_k < 1:
                raise ValueError(f"seed {n_k} too small: its window would be empty")
            if prev is not None and 2 * prev >= n_k:
                raise ValueError(f"seeds {prev} and {n_k} too close: need 2*{prev} < {n_k}")
            prev = n_k

    def windows(self) -> list[tuple[int, int]]:
        """(seed, step count) per seed; the climb occupies [seed, seed + steps)."""
        return [(n_k, climb_steps(n_k, self.c)) for n_k in self.seeds]


def climb_steps(n_k: int, c: float) -> int:
    """Length m_k = floor(n_k**c / 2) of the staircase climb at seed n_k."""
    return math.floor(n_k ** c / 2)


@dataclass(frozen=True, repr=False)
class StaircaseWeight(WeightFunction):
    """Doubling staircase built from StaircaseParams.

    f(n+1) = 2**(1/m_k) * f(n) for n in [n_k, n_k + m_k), f(n+1) = f(n)
    elsewhere; each climb multiplies the value by exactly 2. Values are
    dyadic-rational multiples of the base outside climbs, so ``exact`` is
    available there; interior points of a climb with m_k >= 2 are
    irrational and evaluate in float only.
    """

    params: StaircaseParams
    _windows: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_windows", tuple(self.params.windows()))

    def _locate(self, n: int) -> tuple[int, int, int]:
        """(completed climbs, step offset, steps of current climb) at n."""
        done = 0
        for n_k, m_k in self._windows:
            if n >= n_k + m_k:
                done += 1
            elif n > n_k:
                return done, n - n_k, m_k
            else:
                break
        return done, 0, 1

    def __call__(self, n: int) -> float:
        done, j, m = self._locate(n)
        return float(self.params.base) * 2.0 ** (done + j / m)

    def exact(self, n: int) -> Optional[Fraction]:
        done, j, m = self._locate(n)
        if j == 0:
            return self.params.base * 2 ** done
        return None

    def spec_string(self) -> str:
        base = self.params.base
        base_str = str(int(base)) if base.denominator == 1 else f"{base.numerator}/{base.denominator}"
        seeds = ";".join(str(s) for s in self.params.seeds)
        return f"staircase:c={self.params.c:g},seeds={seeds},base={base_str}"


@dataclass(frozen=True, repr=False)
class StepWeight(WeightFunction):
    """Explicit right-continuous step table: value levels[i] on [jumps[i], jumps[i+1]).

    jumps must start at 0 and strictly increase; levels are arbitrary
    rationals, so a non-decreasing table gives a non-decreasing weight.
    """

    jumps: tuple[int, ...]
    levels: tuple[Fraction, ...]

    def __init__(self, jumps: Sequence[int], levels: Sequence):
        object.__setattr__(self, "jumps", tuple(int(j) for j in jumps))
        object.__setattr__(self, "levels", tuple(Fraction(v) for v in levels))
        if len(self.jumps) != len(self.levels) or not self.jumps:
            raise ValueError("need matching, non-empty jump and level sequences")
        if self.jumps[0] != 0:
            raise ValueError("first jump must be 0 so the table covers all inputs")
        if any(a >= b for a, b in zip(self.jumps, self.jumps[1:])):
            raise ValueError("jumps must strictly increase")

    def _level(self, n: int) -> Fraction:
        i = 0
        for k, j in enumerate(self.jumps):
            if j <= n:
                i = k
            else:
                break
        return self.levels[i]

    def __call__(self, n: int) -> float:
        return float(self._level(n))

    def exact(self, n: int) -> Optional[Fraction]:
        return self._level(n)

    def spec_string(self) -> str:
        pairs = ";".join(f"{j}:{v}" for j, v in zip(self.jumps, self.levels))
        return f"step:{pairs}"


def power(mu: float) -> WeightFunction:
    return PowerWeight(mu)


def half() -> WeightFunction:
    return HalfWeight()


def log_family(floor_at_zero: float = 0.0) -> WeightFunction:
    return LogWeight(floor_at_zero)


def staircase(params: StaircaseParams) -> WeightFunction:
    return StaircaseWeight(params)


# ---------------------------------------------------------------------------
# numeric layer


def tabulate(f: WeightFunction, points: Sequence[int]) -> tuple[list, Optional[int]]:
    """f at each point, as integers over a common denominator when possible.

    Returns (values, den). When f.exact is rational at every point, den is
    the lcm of the denominators and values[i] == den * f.exact(points[i]),
    as ints, so sums and comparisons of values are exact integer work.
    Otherwise den is None and values[i] == f(points[i]), as floats.
    Exactness is decided on these points only; ObjectiveValue.scaled turns
    a total of values back into a value.
    """
    exact = []
    for p in points:
        x = f.exact(p)
        if x is None:
            return [f(p) for p in points], None
        exact.append(x)
    den = math.lcm(*(x.denominator for x in exact))
    return [x.numerator * (den // x.denominator) for x in exact], den


def float_slack(values: Sequence, den: Optional[int], terms: int) -> float:
    """Widest gap rounding can open between two sums of one total: 0 in
    exact mode, else 2 * terms**2 * eps * max|v| for sums in any order of
    at most ``terms`` values, or of products t * v with counts t adding up
    to at most ``terms``. Recursive summation of m terms is off by at most
    (m - 1) * u * sum|x|, u = eps / 2 (Higham, "Accuracy and Stability of
    Numerical Algorithms", section 4.2).
    """
    if den is not None:
        return 0
    return 2 * terms * terms * math.ulp(1.0) * max(map(abs, values), default=0)


# ---------------------------------------------------------------------------
# predicates


def is_nondecreasing(f: WeightFunction, rng: tuple[int, int]) -> bool:
    """True iff f(i) <= f(i+1) for every i with lo <= i < i+1 <= hi."""
    lo, hi = rng
    vals, _den = tabulate(f, range(lo, hi + 1))
    return all(a <= b for a, b in zip(vals, vals[1:]))


def check_log_continuity(f: WeightFunction, eps: float, delta: float,
                         rng: tuple[int, int]) -> bool:
    """Scan: f(m) <= (1+eps) f(n) for all n in [lo, hi], n <= m <= (1+delta) n.

    For a verified non-decreasing f only the largest m per n needs testing;
    otherwise every m in the stretch window is scanned.
    """
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    lo, hi = rng
    top = math.floor((1 + delta) * hi)
    monotone = is_nondecreasing(f, (lo, top))
    for n in range(lo, hi + 1):
        m_max = math.floor((1 + delta) * n)
        bound = (1 + eps) * f(n)
        if monotone:
            if f(m_max) > bound:
                return False
        else:
            for m in range(n, m_max + 1):
                if f(m) > bound:
                    return False
    return True


def growth_rows(f: WeightFunction, c: float, rng: tuple[int, int]):
    """Yield (n, f(n+1)/f(n), 1 + n**(-c), ratio <= bound) for n in [lo, hi].

    The scan starts at max(lo, 1); every growth verdict is read off these
    rows, in the ratio form they carry.
    """
    if c <= 0:
        raise ValueError("exponent c must be positive")
    lo, hi = rng
    lo = max(lo, 1)
    prev = f(lo)
    for n in range(lo, hi + 1):
        if prev <= 0:
            raise ValueError(f"growth ratio undefined: f({n}) = {prev} is not positive")
        cur = f(n + 1)
        ratio = cur / prev
        bound = 1 + n ** (-c)
        yield n, ratio, bound, ratio <= bound
        prev = cur


def check_growth_bound(f: WeightFunction, c: float, rng: tuple[int, int]) -> bool:
    """Scan: f(n+1)/f(n) <= 1 + n**(-c) for all n in [lo, hi]."""
    ok, _first = growth_bound_profile(f, c, rng)
    return ok


def growth_bound_profile(f: WeightFunction, c: float,
                         rng: tuple[int, int]) -> tuple[bool, Optional[int]]:
    """Like check_growth_bound but also reports the first violating n."""
    first = next((n for n, _r, _b, ok in growth_rows(f, c, rng) if not ok), None)
    return first is None, first


def least_growth_seed(c: float, limit: int) -> Optional[int]:
    """Smallest seed n <= limit whose climb ratio 2**(1/m) fits under 1 + n**(-c).

    m = climb_steps(n, c) as in the staircase family. Returns None when no
    seed up to the limit qualifies; since 2**(1/m) - 1 >= ln2/m >=
    2*ln2*n**(-c) > n**(-c) whenever m = floor(n**c / 2), no seed ever
    does, at any c in (0, 1). The scanner exists to certify that fact on
    concrete ranges.
    """
    if not 0 < c < 1:
        raise ValueError("exponent c must lie in (0, 1)")
    for n in range(2, limit + 1):
        m = climb_steps(n, c)
        if m < 1:
            continue
        if 2 ** (1 / m) <= 1 + n ** (-c):
            return n
    return None


# ---------------------------------------------------------------------------
# mini-language: "pow:mu=2", "half", "log:floor=0",
# "staircase:c=0.5,seeds=9;200;5000,base=1", "step:0:1;5:3"


def parse_weight(text: str) -> WeightFunction:
    """Parse the CLI weight description. Case-sensitive; keys in any order."""
    head, _, tail = text.partition(":")
    if head == "half":
        if tail:
            raise ValueError("'half' takes no parameters")
        return HalfWeight()
    if head == "pow":
        kv = _parse_kv(tail, {"mu"})
        if "mu" not in kv:
            raise ValueError("pow needs mu=<non-negative real>")
        return PowerWeight(float(kv["mu"]))
    if head == "log":
        kv = _parse_kv(tail, {"floor"})
        return LogWeight(float(kv.get("floor", "0")))
    if head == "staircase":
        kv = _parse_kv(tail, {"c", "seeds", "base"})
        missing = {"c", "seeds"} - kv.keys()
        if missing:
            raise ValueError(f"staircase needs {sorted(missing)}")
        seeds = [int(s) for s in kv["seeds"].split(";") if s]
        base = _parse_rational(kv.get("base", "1"))
        return StaircaseWeight(StaircaseParams(float(kv["c"]), seeds, base))
    if head == "step":
        pairs = []
        for item in tail.split(";"):
            if not item:
                continue
            j, _, v = item.partition(":")
            pairs.append((int(j), _parse_rational(v)))
        if not pairs:
            raise ValueError("step needs jump:value pairs")
        return StepWeight([j for j, _ in pairs], [v for _, v in pairs])
    raise ValueError(f"unknown weight family {head!r}")


def _parse_kv(tail: str, allowed: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    if not tail:
        return out
    for item in tail.split(","):
        key, sep, val = item.partition("=")
        if not sep or key not in allowed:
            raise ValueError(f"bad weight parameter {item!r} (allowed: {sorted(allowed)})")
        if key in out:
            raise ValueError(f"duplicate weight parameter {key!r}")
        out[key] = val
    return out


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}") from exc
