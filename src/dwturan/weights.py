"""Weight functions on vertex degrees and their regularity predicates.

A weight function maps non-negative integers to reals. The shipped families
are non-decreasing: powers x^mu, the halving x/2 (so the weighted total of a
graph is its edge count), a floored logarithm (turning the weighted total
into the log of the degree product), staircase functions that double across
short windows and stay flat in between, and explicit non-decreasing step
tables.

Each family states each point once: ``value(n)`` is an int or a Fraction
where f is rational at n, a float only at irrational points (fractional
powers, logarithms, staircase climbs), and calling f rounds it to a float.
``parse_weight`` is the one text form of a weight.

The numeric layer lives here too. ``tabulate`` is the one place that turns
a weight into numbers: integers over one common denominator in every mode,
one ``value`` per point, a float being a dyadic rational (Shewchuk,
Discrete Comput. Geom. 18, 1997). ``ObjectiveValue.scaled`` turns a total
of them into a value: exact, or in float mode correctly rounded. So every
scorer of one multiset (``degree_sum``) agrees to the bit; rounding is
monotone, so values order as exact totals do, up to ties. ``float_slack``
is the margin of the labeled search's float-mode cutoff, whose decisions
are all integer tests. The predicate checkers are finite-range scanners:
they certify the scanned range and nothing beyond it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import count
from typing import Optional, Sequence

from .errors import Record, ScaleLimitError

MAX_EXPONENT = 1000  # exact mode computes n ** mu as an integer


class WeightFunction:
    """Base class: a function on non-negative integers.

    Subclasses implement ``value(n)``: an int or a Fraction where f is
    rational at n, else a float. ``__call__`` is its float, as ``_floats``
    gives it for a run of points.
    """

    def __call__(self, n: int) -> float:
        try:
            return float(self.value(n))
        except OverflowError:
            raise _overflow(self, n) from None

    def value(self, n: int) -> int | Fraction | float:
        raise NotImplementedError


def _floats(f: WeightFunction, points):
    """f(p) at each point, lazily, with no call of f per point. A value
    past the largest float is refused, naming f and the point."""
    value = f.value
    for p in points:
        try:
            yield float(value(p))
        except OverflowError:
            raise _overflow(f, p) from None


def _overflow(f: WeightFunction, n: int) -> OverflowError:
    return OverflowError(f"{f!r} overflows float at degree {n}")


class PowerWeight(WeightFunction, Record):
    """x -> x**mu with the convention 0**0 = 1, so mu = 0 counts vertices."""

    __slots__ = ("mu",)

    def __init__(self, mu: float):
        if not math.isfinite(mu) or mu < 0:
            raise ValueError(f"pow parameter mu must be finite and non-negative, got {mu}")
        if mu > MAX_EXPONENT:
            raise ScaleLimitError(f"pow parameter mu={mu:g} above limit {MAX_EXPONENT}")
        object.__setattr__(self, "mu", mu)

    def value(self, n: int) -> int | float:
        # float ** float can land an ulp off n**mu (9749.0**4), so an integer
        # mu gives the integer, which the float view rounds
        k = int(self.mu)
        return n ** k if k == self.mu else float(n) ** self.mu


class HalfWeight(WeightFunction, Record):
    """x -> x/2; the weighted total of a graph equals its number of edges."""

    __slots__ = ()

    def value(self, n: int) -> Fraction:
        return Fraction(n, 2)


class LogWeight(WeightFunction, Record):
    """x -> ln x for x >= 1, with a configurable value at 0.

    Keeping the zero value <= 0 preserves monotonicity. Summing this weight
    over a graph with minimum degree >= 1 gives ln of the degree product.
    """

    __slots__ = ("floor_at_zero",)

    def __init__(self, floor_at_zero: float = 0.0):
        if not math.isfinite(floor_at_zero):
            raise ValueError(f"log parameter floor must be finite, got {floor_at_zero}")
        if floor_at_zero > 0:
            raise ValueError("value at 0 must be <= 0 to keep the family non-decreasing")
        object.__setattr__(self, "floor_at_zero", floor_at_zero)

    def value(self, n: int) -> float:
        # a float at 0 too: the family is inexact at every point
        return math.log(n) if n else float(self.floor_at_zero)


def climb_steps(n_k: int, c: float) -> int:
    """Length m_k = floor(n_k**c / 2) of the staircase climb at seed n_k."""
    return math.floor(n_k ** c / 2)


class StaircaseWeight(WeightFunction, Record):
    """Doubling staircase with exponent c, seeds n_k and value base before
    the first climb.

    f(n+1) = 2**(1/m_k) * f(n) for n in [n_k, n_k + m_k), with
    m_k = climb_steps(n_k, c), and f(n+1) = f(n) elsewhere; each climb
    multiplies the value by exactly 2. Seeds are positive integers spread
    out (2*n_k < n_{k+1}), so the flat run after a climb reaches at least
    2*n_k before the next climb starts. Outside climbs the value is the
    flat level base * 2**k after k climbs, cached in ``_levels``; interior
    points of a climb with m_k >= 2 are irrational and evaluate in float only.
    """

    # _windows and _levels are derived caches, no fields of their own
    __slots__ = ("c", "seeds", "base", "_windows", "_levels")
    _fields = ("c", "seeds", "base")
    c: float
    seeds: tuple[int, ...]
    base: Fraction

    def __init__(self, c: float, seeds: Sequence[int], base=1):
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "seeds", tuple(seeds))
        object.__setattr__(self, "base", Fraction(base))
        if not 0 < self.c < 1:
            raise ValueError("exponent c must lie in (0, 1)")
        if self.base <= 0:
            raise ValueError("base value must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for n_k in self.seeds:
            if not isinstance(n_k, int) or n_k < 1:
                raise ValueError(f"seed {n_k!r} is not a positive integer")
        windows = tuple(self.windows())
        prev = None
        for n_k, m_k in windows:
            if m_k < 1:
                raise ValueError(f"seed {n_k} too small: its window would be empty")
            if prev is not None and 2 * prev >= n_k:
                raise ValueError(f"seeds {prev} and {n_k} too close: need 2*{prev} < {n_k}")
            prev = n_k
        object.__setattr__(self, "_windows", windows)
        object.__setattr__(self, "_levels",
                           tuple(self.base * 2 ** k for k in range(len(self.seeds) + 1)))

    def windows(self) -> list[tuple[int, int]]:
        """(seed, step count) per seed; the climb occupies [seed, seed + steps)."""
        return [(n_k, climb_steps(n_k, self.c)) for n_k in self.seeds]

    def value(self, n: int) -> Fraction | float:
        done = 0  # completed climbs
        for n_k, m_k in self._windows:
            if n >= n_k + m_k:
                done += 1
            elif n > n_k:
                return float(self.base) * 2.0 ** (done + (n - n_k) / m_k)
            else:
                break
        return self._levels[done]


class StepWeight(WeightFunction, Record):
    """Explicit right-continuous step table: value levels[i] on [jumps[i], jumps[i+1]).

    jumps must start at 0 and strictly increase; levels are arbitrary
    rationals, so a non-decreasing table gives a non-decreasing weight.
    """

    __slots__ = ("jumps", "levels")
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

    def value(self, n: int) -> Fraction:
        return self.levels[bisect_right(self.jumps, n) - 1]


# the families under their short names
power, half, log_family, staircase = PowerWeight, HalfWeight, LogWeight, StaircaseWeight


# ---------------------------------------------------------------------------
# numeric layer


class ObjectiveValue(Record):
    """A weighted-degree total, carried in float and, when possible, exactly.

    Comparisons use the exact values whenever both sides have them, else
    the floats; each float is its total correctly rounded.
    """

    __slots__ = ("approx", "exact")

    def __init__(self, approx: float, exact: Optional[Fraction] = None):
        object.__setattr__(self, "approx", approx)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def of(cls, exact) -> "ObjectiveValue":
        frac = Fraction(exact)
        return cls(approx=float(frac), exact=frac)

    @classmethod
    def approximate(cls, value: float) -> "ObjectiveValue":
        return cls(approx=float(value), exact=None)

    @classmethod
    def scaled(cls, total: int, den: int, exact: bool) -> "ObjectiveValue":
        """total / den for a total of ``tabulate`` values: exact, or in float
        mode correctly rounded by integer true division."""
        if exact:
            return cls.of(Fraction(total, den))
        return cls.approximate(total / den)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def _cmp_key(self, other: "ObjectiveValue"):
        if self.exact is not None and other.exact is not None:
            return self.exact, other.exact
        return self.approx, other.approx

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObjectiveValue):
            return NotImplemented
        a, b = self._cmp_key(other)
        return a == b

    def __lt__(self, other: "ObjectiveValue") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "ObjectiveValue") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: "ObjectiveValue") -> bool:
        return not self <= other

    def __ge__(self, other: "ObjectiveValue") -> bool:
        return not self < other

    def __hash__(self):
        # equal values have equal approx: constructors set it to float(exact)
        return hash(self.approx)

    def as_json(self):
        """int when exactly integral, else float."""
        if self.exact is not None and self.exact.denominator == 1:
            return int(self.exact)
        return self.approx

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"ObjectiveValue({self.exact})"
        return f"ObjectiveValue(~{self.approx})"


def tabulate(f: WeightFunction, points: Sequence[int]) -> tuple[list[int], int, bool]:
    """f at each point, as integers over one common denominator.

    Returns (values, den, exact) with values[i] == den * f.value(points[i]),
    as ints, so sums and comparisons of values are exact integer work. One
    f.value per point: an int or a Fraction, or a float, p/q with q a power
    of two; den is the lcm of their denominators, and exact is True when no
    value is a float. A point's value so depends on that point alone, and
    one degree multiset has one exact total whatever else is tabulated. A
    value not finite or past the largest float is refused, naming f and the point.
    """
    ratios = []
    exact = True
    value = f.value
    for p in points:
        try:
            x = value(p)
        except OverflowError:
            raise _overflow(f, p) from None
        if type(x) is float:
            exact = False
            if not math.isfinite(x):
                raise ValueError(f"{f!r} is {x} at degree {p}, not a finite number")
        ratios.append(x.as_integer_ratio())
    # one lcm and one multiplier per distinct denominator, not per point
    dens = {q for _a, q in ratios}
    den = math.lcm(*dens)
    mult = {q: den // q for q in dens}
    return [a * mult[q] for a, q in ratios], den, exact


def degree_sum(f: WeightFunction, pairs: Sequence[tuple[int, int]]) -> ObjectiveValue:
    """Sum of f over a degree multiset, given as (degree, multiplicity) pairs.

    The exact total of the tabulated values, exact when f is rational at
    every degree given, else correctly rounded, so every scorer of one
    multiset gets the same bits.
    A negative degree or multiplicity is refused, before f is evaluated
    anywhere; a total past the largest float is refused by naming f.
    """
    for d, m in pairs:
        if d < 0 or m < 0:
            raise ValueError(f"degree {d} with multiplicity {m}: both must be non-negative")
    values, den, exact = tabulate(f, [d for d, _m in pairs])
    try:
        return ObjectiveValue.scaled(sum(v * m for v, (_d, m) in zip(values, pairs)), den, exact)
    except OverflowError:
        raise OverflowError(f"the total of {f!r} overflows float") from None


def float_slack(values: Sequence[int], den: int, exact: bool, terms: int) -> float:
    """Margin for a table from tabulate: 0 in exact mode, else
    2 * terms**2 * eps * max|v / den|. It bounds how far a sum of at most
    m = ``terms`` table values rounded to float, in any order, lies from
    their exact total: u * sum|x| for the roundings and (m - 1) * u * sum|x|
    for recursive summation, u = eps / 2 (Higham, "Accuracy and Stability
    of Numerical Algorithms", section 4.2). The labeled search sums no
    floats; its float-mode cutoff still sits this far below the incumbent's
    value, so that it prunes the trees a float sum of the caps pruned.
    """
    if exact:
        return 0
    return 2 * terms * terms * math.ulp(1.0) * (max(map(abs, values), default=0) / den)


# ---------------------------------------------------------------------------
# predicates


def is_nondecreasing(f: WeightFunction, rng: tuple[int, int]) -> bool:
    """True iff f(i) <= f(i+1) for every i with lo <= i < i+1 <= hi, on
    tabulate's integers: each point is f.value, exact where f is rational,
    the table the labeled search reads its monotonicity off."""
    lo, hi = rng
    values, _den, _exact = tabulate(f, range(lo, hi + 1))
    return all(a <= b for a, b in zip(values, values[1:]))


def check_log_continuity(f: WeightFunction, eps: float, delta: float,
                         rng: tuple[int, int]) -> bool:
    """Scan: f(m) <= (1+eps) f(n) for all n in [lo, hi], n <= m <= (1+delta) n.

    Each n is tested against the largest f(m) in its window, which a
    sliding-window maximum keeps: both ends of the window move right as n
    grows, so each point of [lo, (1+delta) hi] enters the window once, and
    the scan takes linear time whether or not f is monotone. f is read once
    per point, as it enters; f(n) waits in ``pending`` until n's turn.
    """
    _require_positive("eps", eps)
    _require_positive("delta", delta)
    lo, hi = rng
    window: deque = deque()  # (m, f(m)) in the window, values decreasing
    pending: deque = deque()  # f(m) of the points entered, from f(n) on
    values = _floats(f, count(lo))
    m = lo  # the next point to enter the window
    for n in range(lo, hi + 1):
        m_max = math.floor((1 + delta) * n)
        while m <= m_max:
            value = next(values)
            while window and window[-1][1] <= value:
                window.pop()
            window.append((m, value))
            pending.append(value)
            m += 1
        while window[0][0] < n:
            window.popleft()
        if window[0][1] > (1 + eps) * pending.popleft():
            return False
    return True


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def growth_rows(f: WeightFunction, c: float, rng: tuple[int, int]):
    """Yield (n, f(n+1)/f(n), 1 + n**(-c), ratio <= bound) for n in [lo, hi].

    The scan starts at max(lo, 1); every growth verdict is read off these
    rows, in the ratio form they carry. The exponent is checked on the call,
    before any row is asked for; the rows themselves come lazily.
    """
    _require_positive("exponent c", c)
    lo, hi = rng
    return _growth_rows(f, c, max(lo, 1), hi)


def _growth_rows(f: WeightFunction, c: float, lo: int, hi: int):
    values = _floats(f, count(lo))
    prev = next(values)
    for n in range(lo, hi + 1):
        if prev <= 0:
            raise ValueError(f"growth ratio undefined: f({n}) = {prev} is not positive")
        cur = next(values)
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
        return PowerWeight(_parse_number("pow", "mu", kv["mu"], float))
    if head == "log":
        kv = _parse_kv(tail, {"floor"})
        return LogWeight(_parse_number("log", "floor", kv.get("floor", "0"), float))
    if head == "staircase":
        kv = _parse_kv(tail, {"c", "seeds", "base"})
        missing = {"c", "seeds"} - kv.keys()
        if missing:
            raise ValueError(f"staircase needs {sorted(missing)}")
        c = _parse_number("staircase", "c", kv["c"], float)
        seeds = [_parse_number("staircase", "seeds", s, int)
                 for s in kv["seeds"].split(";") if s]
        base = _parse_number("staircase", "base", kv.get("base", "1"), Fraction)
        return StaircaseWeight(c, seeds, base)
    if head == "step":
        pairs = []
        for item in tail.split(";"):
            if not item:
                continue
            j, _, v = item.partition(":")
            pairs.append((_parse_number("step", "jump", j, int),
                          _parse_number("step", "value", v, Fraction)))
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


_NUMBER_KINDS = {int: "an integer", float: "a real number", Fraction: "a rational"}


def _parse_number(family: str, key: str, text: str, kind):
    """kind(text), refused with a message naming the family and parameter."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{family} parameter {key} must be {_NUMBER_KINDS[kind]}, "
                         f"got {text!r}") from exc
