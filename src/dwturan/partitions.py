"""Exact optimization of weighted complete multipartite graphs.

For a fixed weight f and order n, a complete multipartite graph with part
sizes n_1..n_k scores sum_i n_i * f(n - n_i): every vertex in a part of
size s has degree n - s. The optimizer maximizes this over all size
vectors with a fixed number of parts (zero parts allowed, so k parts
subsume fewer) by dynamic programming; an exhaustive enumerator over
non-increasing vectors serves as an independent cross-check.

The DP fills only the cells its result reads. With k > n it runs on n
parts (at most n parts are non-empty) and pads the witness with zeros.
Each row j scans only a largest last part t from ceil(m/j) up to
(n-m)/(k-j), as the k-j parts placed above it are each at least t, and
stops at the sum of the j smallest parts of the balanced vector, which
every other vector majorizes. One pass over a row gives both its values
and the smallest part that leads each of them.

Rows are cut further by a Jensen bound. With g the least concave majorant
of t*f(n-t), j parts holding m vertices score at most j*g(m/j), so no
optimal vector puts m vertices in j parts unless j*g(m/j) +
(k-j)*g((n-m)/(k-j)) reaches the balanced vector's total. Row j fills only
that interval of m, found by binary search with exact integer tests. The
cells it drops hold no optimal filling, so value, witness and ties are
those of the full DP. Where t*f(n-t) is strictly concave around n/k, as
for f = x^2 or log, a row keeps about one cell.

Arithmetic runs in exact integers in every mode: weights.tabulate scales
f(0..n-1) to a common denominator, the lcm of the denominators of f's
exact values where rational and of its floats elsewhere. Ties are exact,
and a float-mode value is the optimum's exact total correctly rounded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import add

from .errors import InvariantViolation, Record, ScaleLimitError
from .graphs import PartSizes
from .weights import ObjectiveValue, WeightFunction, degree_sum, tabulate

_ENUM_MAX_N = 200
_ENUM_MAX_K = 5


class PartitionOptimum(Record):
    """Optimal value and the realizing part-size vector.

    The witness is the lexicographically smallest non-increasing optimal
    vector, always of length k (zero parts included). ties_flag reports
    whether another vector ties with it exactly, in every mode.
    """

    __slots__ = ("value", "witness", "n", "k", "f", "ties_flag")
    value: ObjectiveValue
    witness: PartSizes
    n: int
    k: int
    f: WeightFunction
    ties_flag: bool


def _part_values(n: int, f: WeightFunction):
    """(value, den, exact): value[t] = t * f(n - t) for t in 0..n, integers
    over den, from tabulate.

    A zero part contributes 0 regardless of f(n), so value[0] = 0 and only
    f(0..n-1) is evaluated.
    """
    table, den, exact = tabulate(f, range(n))
    return [0] + [t * table[n - t] for t in range(1, n + 1)], den, exact


def _optimum_value(total: int, den: int, exact: bool, n: int, k: int,
                   f: WeightFunction) -> ObjectiveValue:
    """The optimum as a value; one past the largest float is refused by name."""
    try:
        return ObjectiveValue.scaled(total, den, exact)
    except OverflowError:
        raise ValueError(f"the {k}-partite optimum at n={n} under {f!r} "
                         f"overflows float") from None


def multipartite_value(parts, f: WeightFunction) -> ObjectiveValue:
    """Score of the complete multipartite graph with the given part sizes:
    the t vertices of a part of size t have degree n - t."""
    sizes = [t for t in parts if t]
    n = sum(sizes)
    return degree_sum(f, [(n - t, t) for t in sizes])


def _concave_majorant(vals) -> tuple[list[int], list[int]]:
    """Vertices (xs[i], ys[i]) of the least concave majorant of the points
    (t, vals[t]), left to right: their upper hull, built in one
    monotone-chain pass that drops each vertex on or below a chord."""
    xs, ys = [0], [vals[0]]
    for t in range(1, len(vals)):
        v = vals[t]
        while len(xs) > 1 and (ys[-1] - ys[-2]) * (t - xs[-2]) <= (v - ys[-2]) * (xs[-1] - xs[-2]):
            xs.pop()
            ys.pop()
        xs.append(t)
        ys.append(v)
    return xs, ys


def _kept_rows(n: int, kk: int, vals) -> list[tuple[int, int]]:
    """For rows j = 0..kk-1, the first and last m that row j fills.

    The last is the sum of the j smallest balanced parts, the most that
    the j smallest parts of any kk-vector hold, as every other vector
    majorizes the balanced one. Below it, the m with
    j*g(m/j) + (kk-j)*g((n-m)/(kk-j)) at least the balanced total, g the
    least concave majorant of vals, form an interval up to it, since the
    left side is concave in m and reaches that total at the balanced sum;
    a binary search finds the first, each test exact in cross-multiplied
    integers.
    """
    kept = [(0, 0)]
    if kk == 1:
        return kept
    xs, ys = _concave_majorant(vals)
    end = len(xs) - 1
    q, r = divmod(n, kk)
    balanced_total = (kk - r) * vals[q] + r * vals[q + 1]

    def scaled(p: int, d: int) -> tuple[int, int]:
        """d * g(p/d) as a numerator over a positive denominator."""
        i = min(bisect_right(xs, p // d), end)  # xs[i-1] <= p/d <= xs[i]
        a, b = xs[i - 1], xs[i]
        return d * ys[i - 1] * (b - a) + (ys[i] - ys[i - 1]) * (p - d * a), b - a

    def reaches(j: int, m: int) -> bool:
        num, den = scaled(m, j)
        num_top, den_top = scaled(n - m, kk - j)
        return num * den_top + num_top * den >= balanced_total * den * den_top

    for j in range(1, kk):
        balanced = j * q + max(0, j - (kk - r))  # the j smallest balanced parts
        first = bisect_left(range(balanced), True, key=lambda m: reaches(j, m))
        kept.append((first, balanced))
    return kept


def ex_prime(n: int, k: int, f: WeightFunction) -> PartitionOptimum:
    """Maximum score over all complete k-partite graphs of order n.

    DP over (parts used, vertices placed): best[j][m] = max over the size t
    of the j-th part of best[j-1][m-t] + t*f(n-t). Only what the result
    reads is filled. Parts past n add only zeros, so the table has
    kk = min(k, max(n, 1)) levels and the witness gets k - kk zero parts.
    Rows 1..kk-1 are filled, and row kk at m = n only. Row j scans
    t >= ceil(m/j) only, as integer sums do not depend on order and so may
    put the largest part last. Below row kk, t is also at most
    (n-m)//(kk-j), since the kk-j parts above it are each at least t and
    hold the other n-m vertices: every non-increasing vector is still
    scanned and every scanned one is a k-partition. So the j parts placed
    are the smallest of a kk-vector, and row j stops at the sum of the j
    smallest balanced parts, the most they can hold.

    Row j fills only the m of its Jensen interval (_kept_rows), and each
    cell scans only the t whose rest m - t lies in row j-1's interval. With
    g the least concave majorant of t*f(n-t), any j parts holding m
    vertices score at most j*g(m/j), so a kk-partition whose j parts hold
    m scores at most j*g(m/j) + (kk-j)*g((n-m)/(kk-j)); where that is below
    the balanced total, no optimal vector passes through (j, m). Every
    cell on an optimal path therefore lies in its interval, and so do the
    rests of its maximal t: those cells are computed exactly, and the value,
    witness and ties are those of the unpruned DP. No kept cell is empty:
    its t = ceil(m/j) is in range, since g is linear between consecutive
    integers and so moving one part of size ceil(m/j) to the other side
    does not lower the bound; the table holds only integers. A cell off
    every optimal path may come out low, and may have no maximal t whose
    rest has min_max at most t; its min_max is then n + 1, which no part
    passes.

    One pass over a cell's sums gives its value, their maximum, and its
    min_max entry: the first maximal t whose rest has min_max at most t.
    The witness is rebuilt by descending through the table, taking at each
    level the smallest feasible maximal part, which yields the
    lexicographically smallest non-increasing optimal vector.
    """
    if k < 1:
        raise ValueError("need at least one part")
    if n < 0:
        raise ValueError("order must be non-negative")
    vals, den, exact = _part_values(n, f)
    kk = min(k, max(n, 1))
    kept = _kept_rows(n, kk, vals)
    no_part = n + 1

    def span(j: int, m: int) -> tuple[int, int]:
        """First and last t that row j scans at m: from ceil(m/j), below
        row kk at most (n-m)//(kk-j), and with m - t in row j-1's interval."""
        base, top = kept[j - 1]
        hi = m - base if j == kk else min(m - base, (n - m) // (kk - j))
        return max(-(-m // j), m - top), hi

    # rows[j][i] and min_max[j][i] hold m = kept[j][0] + i; min_max is the
    # smallest possible largest part over optimal fillings, read by the
    # descent for j < kk only
    rows = [[0]]
    min_max = [[0]]
    for j in range(1, kk):
        prev, prev_mm, base = rows[j - 1], min_max[j - 1], kept[j - 1][0]
        row: list[int] = []
        row_mm: list[int] = []
        for m in range(kept[j][0], kept[j][1] + 1):
            lo, hi = span(j, m)
            # sums[i] = prev at m - t, plus vals[t], for t = lo + i
            s = m - lo - base
            sums = list(map(add, prev[s::-1], vals[lo:hi + 1]))
            # on an optimal path some maximal t has a rest whose min_max is
            # at most t; off every one there may be none
            best = max(sums)
            i = sums.index(best)
            try:
                while prev_mm[s - i] > lo + i:
                    i = sums.index(best, i + 1)
            except ValueError:
                i = no_part - lo
            row.append(best)
            row_mm.append(lo + i)
        rows.append(row)
        min_max.append(row_mm)
    lo, hi = span(kk, n)
    base = kept[kk - 1][0]
    opt = max(map(add, rows[kk - 1][n - lo - base::-1], vals[lo:hi + 1]))

    def leaders(j: int, m: int, target):
        """Ascending t that lead an optimal non-increasing filling of j parts
        with m vertices, of value target: a largest part t, after an optimal
        filling of the rest whose largest part is at most t."""
        prev, prev_mm, base = rows[j - 1], min_max[j - 1], kept[j - 1][0]
        lo, hi = span(j, m)
        for t in range(lo, hi + 1):
            if prev[m - t - base] + vals[t] == target and prev_mm[m - t - base] <= t:
                yield t

    witness: list[int] = []
    ties = False
    j, m, target = kk, n, opt
    while j > 0:
        found = leaders(j, m, target)
        t_star = next(found, None)
        if t_star is None:
            raise InvariantViolation("partition witness reconstruction lost the optimum")
        ties = ties or next(found, None) is not None
        witness.append(t_star)
        j, m = j - 1, m - t_star
        target = rows[j][m - kept[j][0]]

    witness += [0] * (k - kk)
    return PartitionOptimum(value=_optimum_value(opt, den, exact, n, k, f),
                            witness=PartSizes(witness), n=n, k=k, f=f, ties_flag=ties)


def ex_prime_enumerated(n: int, k: int, f: WeightFunction) -> PartitionOptimum:
    """Independent oracle: exhaustive scan of non-increasing size vectors.

    Vectors are visited in ascending lexicographic order. Each one's score
    is its integer part values added left to right from 0, carried down the
    recursion; the last part is forced to the vertices left, and the last
    two are scanned in one loop.
    """
    if n > _ENUM_MAX_N or k > _ENUM_MAX_K:
        raise ScaleLimitError(
            f"enumeration oracle limited to n <= {_ENUM_MAX_N}, k <= {_ENUM_MAX_K}"
        )
    if k < 1:
        raise ValueError("need at least one part")
    vals, den, exact = _part_values(n, f)
    best = second = best_vec = None
    vec: list[int] = []

    def scan(j: int, m: int, cap: int, total) -> None:
        """Fill j >= 2 more parts with m vertices, each at most cap."""
        nonlocal best, second, best_vec
        parts = range(-(-m // j), min(cap, m) + 1)  # from ceil(m / j)
        if j == 2:
            # the last part m - t never exceeds t >= ceil(m / 2)
            for t in parts:
                v = total + vals[t] + vals[m - t]
                if best is None or v > best:
                    second, best, best_vec = best, v, (*vec, t, m - t)
                elif second is None or v > second:
                    second = v
            return
        for t in parts:
            vec.append(t)
            scan(j - 1, m - t, t, total + vals[t])
            vec.pop()

    if k == 1:
        best, best_vec = vals[n], (n,)
    else:
        scan(k, n, n, 0)
    ties = second == best
    return PartitionOptimum(value=_optimum_value(best, den, exact, n, k, f),
                            witness=PartSizes(best_vec), n=n, k=k, f=f, ties_flag=ties)
