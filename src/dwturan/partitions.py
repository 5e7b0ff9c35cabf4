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
stops at m = n*j/k, the most vertices a descent leaves for j parts. One
pass over a row gives both its values and the smallest part that leads
each of them.

Arithmetic runs in exact integers in every mode: weights.tabulate scales
f(0..n-1) to a common denominator, the lcm of the denominators of f's
exact values where rational and of its floats elsewhere. Ties are exact,
and a float-mode value is the optimum's exact total correctly rounded.
"""

from __future__ import annotations

import math
from operator import add
from typing import Optional

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


def ex_prime(n: int, k: int, f: WeightFunction) -> PartitionOptimum:
    """Maximum score over all complete k-partite graphs of order n.

    DP over (parts used, vertices placed): best[j][m] = max over the size t
    of the j-th part of best[j-1][m-t] + t*f(n-t). Only what the result
    reads is filled. Parts past n add only zeros, so the table has
    kk = min(k, max(n, 1)) levels and the witness gets k - kk zero parts.
    Rows 1..kk-1 are filled, and row kk at m = n only. Row j scans
    t >= ceil(m/j) only, as integer sums do not depend on order and so may
    put the largest part last; a descent then never leaves more than
    n*j/kk vertices for j parts, so row j stops at m = n*j//kk. Below row
    kk, t is also at most (n-m)//(kk-j), since the kk-j parts above it are
    each at least t and hold the other n-m vertices: every non-increasing
    vector is still scanned and every scanned one is a k-partition, so
    value, witness and ties are those of the uncapped scan. A cell with no
    t is -inf.
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
    neg = -math.inf
    rows = [[0] + [neg] * n]
    # min_max[j][m]: smallest possible largest part over optimal fillings;
    # the descent reads it for j < kk only
    min_max: list[list[Optional[int]]] = [[0] + [None] * n]
    for j in range(1, kk):
        prev, prev_mm, room = rows[j - 1], min_max[j - 1], kk - j
        row: list = []
        row_mm: list[Optional[int]] = []
        for m in range(n * j // kk + 1):
            lo = -(-m // j)
            # sums[i] = prev[m - t] + vals[t] for t = lo + i, up to
            # (n - m) // room: the room parts above are each at least t
            sums = list(map(add, prev[m - lo::-1], vals[lo:min(m, (n - m) // room) + 1]))
            if not sums:
                row.append(neg)
                row_mm.append(None)
                continue
            # a t in range admits the balanced filling, so best is finite;
            # an optimal filling, sorted, stays in range, so some maximal t
            # has a rest whose min_max is at most t
            best = max(sums)
            i = sums.index(best)
            while prev_mm[m - lo - i] > lo + i:
                i = sums.index(best, i + 1)
            row.append(best)
            row_mm.append(lo + i)
        rows.append(row)
        min_max.append(row_mm)
    lo = -(-n // kk)
    opt = max(map(add, rows[kk - 1][n - lo::-1], vals[lo:n + 1]))

    def leaders(j: int, m: int, target):
        """Ascending t that lead an optimal non-increasing filling of j parts
        with m vertices, of value target: a largest part t, after an optimal
        filling of the rest whose largest part is at most t."""
        hi = m if j == kk else min(m, (n - m) // (kk - j))
        for t in range(-(-m // j), hi + 1):  # from ceil(m / j)
            # a -inf cell misses the finite target; the others have a min_max
            if rows[j - 1][m - t] + vals[t] == target and min_max[j - 1][m - t] <= t:
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
        target = rows[j][m]

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
