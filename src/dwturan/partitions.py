"""Exact optimization of weighted complete multipartite graphs.

For a fixed weight f and order n, a complete multipartite graph with part
sizes n_1..n_k scores sum_i n_i * f(n - n_i): every vertex in a part of
size s has degree n - s. The optimizer maximizes this over all size
vectors with a fixed number of parts (zero parts allowed, so k parts
subsume fewer) by dynamic programming; an exhaustive enumerator over
non-increasing vectors serves as an independent cross-check.

The DP fills only the cells its result reads. With k > n it runs on n
parts (at most n parts are non-empty) and pads the witness with zeros.
Each row j scans only a largest last part t >= ceil(m/j) and stops at
m = n*j/k, the most vertices a descent leaves for j parts.

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
from .graphs import PartSizes, turan_part_sizes
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
    n*j/kk vertices for j parts, so row j stops at m = n*j//kk.
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

    def cell(j: int, m: int):
        """best[j][m] from row j-1, over t from ceil(m/j)."""
        lo = -(-m // j)
        # pairs rows[j-1][m - t] with vals[t] for t = lo..m
        return max(map(add, rows[j - 1][m - lo::-1], vals[lo:m + 1]))

    for j in range(1, kk):
        rows.append([cell(j, m) for m in range(n * j // kk + 1)])
    opt = cell(kk, n)

    def leaders(j: int, m: int, target):
        """Ascending t that lead an optimal non-increasing filling of j parts
        with m vertices, of value target: a largest part t, after an optimal
        filling of the rest whose largest part is at most t."""
        for t in range(-(-m // j), m + 1):  # from ceil(m / j)
            p = rows[j - 1][m - t]
            if p != neg and p + vals[t] == target:
                mm = min_max[j - 1][m - t]
                if mm is not None and mm <= t:
                    yield t

    # min_max[j][m]: smallest possible largest part over optimal fillings,
    # over the m of row j; the descent reads it for j < kk only
    min_max: list[list[Optional[int]]] = [[0] + [None] * n]
    for j in range(1, kk):
        min_max.append([next(leaders(j, m, target), None)
                         for m, target in enumerate(rows[j])])

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


class ChainCheckReport(Record):
    """Numeric evaluation of the lower-bound chain under a balanced split.

    The chain compares, at order n with r-1 parts:
      optimum >= balanced-split score >= n*f(min degree) >= gamma1*n*f(n).
    Two floor terms are reported because the min degree of the balanced
    (r-1)-partite graph is floor(n(r-2)/(r-1)); the alternative floor
    n(r-1)/r corresponds to r balanced parts and need not bound the
    (r-1)-part score from below. Each value is its exact total, correctly
    rounded in float mode, and rounding is monotone, so the first three
    comparisons are plain comparisons of values in every mode.
    """

    __slots__ = ("n", "r", "gamma1", "optimum", "balanced_value", "floor_term_r",
                 "floor_term_rm1", "gamma_term", "holds_first", "holds_middle_r",
                 "holds_middle_rm1", "holds_tail_r", "holds_tail_rm1")
    n: int
    r: int
    gamma1: float
    optimum: ObjectiveValue
    balanced_value: ObjectiveValue
    floor_term_r: ObjectiveValue          # n * f(floor(n(r-1)/r))
    floor_term_rm1: ObjectiveValue        # n * f(floor(n(r-2)/(r-1)))
    gamma_term: float                     # gamma1 * n * f(n)
    holds_first: bool                     # optimum >= balanced_value
    holds_middle_r: bool                  # balanced_value >= floor_term_r
    holds_middle_rm1: bool                # balanced_value >= floor_term_rm1
    holds_tail_r: bool                    # floor_term_r >= gamma_term
    holds_tail_rm1: bool                  # floor_term_rm1 >= gamma_term


def turan_chain_check(n: int, r: int, f: WeightFunction,
                      gamma1: float) -> ChainCheckReport:
    """Evaluate each term of the balanced-split lower-bound chain at one n."""
    if r < 3:
        raise ValueError("need r >= 3")
    if gamma1 <= 0:
        raise ValueError("gamma1 must be positive")
    opt = ex_prime(n, r - 1, f)
    balanced = multipartite_value(turan_part_sizes(r - 1, n), f)
    term_r = degree_sum(f, [(n * (r - 1) // r, n)])
    term_rm1 = degree_sum(f, [(n * (r - 2) // (r - 1), n)])
    gamma_term = gamma1 * n * f(n)
    return ChainCheckReport(
        n=n, r=r, gamma1=gamma1,
        optimum=opt.value,
        balanced_value=balanced,
        floor_term_r=term_r,
        floor_term_rm1=term_rm1,
        gamma_term=gamma_term,
        holds_first=balanced <= opt.value,
        holds_middle_r=term_r <= balanced,
        holds_middle_rm1=term_rm1 <= balanced,
        holds_tail_r=term_r.approx >= gamma_term,
        holds_tail_rm1=term_rm1.approx >= gamma_term,
    )
