"""Exact optimization of weighted complete multipartite graphs.

For a fixed weight f and order n, a complete multipartite graph with part
sizes n_1..n_k scores sum_i n_i * f(n - n_i): every vertex in a part of
size s has degree n - s. The optimizer maximizes this over all size
vectors with a fixed number of parts (zero parts allowed, so k parts
subsume fewer) by dynamic programming; an exhaustive enumerator over
non-increasing vectors serves as an independent cross-check.

The DP fills only the cells its result reads. With k > n it runs on n
parts (at most n parts are non-empty) and pads the witness with zeros. In
exact mode each row j scans only a largest last part t >= ceil(m/j) and
stops at m = n*j/k, the most vertices a descent leaves for j parts. In
float mode every row stays full: a largest-part bound regroups the sums
of rows 3 and up and moves the last bits of float values. Row 2 still
scans only t >= ceil(m/2), since its two orders add the same two floats.

Arithmetic runs in exact integers (weights.tabulate scales f(0..n-1) to a
common denominator) whenever the weight is rational at every degree used;
otherwise in floats, where sums count as tied when they are equal up to
rounding, within weights.float_slack of each other.
"""

from __future__ import annotations

import math
from operator import add
from typing import Optional

from .errors import InvariantViolation, Record, ScaleLimitError
from .graphs import PartSizes, turan_part_sizes
from .weights import ObjectiveValue, WeightFunction, degree_sum, float_slack, tabulate

_ENUM_MAX_N = 200
_ENUM_MAX_K = 5


class PartitionOptimum(Record):
    """Optimal value and the realizing part-size vector.

    The witness is the lexicographically smallest non-increasing optimal
    vector, always of length k (zero parts included); in float mode,
    optimal means tied with the optimum up to rounding. ties_flag reports
    whether another vector ties with it too: exactly in exact mode, up to
    rounding (weights.float_slack) in float mode.
    """

    __slots__ = ("value", "witness", "n", "k", "f", "ties_flag")
    value: ObjectiveValue
    witness: PartSizes
    n: int
    k: int
    f: WeightFunction
    ties_flag: bool


def _part_values(n: int, f: WeightFunction):
    """(value, den): value[t] = t * f(n - t) for t in 0..n, from tabulate.

    A zero part contributes 0 regardless of f(n), so value[0] = 0 and only
    f(0..n-1) is evaluated; den is None in float mode. The DP and the
    enumeration oracle add these part products rather than score degree
    multisets with weights.degree_sum: in float mode a product and its
    grouping fix the last bits of the optimum, and those bits are frozen
    (test_frozen_float_bits, perfbench/pins.json).
    """
    table, den = tabulate(f, range(n))
    return [0] + [t * table[n - t] for t in range(1, n + 1)], den


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
    Rows 1..kk-1 are filled, and row kk at m = n only:
      * exact mode: row j scans t >= ceil(m/j) only, as integer sums do not
        depend on order and so may put the largest part last; a descent
        then never leaves more than n*j/kk vertices for j parts, so row j
        stops at m = n*j//kk;
      * float mode: rows 1 and 2 scan t >= ceil(m/j) too, as their two
        orders add the same floats; rows 3 and up scan every t and every m,
        because regrouping their sums moves the last bits of the values.
    The witness is rebuilt by descending through the table, taking at each
    level the smallest feasible maximal part, which yields the
    lexicographically smallest non-increasing optimal vector.
    """
    if k < 1:
        raise ValueError("need at least one part")
    if n < 0:
        raise ValueError("order must be non-negative")
    vals, den = _part_values(n, f)
    exact = den is not None
    kk = min(k, max(n, 1))
    neg = -math.inf
    rows = [[0 if exact else 0.0] + [neg] * n]

    def cell(j: int, m: int):
        """best[j][m] from row j-1, over t from ceil(m/j) where that bound
        leaves every sum's bits alone, else from 0."""
        lo = -(-m // j) if exact or j <= 2 else 0
        # pairs rows[j-1][m - t] with vals[t] for t = lo..m
        return max(map(add, rows[j - 1][m - lo::-1], vals[lo:m + 1]))

    for j in range(1, kk):
        top = n * j // kk if exact else n
        rows.append([cell(j, m) for m in range(top + 1)])
    opt = cell(kk, n)

    # regrouped float sums of the same parts can differ in the last bits
    tol = float_slack(vals, den, k)

    def leaders(j: int, m: int, target):
        """Ascending t that lead an optimal non-increasing filling of j parts
        with m vertices, of value target: a largest part t, after an optimal
        filling of the rest whose largest part is at most t."""
        for t in range(-(-m // j), m + 1):  # from ceil(m / j)
            p = rows[j - 1][m - t]
            if p != neg and abs((p + vals[t]) - target) <= tol:
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
    return PartitionOptimum(value=ObjectiveValue.scaled(opt, den),
                            witness=PartSizes(witness), n=n, k=k, f=f, ties_flag=ties)


def ex_prime_enumerated(n: int, k: int, f: WeightFunction) -> PartitionOptimum:
    """Independent oracle: exhaustive scan of non-increasing size vectors.

    Vectors are visited in ascending lexicographic order. Each one's score
    is its part values added left to right from int 0, carried down the
    recursion; the last part is forced to the vertices left.
    """
    if n > _ENUM_MAX_N or k > _ENUM_MAX_K:
        raise ScaleLimitError(
            f"enumeration oracle limited to n <= {_ENUM_MAX_N}, k <= {_ENUM_MAX_K}"
        )
    if k < 1:
        raise ValueError("need at least one part")
    vals, den = _part_values(n, f)
    tol = float_slack(vals, den, k)
    best = second = best_vec = None
    vec: list[int] = []

    def scan(j: int, m: int, cap: int, total) -> None:
        """Fill j more parts with m vertices, each at most cap."""
        nonlocal best, second, best_vec
        if j == 1:
            if m <= cap:
                v = total + vals[m]
                if best is None or v > best:
                    second, best, best_vec = best, v, (*vec, m)
                elif second is None or v > second:
                    second = v
            return
        for t in range(-(-m // j), min(cap, m) + 1):  # from ceil(m / j)
            vec.append(t)
            scan(j - 1, m - t, t, total + vals[t])
            vec.pop()

    scan(k, n, n, 0)
    ties = second is not None and (best - second) <= tol
    return PartitionOptimum(value=ObjectiveValue.scaled(best, den),
                            witness=PartSizes(best_vec), n=n, k=k, f=f, ties_flag=ties)


class ChainCheckReport(Record):
    """Numeric evaluation of the lower-bound chain under a balanced split.

    The chain compares, at order n with r-1 parts:
      optimum >= balanced-split score >= n*f(min degree) >= gamma1*n*f(n).
    Two floor terms are reported because the min degree of the balanced
    (r-1)-partite graph is floor(n(r-2)/(r-1)); the alternative floor
    n(r-1)/r corresponds to r balanced parts and need not bound the
    (r-1)-part score from below. In float mode the first three
    comparisons hold up to rounding (weights.float_slack).
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
    slack = float_slack(*tabulate(f, range(n)), n)
    return ChainCheckReport(
        n=n, r=r, gamma1=gamma1,
        optimum=opt.value,
        balanced_value=balanced,
        floor_term_r=term_r,
        floor_term_rm1=term_rm1,
        gamma_term=gamma_term,
        holds_first=balanced - opt.value <= slack,
        holds_middle_r=term_r - balanced <= slack,
        holds_middle_rm1=term_rm1 - balanced <= slack,
        holds_tail_r=term_r.approx >= gamma_term,
        holds_tail_rm1=term_rm1.approx >= gamma_term,
    )
