"""Exact optimization of weighted complete multipartite graphs.

For a fixed weight f and order n, a complete multipartite graph with part
sizes n_1..n_k scores sum_i n_i * f(n - n_i): every vertex in a part of
size s has degree n - s. The optimizer maximizes this over all size
vectors with a fixed number of parts (zero parts allowed, so k parts
subsume fewer) by dynamic programming; an exhaustive enumerator over
non-increasing vectors serves as an independent cross-check.

The DP fills only the entries its result reads: rows 1..k-1 of the table
(row 1 in closed form) and row k at m = n, and the witness table min_max
for j < k. Each row still scans every size of its last part: bounding it
by the largest part t >= ceil(m/j) would regroup float sums and move the
last bits of float-mode values.

Arithmetic runs in exact integers (weights.tabulate scales f(0..n-1) to a
common denominator) whenever the weight is rational at every degree used;
otherwise in floats, where sums count as tied when they are equal up to
rounding, within weights.float_slack of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Optional

from .errors import InvariantViolation, ScaleLimitError
from .graphs import ObjectiveValue, PartSizes, turan_part_sizes
from .weights import WeightFunction, float_slack, tabulate

_ENUM_MAX_N = 200
_ENUM_MAX_K = 5


@dataclass(frozen=True)
class PartitionOptimum:
    """Optimal value and the realizing part-size vector.

    The witness is the lexicographically smallest non-increasing optimal
    vector, always of length k (zero parts included); in float mode,
    optimal means tied with the optimum up to rounding. ties_flag reports
    whether another vector ties with it too: exactly in exact mode, up to
    rounding (weights.float_slack) in float mode.
    """

    value: ObjectiveValue
    witness: PartSizes
    n: int
    k: int
    f: WeightFunction
    ties_flag: bool = False


def _part_values(n: int, f: WeightFunction):
    """(value, den): value[t] = t * f(n - t) for t in 0..n, from tabulate.

    A zero part contributes 0 regardless of f(n), so value[0] = 0 and only
    f(0..n-1) is evaluated; den is None in float mode.
    """
    table, den = tabulate(f, range(n))
    return [0] + [t * table[n - t] for t in range(1, n + 1)], den


def multipartite_value(parts, f: WeightFunction) -> ObjectiveValue:
    """Score of the complete multipartite graph with the given part sizes."""
    sizes = [t for t in parts if t]
    n = sum(sizes)
    table, den = tabulate(f, [n - t for t in sizes])
    return ObjectiveValue.scaled(sum(t * x for t, x in zip(sizes, table)), den)


def ex_prime(n: int, k: int, f: WeightFunction) -> PartitionOptimum:
    """Maximum score over all complete k-partite graphs of order n.

    DP over (parts used, vertices placed): best[j][m] = max over the size t
    of the j-th part of best[j-1][m-t] + t*f(n-t). Only what the result
    reads is filled: row 1 is vals[m] (t = m is the one term reaching row
    0's finite entry), rows 2..k-1 in full, at O(n^2) evaluations each, and
    row k at m = n only. The witness is rebuilt by descending through the
    table, taking at each level the smallest feasible maximal part, which
    yields the lexicographically smallest non-increasing optimal vector.

    Every row scans every size t of its last part. Restricting row j to a
    largest part t >= ceil(m/j) would be exact on integers, but in float
    mode it regroups the sums and moves last bits of reported values.
    """
    if k < 1:
        raise ValueError("need at least one part")
    if n < 0:
        raise ValueError("order must be non-negative")
    vals, den = _part_values(n, f)
    neg = -math.inf
    row0 = [0.0 if den is None else 0] + [neg] * n
    rows = [row0, [row0[0] + v for v in vals]]
    for _j in range(2, k):
        prev = rows[-1]
        # prev[m::-1][t] = prev[m - t]; zip stops at t = m
        rows.append([max(map(add, prev[m::-1], vals)) for m in range(n + 1)])
    opt = max(map(add, rows[k - 1][n::-1], vals))

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

    # min_max[j][m]: smallest possible largest part over optimal fillings;
    # the descent reads it for j < k only
    min_max: list[list[Optional[int]]] = [[0] + [None] * n]
    for j in range(1, k):
        min_max.append([next(leaders(j, m, target), None)
                         for m, target in enumerate(rows[j])])

    witness: list[int] = []
    ties = False
    j, m, target = k, n, opt
    while j > 0:
        found = leaders(j, m, target)
        t_star = next(found, None)
        if t_star is None:
            raise InvariantViolation("partition witness reconstruction lost the optimum")
        ties = ties or next(found, None) is not None
        witness.append(t_star)
        j, m = j - 1, m - t_star
        target = rows[j][m]

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


@dataclass(frozen=True)
class ChainCheckReport:
    """Numeric evaluation of the lower-bound chain under a balanced split.

    The chain compares, at order n with r-1 parts:
      optimum >= balanced-split score >= n*f(min degree) >= gamma1*n*f(n).
    Two floor terms are reported because the min degree of the balanced
    (r-1)-partite graph is floor(n(r-2)/(r-1)); the alternative floor
    n(r-1)/r corresponds to r balanced parts and need not bound the
    (r-1)-part score from below. In float mode the first three
    comparisons hold up to rounding (weights.float_slack).
    """

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

    def times_n(d: int) -> ObjectiveValue:
        (x,), den = tabulate(f, (d,))
        return ObjectiveValue.scaled(n * x, den)

    term_r = times_n(n * (r - 1) // r)
    term_rm1 = times_n(n * (r - 2) // (r - 1))
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
