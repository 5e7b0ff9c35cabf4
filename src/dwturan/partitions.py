"""Exact optimization of weighted complete multipartite graphs.

For a fixed weight f and order n, a complete multipartite graph with part
sizes n_1..n_k scores sum_i n_i * f(n - n_i): every vertex in a part of
size s has degree n - s. The optimizer maximizes this over all size
vectors with a fixed number of parts (zero parts allowed, so k parts
subsume fewer) by dynamic programming; an exhaustive enumerator over
non-increasing vectors serves as an independent cross-check.

Arithmetic runs in exact integers (weights.tabulate scales f(0..n-1) to a
common denominator) whenever the weight is rational at every degree used;
otherwise floats with an absolute near-tie tolerance of 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Optional

from .errors import InvariantViolation, ScaleLimitError
from .graphs import ObjectiveValue, PartSizes, turan_part_sizes
from .weights import WeightFunction, tabulate

FLOAT_TIE_TOL = 1e-9

_ENUM_MAX_N = 200
_ENUM_MAX_K = 5


@dataclass(frozen=True)
class PartitionOptimum:
    """Optimal value and the realizing part-size vector.

    The witness is the lexicographically smallest non-increasing optimal
    vector, always of length k (zero parts included). ties_flag reports
    whether another vector came within tolerance of optimal (exact ties in
    exact mode, 1e-9 near-ties in float mode).
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
    of the j-th part of best[j-1][m-t] + t*f(n-t); O(k n^2) evaluations.
    The witness is rebuilt by descending through the table, taking at each
    level the smallest feasible maximal part, which yields the
    lexicographically smallest non-increasing optimal vector.
    """
    if k < 1:
        raise ValueError("need at least one part")
    if n < 0:
        raise ValueError("order must be non-negative")
    vals, den = _part_values(n, f)
    neg = -math.inf
    prev = [0.0 if den is None else 0] + [neg] * n
    rows = [prev]
    for _j in range(k):
        # prev[m::-1][t] = prev[m - t]; zip stops at t = m
        prev = [max(map(add, prev[m::-1], vals)) for m in range(n + 1)]
        rows.append(prev)
    opt = rows[k][n]

    # float mode matches within the tie tolerance because regrouped float
    # sums of the same parts can differ in the last bits
    tol = FLOAT_TIE_TOL if den is None else 0

    def leaders(j: int, m: int):
        """Ascending t that lead an optimal non-increasing filling of j parts
        with m vertices: a largest part t, after an optimal filling of the
        rest whose largest part is at most t."""
        target = rows[j][m]
        for t in range(-(-m // j), m + 1):  # from ceil(m / j)
            p = rows[j - 1][m - t]
            if p != neg and abs((p + vals[t]) - target) <= tol:
                mm = min_max[j - 1][m - t]
                if mm is not None and mm <= t:
                    yield t

    # min_max[j][m]: smallest possible largest part over optimal fillings
    min_max: list[list[Optional[int]]] = [[0] + [None] * n]
    for j in range(1, k + 1):
        min_max.append([next(leaders(j, m), None) for m in range(n + 1)])

    witness: list[int] = []
    ties = False
    j, m = k, n
    while j > 0:
        found = leaders(j, m)
        t_star = next(found, None)
        if t_star is None:
            raise InvariantViolation("partition witness reconstruction lost the optimum")
        ties = ties or next(found, None) is not None
        witness.append(t_star)
        j, m = j - 1, m - t_star

    return PartitionOptimum(value=ObjectiveValue.scaled(opt, den),
                            witness=PartSizes(witness), n=n, k=k, f=f, ties_flag=ties)


def _nonincreasing_vectors(k: int, m: int, cap: int):
    """All non-increasing k-vectors of non-negative ints summing to m,
    entries <= cap, in ascending lexicographic order."""
    if k == 0:
        if m == 0:
            yield ()
        return
    lo = -(-m // k)
    for t in range(lo, min(cap, m) + 1):
        for rest in _nonincreasing_vectors(k - 1, m - t, t):
            yield (t,) + rest


def ex_prime_enumerated(n: int, k: int, f: WeightFunction) -> PartitionOptimum:
    """Independent oracle: exhaustive scan of non-increasing size vectors."""
    if n > _ENUM_MAX_N or k > _ENUM_MAX_K:
        raise ScaleLimitError(
            f"enumeration oracle limited to n <= {_ENUM_MAX_N}, k <= {_ENUM_MAX_K}"
        )
    if k < 1:
        raise ValueError("need at least one part")
    vals, den = _part_values(n, f)
    tol = FLOAT_TIE_TOL if den is None else 0
    best = None
    second = None
    best_vec = None
    for vec in _nonincreasing_vectors(k, n, n):
        v = sum(vals[t] for t in vec)
        if best is None or v > best:
            second = best
            best = v
            best_vec = vec
        elif second is None or v > second:
            second = v
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
    (r-1)-part score from below.
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
    return ChainCheckReport(
        n=n, r=r, gamma1=gamma1,
        optimum=opt.value,
        balanced_value=balanced,
        floor_term_r=term_r,
        floor_term_rm1=term_rm1,
        gamma_term=gamma_term,
        holds_first=opt.value >= balanced,
        holds_middle_r=balanced >= term_r,
        holds_middle_rm1=balanced >= term_rm1,
        holds_tail_r=term_r.approx >= gamma_term,
        holds_tail_rm1=term_rm1.approx >= gamma_term,
    )
