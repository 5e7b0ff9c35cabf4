"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 8 is split into its three sub-checks; the staircase growth-bound
sub-check (8c) certifies that no staircase in this family meets the
per-step growth bound f(n+1)/f(n) <= 1 + n**(-c) at its own exponent c.
The inline comments there carry the two-line proof.
"""

import math
import random
import time

from dwturan import (
    CounterexampleSpec,
    WeightFunction,
    bipartite_upper_bound,
    blowup_k3,
    check_growth_bound,
    check_log_continuity,
    complete_graph,
    contains_subgraph,
    counterexample_graph,
    cycle_graph,
    erdos_majorizer,
    ex_exact,
    ex_prime,
    ex_prime_enumerated,
    gap_report,
    graph6_decode,
    graph6_encode,
    kab_free_check,
    least_growth_seed,
    norm_graph,
    power,
    random_kr_free_graph,
    staircase,
    verify_majorization,
)
from dwturan.graphs import Graph, PartSizes
from dwturan.weights import growth_bound_profile
from oracles import random_step_weight


def _verdict(num: str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>3}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class _CappedExp(WeightFunction):
    """x -> 2**x with an inf cap far past every scanned point."""

    def value(self, n):
        return 2.0 ** n if n < 1000 else math.inf


def test_criterion_01_clique_equality():
    t0 = time.time()
    checked = 0
    for n in range(0, 8):
        for r in (3, 4):
            for mu in (1, 2, 3):
                f = power(mu)
                full = ex_exact(n, complete_graph(r), f)
                multi = ex_prime(n, r - 1, f)
                assert full.value.exact is not None
                assert full.value.exact == multi.value.exact, (n, r, mu)
                checked += 1
    dt = time.time() - t0
    _verdict("1", "clique-forbidden equality, exact integers",
             dt < 300, f"{checked} instances in {dt:.1f}s")


def test_criterion_02_mantel_values():
    t0 = time.time()
    for n in range(3, 8):
        got = ex_exact(n, complete_graph(3), power(1)).value.exact
        assert got == 2 * (n * n // 4), n
    _verdict("2", "doubled Mantel bound at n=3..7", True,
             f"{time.time() - t0:.1f}s")


def test_criterion_03_unbalanced_optimum():
    res = ex_prime(4, 2, power(4))
    from dwturan import multipartite_value

    balanced = multipartite_value((2, 2), power(4))
    ok = (res.value.exact == 84 and res.witness == PartSizes([3, 1])
          and balanced.exact == 64 and res.value > balanced)
    _verdict("3", "fourth-power optimum (3,1) beats the balanced split",
             ok, f"84 vs {balanced.exact}")


def test_criterion_04_majorization_suite():
    t0 = time.time()
    failures = 0
    total = 0
    for r in (3, 4):
        rng = random.Random(4000 + r)
        for i in range(1000):
            n = rng.randrange(1, 41)
            p = (i % 20 + 1) / 40
            g = random_kr_free_graph(n, r, p, rng)
            res = erdos_majorizer(g, r)
            if not verify_majorization(g, res):
                failures += 1
            total += 1
    dt = time.time() - t0
    _verdict("4", "degree majorization on random clique-free graphs",
             failures == 0 and dt < 60, f"{total} graphs, {failures} failures, {dt:.1f}s")


def test_criterion_05_sandwich_and_ratio_table():
    t0 = time.time()
    instances = 0
    for n in range(0, 8):
        for r in (3, 4):
            for mu in (1, 2, 3):
                f = power(mu)
                lower = ex_prime(n, r - 1, f).value
                upper = ex_exact(n, complete_graph(r), f).value
                assert lower <= upper, (n, r, mu)
                instances += 1
    from dwturan import ratio_table

    rows = ratio_table((4, 7), cycle_graph(5), power(2))
    print("    n   ex_f   ex'_f   ratio")
    for row in rows:
        print(f"  {row.n:3d} {row.ex_value.as_json():6} "
              f"{row.ex_prime_value.as_json():6}   {row.ratio:.4f}")
        assert row.ratio >= 1
        instances += 1
    _verdict("5", "multipartite lower bound never exceeds the exact optimum",
             True, f"{instances} instances in {time.time() - t0:.1f}s")


def test_criterion_06_norm_graph_facts():
    g9 = norm_graph(3, 2)
    ok9 = (g9.n == 9 and g9.num_edges == 16
           and sorted(g9.degrees) == [3, 3, 3, 3, 4, 4, 4, 4, 4]
           and kab_free_check(g9, 2, 3))
    g25 = norm_graph(5, 2)
    ok25 = (g25.n == 25 and set(g25.degrees) == {5, 6}
            and kab_free_check(g25, 2, 3))
    _verdict("6", "norm graphs over GF(9) and GF(25)", ok9 and ok25,
             f"GF(9): {g9.num_edges} edges; GF(25): degrees {sorted(set(g25.degrees))}")


def test_criterion_07_counterexample_gap():
    t0 = time.time()
    f = staircase(0.5, (9,), 1)
    spec = CounterexampleSpec(q=3, t=2, s=3, f=f)
    g, _ = counterexample_graph(spec)
    rep = gap_report(spec, g)
    free = not contains_subgraph(g, blowup_k3(5))
    dt = time.time() - t0
    ok = (rep.construction_value.exact == 36
          and rep.bipartite_bound.exact == 27
          and bipartite_upper_bound(9, f).exact == 27
          and rep.exceeds and free and dt < 120)
    _verdict("7", "staircase gap 36 > 27 with blown-up triangle absent",
             ok, f"{dt:.1f}s including the containment search")


def test_criterion_08a_square_log_continuity():
    ok = check_log_continuity(power(2), 0.21, 0.1, (1, 10_000))
    _verdict("8a", "square weight is log-continuous at (0.21, 0.1)", ok)


def test_criterion_08b_exponential_fails_log_continuity():
    deltas = [0.01, 0.02, 0.05, 0.1, 0.5, 1.0]
    bad = [d for d in deltas if check_log_continuity(_CappedExp(), 1.0, d, (1, 10_000))]
    _verdict("8b", "exponential weight fails at every tested delta",
             not bad, f"deltas {deltas}")


def test_criterion_08c_staircase_growth_at_own_exponent():
    # No staircase satisfies f(n+1)/f(n) <= 1 + n**(-c) at its own c.
    # Each climb step has ratio 2**(1/m) with m = floor(n_k**c / 2), and
    #     2**(1/m) - 1 >= ln2 / m >= 2*ln2 * n**(-c) > n**(-c),
    # so every step of every climb violates the bound, while the flat
    # stretches around a climb meet it.
    c = 0.5
    seed = least_growth_seed(c, 1_000_000)
    f = staircase(c, (250_000,), 1)
    (n_k, m_k), = f.windows()
    profile = growth_bound_profile(f, c, (1, 500_000))
    climb = range(n_k, n_k + m_k)
    climb_fails = all(f(n + 1) > (1 + n ** (-c)) * f(n) for n in climb)
    climb_margin = min((f(n + 1) / f(n) - 1) * n ** c for n in climb)
    flat_after = check_growth_bound(f, c, (n_k + m_k, 500_000))
    ok = (seed is None and profile == (False, n_k) and climb_fails
          and climb_margin >= 2 * math.log(2) and flat_after)
    _verdict("8c", "staircase growth bound at its own exponent", ok,
             f"least viable seed up to 1e6: {seed}; first violating n: "
             f"{profile[1]}; all {m_k} climb steps violate: {climb_fails}; "
             f"least (ratio - 1) * n**c in the climb: {climb_margin:.4f}; "
             f"bound holds after the climb: {flat_after}")


def test_criterion_09_cross_oracle_optimizer():
    t0 = time.time()
    rng = random.Random(20260810)
    for i in range(200):
        n = rng.randrange(0, 121)
        k = rng.randrange(1, 5)
        f = random_step_weight(rng)
        a = ex_prime(n, k, f)
        b = ex_prime_enumerated(n, k, f)
        assert a.value.exact == b.value.exact, (i, n, k)
        assert a.witness == b.witness, (i, n, k)
    _verdict("9", "DP agrees with enumeration on 200 random instances",
             True, f"{time.time() - t0:.1f}s")


def test_criterion_10_graph6_round_trip():
    rng = random.Random(1010)
    for _ in range(1000):
        n = rng.randrange(0, 41)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        assert graph6_decode(graph6_encode(g)) == g
    _verdict("10", "graph6 encode/decode identity on 1000 random graphs", True)
