"""Acceptance gate: ten end-to-end checks at fixed tolerances and budgets.

Each test prints one `[PASS]`/`[FAIL]` line (visible under `pytest -s`)
and then asserts, so a red run names the criterion that broke.
"""

import itertools
import math
import random
import time

import numpy as np

from permflow import (
    Constraint,
    ConstraintSet,
    Permutation,
    build_optimal,
    crossing_events,
    disorder_squared,
    estimate_sorting,
    feasible_count,
    flow_state,
    info_lower_bound,
    instrument,
    integrate_projected,
    inversions,
    isolates_sorted,
    parse_constraints,
    reverse_disorder,
    verify_tree,
    vertex_of,
)

from counting_oracle import feasible_count_brute


def _verdict(num: int, detail: str, ok: bool, elapsed: float, budget: float) -> None:
    timed_ok = elapsed < budget
    status = "PASS" if (ok and timed_ok) else "FAIL"
    print(f"[{status}] criterion {num:2d}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert timed_ok, f"criterion {num} overran its {budget:.0f}s budget: {elapsed:.2f}s"


def test_criterion_01_reverse_disorder_formula():
    start = time.perf_counter()
    ok = all(
        reverse_disorder(n) == sum((n + 1 - 2 * i) ** 2 for i in range(1, n + 1))
        for n in range(1, 201)
    )
    _verdict(
        1,
        "reverse-start disorder matches the summation oracle exactly for n = 1..200",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_02_exponential_contraction():
    start = time.perf_counter()
    rng = random.Random(11)
    ok = True
    states = []
    for _ in range(100):
        coords = [rng.uniform(0.0, 11.0) for _ in range(10)]
        shift = (55.0 - sum(coords)) / 10.0
        states.append([c + shift for c in coords])
    times = [rng.uniform(0.0, 10.0) for _ in range(100)]
    for x0 in states:
        d0 = disorder_squared(x0)
        for t in times:
            measured = disorder_squared(flow_state(x0, t))
            if abs(measured - d0 * math.exp(-2 * t)) > 1e-12 * d0:
                ok = False
    _verdict(
        2,
        "flow disorder equals d0*exp(-2t) within 1e-12*d0 on 100 states x 100 times",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_03_worked_example():
    start = time.perf_counter()
    events = crossing_events(vertex_of(Permutation.reverse(3)))
    ok = (
        abs(events.t[0] - math.log(2)) <= 1e-12
        and len(events) == 3
        and info_lower_bound(3) == 3
        and build_optimal(3).height == 3
    )
    _verdict(
        3,
        "start (3,2,1): first crossing ln 2, 3 crossings, tree bound and height 3",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_04_crossings_equal_inversions():
    start = time.perf_counter()
    grid = np.arange(0.0, 20.0 + 5e-5, 1e-4)
    decay = np.exp(-grid)
    scanned: dict[tuple[int, int], int] = {}
    ok = True

    def scan(c: int, d: int) -> int:
        # sign scan of the pair difference f(t) = c + d*exp(-t) over the
        # grid; equal (c, d) give identical traces, so scan each once
        key = (c, d)
        if key not in scanned:
            signs = np.sign(c + d * decay)
            flips = int(np.count_nonzero(signs[1:] * signs[:-1] < 0))
            flips += int(np.count_nonzero(signs == 0))
            assert flips <= 1, f"{c} + {d} exp(-t) changed sign more than once"
            scanned[key] = flips
        return scanned[key]

    checked = 0
    for n in range(1, 7):
        for ranks in itertools.permutations(range(1, n + 1)):
            p = Permutation.of(ranks)
            predicted = len(crossing_events(vertex_of(p)))
            expected = inversions(p)
            oracle = sum(
                scan(i - j, (ranks[i - 1] - i) - (ranks[j - 1] - j))
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            )
            if not (predicted == expected == oracle):
                ok = False
            checked += 1
    _verdict(
        4,
        f"crossing count = inversion count = grid sign-scan count on {checked} starts",
        ok and checked == 873,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_05_decision_tree_optimality():
    start = time.perf_counter()
    ok = True
    for n, want in [(2, 1), (3, 3), (4, 5)]:
        tree = build_optimal(n)
        sorts, _ = verify_tree(tree.root, n)
        ok = ok and tree.height == want == info_lower_bound(n) and sorts
    _verdict(
        5,
        "optimal tree heights 1/3/5 for n = 2/3/4 meet ceil(log2 n!) and sort all inputs",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_06_chain_isolation():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        chain = parse_constraints(",".join(f"{k}<{k + 1}" for k in range(1, n)), n)
        ok = ok and feasible_count(chain) == 1 and isolates_sorted(chain)
    _verdict(
        6,
        "the full chain pins exactly one assignment, the sorted one, for n = 2..8",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_07_telescoping_information():
    start = time.perf_counter()

    def merge_worst(n: int) -> int:
        # comparison recurrence of the top-down split: both halves, then a
        # full merge of n keys costing at most n - 1
        return 0 if n <= 1 else merge_worst(n // 2) + merge_worst(n - n // 2) + n - 1

    ok = merge_worst(7) == 14 and info_lower_bound(7) == 13
    target_bits = math.log2(math.factorial(5))
    for ranks in itertools.permutations(range(1, 6)):
        run = instrument("merge", ranks)
        ok = ok and run.final_feasible == 1
        ok = ok and abs(run.total_bits - target_bits) <= 1e-9
    counts = [
        instrument("merge", ranks).comparisons
        for ranks in itertools.permutations(range(1, 8))
    ]
    ok = ok and max(counts) <= merge_worst(7) and any(c >= 13 for c in counts)
    _verdict(
        7,
        "mergesort telescopes to log2(120) bits on all 5! inputs; n = 7 costs <= 14, >= 13 somewhere",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_08_projected_flow_decay():
    start = time.perf_counter()
    starts: list = [vertex_of(Permutation.reverse(n)) for n in range(3, 8)]
    rng = random.Random(2024)
    for n in range(4, 8):
        for _ in range(2):
            ranks = list(range(1, n + 1))
            rng.shuffle(ranks)
            starts.append(vertex_of(Permutation.of(ranks)))
    starts += [
        [2.0, 2.0, 2.0],
        [3.0, 3.0, 3.0, 3.0, 3.0],
        [3.5, 3.5, 2.0, 1.0],
        [1.5, 1.5, 3.0],
        [1.0, 2.5, 2.5, 4.0],
        [2.5, 2.5, 2.5, 2.5],
        [1.0, 2.0, 4.5, 4.5, 3.0],
    ]
    assert len(starts) == 20
    ok = True
    for x0 in starts:
        trace = integrate_projected(x0, 3.0)
        v0 = trace.samples[0].potential
        for s in trace.samples:
            if s.potential > v0 * math.exp(-2 * s.t) * (1 + 1e-6):
                ok = False
    _verdict(
        8,
        "projected descent satisfies V(t) <= V(0) exp(-2t) (1 + 1e-6) on 20 starts",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_09_lower_bound_growth():
    start = time.perf_counter()
    ok = True
    for n in (10**3, 10**4, 10**5):
        est = estimate_sorting(Permutation.reverse(n))
        ok = ok and est.d0 == reverse_disorder(n)
        ratio = est.discrete_estimate / (1.5 * n * math.log(n))
        ok = ok and 0.9 <= ratio <= 1.1
    _verdict(
        9,
        "operation count over (3/2) n ln n stays in [0.9, 1.1] for n = 1e3, 1e4, 1e5",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_10_counting_oracle_agreement():
    start = time.perf_counter()
    rng = random.Random(424242)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        k = rng.randint(0, min(len(pairs), 10))
        s = ConstraintSet(n, tuple(Constraint(a, b) for a, b in rng.sample(pairs, k)))
        if feasible_count(s) != feasible_count_brute(s):
            ok = False
    _verdict(
        10,
        "subset-DP and brute-force feasible counts agree on 200 random sets, n <= 9",
        ok,
        time.perf_counter() - start,
        30.0,
    )
