import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permflow import (
    ALGORITHMS,
    Constraint,
    ConstraintSet,
    DP_LIMIT,
    Permutation,
    SizeLimitError,
    feasible_count,
    instrument,
    isolates_sorted,
    parse_constraints,
)

from counting_oracle import BRUTE_LIMIT, feasible_count_brute, is_contradictory


def reference_count(s):
    """The flat subset DP over all 2^n label sets: the oracle for n > BRUTE_LIMIT."""
    n = s.n
    below = [0] * n  # below[v] = bitmask of labels that must rank under label v+1
    for c in s.constraints:
        below[c.hi - 1] |= 1 << (c.lo - 1)
    full = (1 << n) - 1
    counts = [0] * (full + 1)
    counts[0] = 1
    for mask in range(full + 1):
        base = counts[mask]
        if base == 0:
            continue
        for v in range(n):
            bit = 1 << v
            if mask & bit or below[v] & ~mask:
                continue
            counts[mask | bit] += base
    return counts[full]


def constraint_set(n, pairs):
    """Pairs as a ConstraintSet over 1..n, later duplicates dropped."""
    return ConstraintSet(n, tuple(Constraint(a, b) for a, b in dict.fromkeys(pairs)))


@st.composite
def random_sets(draw, n_min, n_max, max_pairs, acyclic=False):
    """Random pairs over 1..n; with acyclic, each points up a hidden order."""
    n = draw(st.integers(n_min, n_max))
    if n == 1:
        return ConstraintSet.empty(1)
    labels = st.integers(1, n)
    pairs = draw(
        st.lists(
            st.tuples(labels, labels).filter(lambda ab: ab[0] != ab[1]),
            max_size=max_pairs(n),
        )
    )
    if acyclic:
        rank = {v: k for k, v in enumerate(draw(st.permutations(range(1, n + 1))))}
        pairs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs]
    return constraint_set(n, pairs)


@st.composite
def connected_sets(draw, n_min, n_max):
    """A random spanning tree with random orientations, plus a few extra pairs."""
    n = draw(st.integers(n_min, n_max))
    pairs = []
    for v in range(2, n + 1):
        u = draw(st.integers(1, v - 1))
        pairs.append((u, v) if draw(st.booleans()) else (v, u))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3))
    pairs += [(a, b) for a, b in extra if a != b]
    return constraint_set(n, pairs)


@st.composite
def near_chains(draw, n_min, n_max):
    """Often the full chain 1<2<...<n, less a link or two, plus random extras."""
    n = draw(st.integers(n_min, n_max))
    links = [(k, k + 1) for k in range(1, n)]
    if draw(st.booleans()) and links:
        dropped = draw(st.lists(st.sampled_from(links), max_size=2))
        links = [pair for pair in links if pair not in dropped]
    elif not draw(st.booleans()):
        links = []
    labels = st.integers(1, n)
    extra = draw(
        st.lists(st.tuples(labels, labels).filter(lambda ab: ab[0] != ab[1]), max_size=4)
    )
    if draw(st.booleans()):  # extras point up, so the sorted order survives
        extra = [(min(a, b), max(a, b)) for a, b in extra]
    pairs = draw(st.permutations(links + extra))
    return constraint_set(n, pairs)


def _series_parallel_pairs(draw, labels):
    """(pairs, count, minimal labels, maximal labels) of a series-parallel order.

    The labels are split in two at a drawn point, recursively. A series
    node puts its left part wholly below its right part, with a pair from
    each maximal label of the left to each minimal label of the right (only
    the covers, so a counter must close them transitively); its count is
    the product of the parts' counts. A parallel node adds no pair; its
    count is the binomial times the parts' counts.
    """
    if len(labels) == 1:
        return [], 1, labels, labels
    k = draw(st.integers(1, len(labels) - 1))
    lo_pairs, lo_count, lo_min, lo_max = _series_parallel_pairs(draw, labels[:k])
    hi_pairs, hi_count, hi_min, hi_max = _series_parallel_pairs(draw, labels[k:])
    pairs = lo_pairs + hi_pairs
    if draw(st.booleans()):
        pairs += [(a, b) for a in lo_max for b in hi_min]
        return pairs, lo_count * hi_count, lo_min, hi_max
    count = math.comb(len(labels), k) * lo_count * hi_count
    return pairs, count, lo_min + hi_min, lo_max + hi_max


@st.composite
def series_parallel(draw, n_min, n_max):
    """A series-parallel order on shuffled labels 1..n, and its closed-form count."""
    n = draw(st.integers(n_min, n_max))
    labels = draw(st.permutations(range(1, n + 1)))
    pairs, count, _, _ = _series_parallel_pairs(draw, labels)
    return constraint_set(n, draw(st.permutations(pairs))), count


def fence(labels):
    """The zigzag labels[0] < labels[1] > labels[2] < labels[3] > ..."""
    return [
        (labels[k], labels[k + 1]) if k % 2 == 0 else (labels[k + 1], labels[k])
        for k in range(len(labels) - 1)
    ]


def crown(labels):
    """Lows l_i and highs h_i, with l_i < h_i and l_i < h_(i+1 mod k)."""
    k = len(labels) // 2
    lows, highs = labels[:k], labels[k:]
    return [(lows[i], highs[j]) for i in range(k) for j in (i, (i + 1) % k)]


@st.composite
def prime_orders(draw, n_max):
    """An N, a fence or a crown, alone or beside, below or above a series-parallel order."""
    shape = draw(st.sampled_from(["N", "fence", "crown"]))
    if shape == "N":
        size = 4
    elif shape == "fence":
        size = draw(st.integers(4, n_max))
    else:
        size = 2 * draw(st.integers(3, n_max // 2))
    n = draw(st.integers(size, n_max))
    labels = draw(st.permutations(range(1, n + 1)))
    core, rest = labels[:size], labels[size:]
    if shape == "N":
        pairs = [(core[0], core[2]), (core[1], core[2]), (core[1], core[3])]
    else:
        pairs = (fence if shape == "fence" else crown)(core)
    if rest:
        pairs += _series_parallel_pairs(draw, rest)[0]
        where = draw(st.sampled_from(["beside", "below", "above"]))
        if where == "below":
            pairs += [(a, b) for a in rest for b in core]
        elif where == "above":
            pairs += [(b, a) for a in rest for b in core]
    return constraint_set(n, draw(st.permutations(pairs)))


def zigzag(n):
    """Euler's zigzag number: the alternating permutations of n, by the Seidel triangle."""
    row = [1]
    for _ in range(n):
        grown = [0]
        for v in reversed(row):
            grown.append(grown[-1] + v)
        row = grown
    return row[-1]


def closure(s):
    """below[a][b]: label a ranks under label b in every order (Warshall)."""
    below = [[False] * (s.n + 1) for _ in range(s.n + 1)]
    for c in s.constraints:
        below[c.lo][c.hi] = True
    for k in range(1, s.n + 1):
        for a in range(1, s.n + 1):
            if below[a][k]:
                for b in range(1, s.n + 1):
                    below[a][b] = below[a][b] or below[k][b]
    return below


def with_pair(s, a, b):
    """s plus the pair a < b (kept once if s holds it already)."""
    return constraint_set(s.n, [(c.lo, c.hi) for c in s.constraints] + [(a, b)])


def chain_text(n):
    return ",".join(f"{k}<{k + 1}" for k in range(1, n))


def shifted(s, offset):
    """The pairs of s with every label moved up by offset."""
    return [(c.lo + offset, c.hi + offset) for c in s.constraints]


class TestConstraintSet:
    def test_empty(self):
        s = ConstraintSet.empty(4)
        assert s.n == 4
        assert s.constraints == ()

    def test_reversed_pair_is_distinct(self):
        s = ConstraintSet(3, (Constraint(1, 2),))
        s2 = ConstraintSet(3, s.constraints + (Constraint(2, 1),))
        assert len(s2.constraints) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="^constraint 1<4 out of range 1..3$"):
            ConstraintSet(3, (Constraint(1, 4),))
        with pytest.raises(ValueError, match="^constraint 0<2 out of range 1..3$"):
            ConstraintSet(3, (Constraint(0, 2),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="^constraint 2<2 relates a label to itself$"):
            ConstraintSet(3, (Constraint(2, 2),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="^constraint 1<2 appears twice$"):
            ConstraintSet(3, (Constraint(1, 2), Constraint(2, 3), Constraint(1, 2)))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            ConstraintSet(0, ())

    def test_equal_and_hashed_by_fields(self):
        a = ConstraintSet(3, (Constraint(1, 2), Constraint(2, 3)))
        b = parse_constraints("1<2,2<3", 3)
        assert a == b and hash(a) == hash(b)
        assert {a: "chain"}[b] == "chain"
        assert a != ConstraintSet(4, a.constraints)
        assert a != ConstraintSet(3, a.constraints[::-1])
        assert a != (3, a.constraints)

    def test_repr_and_assignment(self):
        s = ConstraintSet(2, (Constraint(1, 2),))
        assert repr(s) == "ConstraintSet(n=2, constraints=(Constraint(lo=1, hi=2),))"
        for name in ("n", "constraints"):
            with pytest.raises(AttributeError, match=f"'{name}'"):
                setattr(s, name, 3)
        assert s.n == 2


    def test_keeps_its_own_tuple_of_constraints(self):
        # a list is copied, plain (lo, hi) pairs become Constraints, and the
        # set hashes and compares as one built from Constraints
        pairs = [(1, 2), Constraint(2, 3)]
        s = ConstraintSet(3, pairs)
        pairs.append((1, 3))
        want = ConstraintSet(3, (Constraint(1, 2), Constraint(2, 3)))
        assert s.constraints == want.constraints
        assert all(type(c) is Constraint for c in s.constraints)
        assert s == want and hash(s) == hash(want)
        assert feasible_count(ConstraintSet(3, ((1, 2),))) == 3

    @pytest.mark.parametrize("pair, named", [(Constraint(1.0, 2), "1.0"), ((1, "3"), "'3'")])
    def test_rejects_non_integer_labels(self, pair, named):
        with pytest.raises(ValueError, match=f"^constraint labels must be integers, got {named}$"):
            ConstraintSet(3, (pair,))


class TestConstraint:
    def test_equal_and_hashed_by_labels(self):
        # the pairs of a run are dict keys, so equal labels must be one key
        seen = {Constraint(1, 2): None, Constraint(2, 1): None}
        seen[Constraint(1, 2)] = None
        assert list(seen) == [Constraint(1, 2), Constraint(2, 1)]
        assert Constraint(1, 2) != Constraint(2, 1)

    def test_is_a_named_pair(self):
        c = Constraint(lo=3, hi=5)
        assert repr(c) == "Constraint(lo=3, hi=5)"
        lo, hi = c
        assert (lo, hi) == (3, 5) == c
        with pytest.raises(AttributeError):
            c.lo = 4


class TestParseConstraints:
    def test_basic(self):
        s = parse_constraints("1<2,2<3", 3)
        assert s.constraints == (Constraint(1, 2), Constraint(2, 3))

    def test_whitespace_tolerated(self):
        s = parse_constraints(" 1<2 ,  3<1 ", 3)
        assert s.constraints == (Constraint(1, 2), Constraint(3, 1))

    def test_empty_string(self):
        assert parse_constraints("", 4).constraints == ()
        assert parse_constraints("   ", 4).constraints == ()

    def test_repeats_collapse(self):
        s = parse_constraints("1<2,1<2", 3)
        assert s.constraints == (Constraint(1, 2),)

    def test_bad_formats(self):
        for text in ["1", "1<", "<2", "1<2<3", "a<b", "1>2", "1<2;2<3"]:
            with pytest.raises(ValueError):
                parse_constraints(text, 4)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            parse_constraints("1<5", 4)

    def test_malformed_chunk_reported_before_labels_are_checked(self):
        with pytest.raises(ValueError, match="abc"):
            parse_constraints("1<99,abc", 3)

    def test_builds_one_set(self, monkeypatch):
        built = []
        check = ConstraintSet._validate

        def counted(self):
            built.append(len(self.constraints))
            check(self)

        monkeypatch.setattr(ConstraintSet, "_validate", counted)
        s = parse_constraints(chain_text(101), 101)
        assert len(s.constraints) == 100
        assert built == [100]


class TestFeasibleCount:
    def test_unconstrained_is_factorial(self):
        for n in range(1, 8):
            assert feasible_count(ConstraintSet.empty(n)) == math.factorial(n)

    def test_single_constraint_halves(self):
        assert feasible_count(parse_constraints("1<2", 3)) == 3

    def test_full_chain_pins_one(self):
        for n in range(2, 10):
            text = ",".join(f"{k}<{k + 1}" for k in range(1, n))
            assert feasible_count(parse_constraints(text, n)) == 1

    def test_contradiction_counts_zero(self):
        assert feasible_count(parse_constraints("1<2,2<1", 3)) == 0
        assert feasible_count(parse_constraints("1<2,2<3,3<1", 4)) == 0

    def test_star_pattern(self):
        # label 1 below the other three: the 3! orders of {2,3,4} remain
        assert feasible_count(parse_constraints("1<2,1<3,1<4", 4)) == 6

    def test_independent_pairs_multiply_down(self):
        # each of two disjoint pairs halves 4! independently
        assert feasible_count(parse_constraints("1<2,3<4", 4)) == 6

    def test_matches_brute_force_exhaustively_small(self):
        pairs = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
        for picks in itertools.combinations(pairs, 2):
            s = ConstraintSet(4, tuple(Constraint(a, b) for a, b in picks))
            assert feasible_count(s) == feasible_count_brute(s)

    def test_matches_brute_force_random(self):
        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(2, 9)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            k = rng.randint(0, min(len(pairs), 8))
            s = ConstraintSet(n, tuple(Constraint(a, b) for a, b in rng.sample(pairs, k)))
            assert feasible_count(s) == feasible_count_brute(s)

    def test_size_limits(self):
        with pytest.raises(SizeLimitError):
            feasible_count(ConstraintSet.empty(DP_LIMIT + 1))
        with pytest.raises(SizeLimitError):
            feasible_count_brute(ConstraintSet.empty(BRUTE_LIMIT + 1))

    def test_large_n_within_limit(self):
        assert feasible_count(ConstraintSet.empty(12)) == math.factorial(12)


class TestFeasibleCountOracles:
    @settings(max_examples=200, deadline=None)
    @given(random_sets(1, BRUTE_LIMIT - 1, lambda n: 2 * n))
    def test_matches_brute_force(self, s):
        assert feasible_count(s) == feasible_count_brute(s)

    @settings(max_examples=100, deadline=None)
    @given(random_sets(2, BRUTE_LIMIT - 1, lambda n: n * (n - 1), acyclic=True))
    def test_dense_acyclic_matches_brute_force(self, s):
        assert feasible_count(s) == feasible_count_brute(s)

    @settings(max_examples=30, deadline=None)
    @given(random_sets(10, 14, lambda n: n // 2))
    def test_sparse_matches_reference(self, s):
        assert feasible_count(s) == reference_count(s)

    @settings(max_examples=30, deadline=None)
    @given(random_sets(10, 14, lambda n: 3 * n, acyclic=True))
    def test_dense_matches_reference(self, s):
        assert feasible_count(s) == reference_count(s)

    @settings(max_examples=30, deadline=None)
    @given(random_sets(10, 14, lambda n: 3 * n))
    def test_dense_with_cycles_matches_reference(self, s):
        assert feasible_count(s) == reference_count(s)

    @settings(max_examples=30, deadline=None)
    @given(connected_sets(10, 14))
    def test_connected_matches_reference(self, s):
        assert feasible_count(s) == reference_count(s)

    @settings(max_examples=30, deadline=None)
    @given(connected_sets(2, 7), random_sets(1, 7, lambda n: n))
    def test_disjoint_union_is_multinomial(self, a, b):
        n = a.n + b.n
        union = constraint_set(n, shifted(a, 0) + shifted(b, a.n))
        want = math.comb(n, a.n) * feasible_count(a) * feasible_count(b)
        assert feasible_count(union) == want
        if n >= 10:
            assert feasible_count(union) == reference_count(union)

    def test_disjoint_chains_past_brute_limit(self):
        # chains of 5, 4 and 5 labels plus two free labels: 16!/(5! 4! 5!)
        pairs = [(v, v + 1) for v in (1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13)]
        s = constraint_set(16, pairs)
        assert feasible_count(s) == math.factorial(16) // (120 * 24 * 120)

    def test_unconstrained_at_limit(self):
        s = ConstraintSet.empty(DP_LIMIT)
        assert feasible_count(s) == math.factorial(DP_LIMIT)

    def test_cycle_in_one_component_zeroes_all(self):
        s = parse_constraints("1<2,2<3,3<1,4<5", 16)
        assert feasible_count(s) == 0


class TestCountingPastBruteForce:
    @settings(max_examples=100, deadline=None)
    @given(series_parallel(1, DP_LIMIT))
    @example(  # the star: label 1 below all others
        (
            constraint_set(DP_LIMIT, [(1, k) for k in range(2, DP_LIMIT + 1)]),
            math.factorial(DP_LIMIT - 1),
        )
    )
    def test_series_parallel_matches_closed_form(self, order):
        s, count = order
        assert feasible_count(s) == count

    @settings(max_examples=60, deadline=None)
    @given(prime_orders(14))
    def test_prime_orders_match_reference(self, s):
        assert feasible_count(s) == reference_count(s)

    def test_fences_count_alternating_permutations(self):
        for n in range(1, DP_LIMIT + 1):
            s = constraint_set(n, fence(list(range(1, n + 1))))
            assert feasible_count(s) == zigzag(n)

    @settings(max_examples=40, deadline=None)
    @given(random_sets(2, 12, lambda n: 2 * n, acyclic=True))
    def test_every_pair_splits_or_keeps_the_count(self, s):
        # an incomparable pair splits the orders between its two
        # orientations; a comparable one keeps them all, and its reverse
        # none
        total = feasible_count(s)
        below = closure(s)
        for a, b in itertools.combinations(range(1, s.n + 1), 2):
            up, down = feasible_count(with_pair(s, a, b)), feasible_count(with_pair(s, b, a))
            if below[a][b]:
                assert (up, down) == (total, 0)
            elif below[b][a]:
                assert (up, down) == (0, total)
            else:
                assert up + down == total and up > 0 and down > 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            random_sets(2, DP_LIMIT, lambda n: 2 * n, acyclic=True),
            series_parallel(2, DP_LIMIT).map(lambda order: order[0]),
            prime_orders(DP_LIMIT),
        )
    )
    def test_some_pair_is_balanced(self, s):
        # Kahn and Saks (1984): a poset that is not a chain has a pair a, b
        # with 3/11 <= e(P + a<b) / e(P) <= 8/11
        total = feasible_count(s)
        if total == 1:
            return  # a chain
        for a, b in itertools.combinations(range(1, s.n + 1), 2):
            if 3 * total <= 11 * feasible_count(with_pair(s, a, b)) <= 8 * total:
                return
        pytest.fail(f"no pair of {s} splits its {total} orders within 3/11..8/11")


class TestContradiction:
    """`feasible_count` is 0 exactly where Kahn's order finds a cycle."""

    def test_acyclic_is_fine(self):
        s = parse_constraints("1<2,2<3,1<3", 3)
        assert not is_contradictory(s) and feasible_count(s) == 1

    def test_two_cycle(self):
        s = parse_constraints("1<2,2<1", 2)
        assert is_contradictory(s) and feasible_count(s) == 0

    def test_longer_cycle(self):
        s = parse_constraints("1<2,2<3,3<4,4<1", 4)
        assert is_contradictory(s) and feasible_count(s) == 0

    def test_agrees_with_zero_count(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 7)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            k = rng.randint(0, min(len(pairs), 7))
            s = ConstraintSet(n, tuple(Constraint(a, b) for a, b in rng.sample(pairs, k)))
            assert is_contradictory(s) == (feasible_count(s) == 0)

    @settings(max_examples=200, deadline=None)
    @given(random_sets(1, DP_LIMIT, lambda n: n + 4))
    def test_cycle_iff_zero_count(self, s):
        assert is_contradictory(s) == (feasible_count(s) == 0)

    def test_long_chain_without_recursion(self):
        chain = parse_constraints(chain_text(5000), 5000)
        assert not is_contradictory(chain)
        assert is_contradictory(ConstraintSet(5000, chain.constraints + (Constraint(5000, 1),)))


class TestIsolatesSorted:
    def test_chain_isolates(self):
        assert isolates_sorted(parse_constraints("1<2,2<3", 3))

    def test_underdetermined(self):
        assert not isolates_sorted(parse_constraints("1<2", 3))

    def test_unique_but_not_sorted(self):
        # pins the single assignment with label 2 lowest, not the sorted one
        s = parse_constraints("2<1,1<3", 3)
        assert feasible_count(s) == 1
        assert not isolates_sorted(s)

    def test_contradictory_is_not_isolating(self):
        assert not isolates_sorted(parse_constraints("1<2,2<1", 2))

    def test_redundant_edges_still_isolate(self):
        assert isolates_sorted(parse_constraints("1<2,2<3,1<3", 3))

    def test_single_label(self):
        assert isolates_sorted(ConstraintSet.empty(1))

    @settings(max_examples=300, deadline=None)
    @given(near_chains(1, DP_LIMIT))
    def test_matches_unique_sorted_survivor(self, s):
        want = all(c.lo < c.hi for c in s.constraints) and feasible_count(s) == 1
        assert isolates_sorted(s) == want

    def test_past_the_counting_limit(self):
        chain = parse_constraints(chain_text(50), 50)
        assert isolates_sorted(chain)
        gap = ConstraintSet(50, tuple(c for c in chain.constraints if c.lo != 25))
        assert not isolates_sorted(gap)


class TestInstrument:
    def test_merge_on_three_keys(self):
        run = instrument("merge", (3, 1, 2))
        rows = [
            (s.constraint, s.feasible_before, s.feasible_after) for s in run.trace
        ]
        assert rows == [
            (Constraint(1, 2), 6, 3),
            (Constraint(1, 3), 3, 2),
            (Constraint(2, 3), 2, 1),
        ]
        assert run.final_feasible == 1

    def test_every_algorithm_sorts_every_small_input(self):
        for algorithm in ALGORITHMS:
            for ranks in itertools.permutations(range(1, 5)):
                run = instrument(algorithm, ranks)
                assert run.final_feasible == 1
                assert isolates_sorted(run.constraints)

    def test_counts_never_increase(self):
        for algorithm in ALGORITHMS:
            run = instrument(algorithm, (4, 2, 5, 1, 3))
            prev = math.factorial(5)
            for step in run.trace:
                assert step.feasible_before == prev
                assert step.feasible_after <= step.feasible_before
                prev = step.feasible_after

    def test_bits_telescope_to_total_information(self):
        for algorithm in ALGORITHMS:
            run = instrument(algorithm, (2, 4, 1, 3))
            assert math.isclose(run.total_bits, math.log2(24), abs_tol=1e-9)

    def test_total_bits_is_log2_n_factorial_exactly(self):
        # from the exact counts, not a float sum of the steps' bits, which drifts
        rng = random.Random(2718)
        for n in range(1, 15):
            inputs = [tuple(range(n, 0, -1))]
            inputs += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(4)]
            for algorithm in ALGORITHMS:
                for ranks in inputs:
                    run = instrument(algorithm, ranks)
                    assert run.final_feasible == 1
                    assert run.total_bits == math.log2(math.factorial(n)), (algorithm, ranks)

    def test_duplicate_comparisons_carry_zero_bits(self):
        # a pair asked about twice must contract nothing the second time;
        # note the converse fails: a fresh constraint already implied by
        # transitivity also carries zero bits
        found = False
        for algorithm in ALGORITHMS:
            for ranks in itertools.permutations(range(1, 6)):
                run = instrument(algorithm, ranks)
                seen = set()
                for step in run.trace:
                    if step.constraint in seen:
                        found = True
                        assert step.bits == 0.0
                        assert step.feasible_before == step.feasible_after
                    seen.add(step.constraint)
                assert len(seen) == len(run.constraints.constraints)
        assert found, "no algorithm ever repeated a comparison on n = 5"

    def test_bits_are_nonnegative(self):
        for algorithm in ALGORITHMS:
            run = instrument(algorithm, (3, 5, 2, 6, 1, 4))
            assert all(s.bits >= 0.0 for s in run.trace)

    def test_some_orientation_is_at_most_one_bit(self):
        # a single comparison may beat one bit (the observed branch can be
        # the rarer one), but the two possible outcomes cannot both do so:
        # re-count each step under the flipped orientation and check the min
        for algorithm in ALGORITHMS:
            for ranks in [(4, 1, 5, 2, 3), (2, 3, 1, 5, 4), (5, 4, 3, 2, 1)]:
                run = instrument(algorithm, ranks)
                active = ()
                for step in run.trace:
                    c = step.constraint
                    if c in active:
                        continue  # repeat: carries zero bits by construction
                    flipped_count = feasible_count(
                        ConstraintSet(len(ranks), active + (Constraint(c.hi, c.lo),))
                    )
                    flipped_bits = (
                        math.inf
                        if flipped_count == 0
                        else math.log2(step.feasible_before / flipped_count)
                    )
                    assert min(step.bits, flipped_bits) <= 1.0 + 1e-12
                    active += (c,)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(ALGORITHMS),
        st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))),
    )
    @example("heap", (5, 9, 2, 7, 1, 8, 3, 6, 4))
    @example("quick", (10, 9, 8, 7, 6, 5, 4, 3, 2, 1))
    @example("insertion", (6, 2, 11, 9, 4, 1, 10, 3, 7, 5, 8))
    @example("merge", (7, 12, 3, 9, 1, 11, 5, 2, 10, 6, 4, 8))
    def test_ledger_matches_enumeration_of_the_pairs_seen(self, algorithm, ranks):
        # every row recounts the distinct pairs so far from scratch, and the
        # run's set lists them in the order they were first compared
        run = instrument(algorithm, ranks)
        oracle = feasible_count_brute if len(ranks) <= 8 else reference_count
        seen = {}
        for step in run.trace:
            seen[step.constraint] = None
            fresh = ConstraintSet(len(ranks), tuple(seen))
            assert step.feasible_after == oracle(fresh)
        assert run.constraints.constraints == tuple(seen)

    def test_builds_one_set(self, monkeypatch):
        built = []
        check = ConstraintSet._validate

        def counted(self):
            built.append(len(self.constraints))
            check(self)

        monkeypatch.setattr(ConstraintSet, "_validate", counted)
        run = instrument("quick", tuple(range(DP_LIMIT, 0, -1)))
        assert run.comparisons == math.comb(DP_LIMIT, 2)
        assert built == [len(run.constraints.constraints)]

    def test_worst_input_meets_information_bound(self):
        # no per-input bound exists (a lucky input finishes early), but the
        # costliest input of a correct sort cannot beat ceil(log2 n!)
        bound = math.ceil(math.log2(math.factorial(4)) - 1e-12)
        for algorithm in ALGORITHMS:
            worst = max(
                instrument(algorithm, ranks).comparisons
                for ranks in itertools.permutations(range(1, 5))
            )
            assert worst >= bound

    def test_sorted_input_costs(self):
        # on already sorted input quicksort degrades to the quadratic worst
        # case while merge stays linearithmic
        assert instrument("quick", (1, 2, 3, 4, 5, 6)).comparisons == 15
        assert instrument("merge", (1, 2, 3, 4, 5, 6)).comparisons <= 10

    def test_accepts_permutation_object(self):
        run = instrument("heap", Permutation.reverse(5))
        assert run.input == Permutation.reverse(5)
        assert run.final_feasible == 1

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            instrument("bubble", (2, 1))

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            instrument("merge", tuple(range(1, DP_LIMIT + 2)))


class TestComparisonCount:
    def test_quick_worst_case_quadratic(self):
        assert instrument("quick", range(1, 8)).comparisons == 21
        assert instrument("quick", range(7, 0, -1)).comparisons == 21

    def test_insertion_is_a_linear_backward_scan(self):
        # key k is compared with each larger key before it, and once more
        # with the smaller key where the scan stops, if there is one
        for n in range(1, 7):
            for ranks in itertools.permutations(range(1, n + 1)):
                expected = sum(
                    sum(r > ranks[k] for r in ranks[:k]) + any(r < ranks[k] for r in ranks[:k])
                    for k in range(1, n)
                )
                assert instrument("insertion", ranks).comparisons == expected, ranks

    def test_merge_bound_at_the_size_limit(self):
        # worst case of top-down merge: n ceil(lg n) - 2**ceil(lg n) + 1
        n = DP_LIMIT
        k = math.ceil(math.log2(n))
        rng = random.Random(64)
        inputs = [tuple(range(n, 0, -1))]
        inputs += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(20)]
        for ranks in inputs:
            run = instrument("merge", ranks)
            assert run.comparisons <= n * k - 2**k + 1, ranks
            assert run.final_feasible == 1


class TestMergeRecurrence:
    def test_worst_case_matches_recurrence(self):
        # T(n) = T(floor(n/2)) + T(ceil(n/2)) + n - 1 bounds the top-down
        # variant; the bound is attained by some input for n <= 7
        def t(n):
            return 0 if n <= 1 else t(n // 2) + t(n - n // 2) + n - 1

        for n in range(2, 8):
            counts = {
                instrument("merge", ranks).comparisons
                for ranks in itertools.permutations(range(1, n + 1))
            }
            assert max(counts) == t(n)


class TestReductionReport:
    def test_fields_line_up(self):
        run = instrument("insertion", (4, 3, 2, 1))
        assert run.algorithm == "insertion"
        assert run.comparisons == len(run.trace)
        assert math.isclose(run.total_bits, math.log2(24), abs_tol=1e-12)
        assert run.trace[0].feasible_before == 24
        assert run.final_feasible == 1
        assert 0.0 <= run.halving_fraction <= 1.0
        assert run.max_bits == max(s.bits for s in run.trace)

    def test_halving_fraction_counts_big_steps(self):
        run = instrument("merge", (3, 1, 2))
        # the trace contracts 6 -> 3 -> 2 -> 1: bits 1, 0.585, 1
        assert math.isclose(run.halving_fraction, 2 / 3, abs_tol=1e-12)

    def test_run_without_comparisons(self):
        # n = 1 is sorted as given: no step, so no share of halving steps
        run = instrument("merge", (1,))
        assert run.trace == ()
        assert (run.halving_fraction, run.max_bits, run.final_feasible) == (0.0, 0.0, 1)

    def test_max_bits_can_exceed_one(self):
        found = False
        for ranks in itertools.permutations(range(1, 5)):
            if instrument("insertion", ranks).max_bits > 1.0 + 1e-9:
                found = True
        assert found, "no insertion-sort comparison ever beat one bit on n = 4"
