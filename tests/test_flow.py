import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permflow.flow
from permflow import (
    Permutation,
    StateVector,
    crossing_events,
    disorder_at,
    disorder_squared,
    estimate_sorting,
    flow_state,
    hyperplane_sum,
    in_hyperplane,
    info_lower_bound,
    instrument,
    inversions,
    reverse_disorder,
    sample_trace,
    time_to_epsilon,
    vertex_of,
)
from permflow.cli import _seeded_shuffle

from crossing_oracle import reference_crossing_events, reference_crossing_time, replay_schedule

LN2 = math.log(2)

#: A hyperplane start (n = 39): the rounded ratio passes for x_16 < x_38, which never meet
ULP_APART = [float(k) for k in range(1, 40)]
ULP_APART[15] = 4.369176445368342
ULP_APART[37] = 4.369176445368343  # one ulp above x_16
ULP_APART[38] = 84.26164710926332


def random_hyperplane_state(n, rng):
    """A random point on the hyperplane sum(x) = n(n+1)/2."""
    x = np.array([rng.uniform(-2, 2) for _ in range(n)])
    x += (hyperplane_sum(n) - x.sum()) / n
    return x


def ulp_apart_start(rng):
    """A random hyperplane start, n = 3-39, with x_i one ulp above x_j for i < j: (x, i, j).

    A third coordinate takes up the change, so the sum stays on the hyperplane.
    """
    n = rng.randint(3, 39)
    x = random_hyperplane_state(n, rng)
    i, j, k = rng.sample(range(n), 3)
    i, j = min(i, j), max(i, j)
    was = x[i]
    x[i] = np.nextafter(x[j], np.inf)
    x[k] += was - x[i]
    return x.tolist(), i + 1, j + 1


def bits(events):
    """(t, i, j, value) rows with each real as its exact hex."""
    return [(t.hex(), i, j, value.hex()) for t, i, j, value in events]


def event_bits(schedule):
    columns = (schedule.t, schedule.i, schedule.j, schedule.meeting_values())
    return bits(zip(*(column.tolist() for column in columns)))


def reference_bits(x0):
    return bits(reference_crossing_events(x0))


@st.composite
def vertex_starts(draw, max_n=200):
    n = draw(st.integers(1, max_n))
    return [float(r) for r in draw(st.permutations(range(1, n + 1)))]


@st.composite
def hyperplane_starts(draw):
    offsets = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
    n = len(offsets)
    x = np.arange(1, n + 1) + np.array(offsets)
    return (x + (hyperplane_sum(n) - x.sum()) / n).tolist()


@st.composite
def tied_starts(draw):
    # few distinct values: many exactly equal coordinates and equal meeting times
    values = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0, 7.0]), min_size=1, max_size=40))
    n = len(values)
    x = np.array(values)
    return (x + (hyperplane_sum(n) - x.sum()) / n).tolist()


# subnormals and the ends of the range, then anything in between
finite_positive = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-170, 1e-160, 1.0, 1e154, 1e308]),
    st.floats(5e-324, 1e308),
)


class TestFlowState:
    def test_reversed_triple_meets_at_ln2(self):
        x = flow_state(vertex_of(Permutation.reverse(3)), LN2)
        assert np.allclose(x.coords, [2.0, 2.0, 2.0], atol=1e-12)

    def test_sorted_is_fixed_point(self):
        start = vertex_of(Permutation.identity(4))
        for t in [0.0, 0.3, 2.0, 17.0]:
            assert np.allclose(flow_state(start, t).coords, start.coords, atol=1e-12)

    def test_long_time_limit(self):
        x = flow_state(vertex_of(Permutation.reverse(3)), 50.0)
        assert np.allclose(x.coords, [1.0, 2.0, 3.0], atol=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            flow_state(vertex_of(Permutation.reverse(3)), -0.1)

    def test_rejects_off_hyperplane_start(self):
        for start in ([1.0, 2.0, 4.0], [math.nan, 2.0, 4.0], [math.inf, -math.inf, 6.0]):
            with pytest.raises(ValueError):
                flow_state(start, 1.0)

    def test_accepts_large_n_state_off_the_sum_by_rounding(self):
        # sum(x) off n(n+1)/2 by 1e-8, a drift rounding can leave at large n:
        # past the absolute 1e-9, inside the relative bound (5.7e-6 here)
        coords = vertex_of(_seeded_shuffle(5000, 10)).coords.copy()
        coords[0] += 1e-8
        x = StateVector(coords)
        assert abs(float(x.coords.sum()) - hyperplane_sum(5000)) > 1e-9
        assert in_hyperplane(x)
        assert flow_state(x, 1.0).n == 5000
        assert len(sample_trace(x, [0.0, 1.0]).samples) == 2

    def test_stays_on_hyperplane(self):
        rng = random.Random(7)
        for _ in range(25):
            x0 = random_hyperplane_state(6, rng)
            t = rng.uniform(0, 10)
            total = float(flow_state(x0, t).coords.sum())
            assert abs(total - hyperplane_sum(6)) <= 1e-9


class TestDisorderDecay:
    def test_worked_example_values(self):
        start = vertex_of(Permutation.reverse(3))
        assert disorder_at(start, 0.0) == 8.0
        assert math.isclose(disorder_at(start, LN2), 2.0, rel_tol=1e-12)

    def test_exactness_on_random_states(self):
        # closed form vs measured, 100 states x 100 times
        rng = random.Random(123)
        for _ in range(100):
            x0 = random_hyperplane_state(10, rng)
            d0 = disorder_squared(x0)
            for _ in range(100):
                t = rng.uniform(0, 10)
                measured = disorder_squared(flow_state(x0, t))
                assert abs(measured - disorder_at(x0, t)) <= 1e-12 * d0

    def test_zero_everywhere_for_sorted(self):
        start = vertex_of(Permutation.identity(5))
        for t in [0.0, 1.0, 9.0]:
            assert disorder_at(start, t) == 0.0

    @pytest.mark.parametrize(
        "start",
        [
            [3.0, 2.0, 1.0],
            [1.0, 2.0, 3.0 + 5e-10],
            [1.0, 2.0, 3.0 + 2e-9],
            [1.0, 2.0, 4.0],
            [0.0, 0.0, 7.0],
            [5.0],
            [1.0],
            [math.nan, 2.0, 4.0],
            [math.inf, -math.inf, 6.0],
        ],
    )
    def test_rejects_exactly_what_flow_state_rejects(self, start):
        try:
            flow_state(start, 1.0)
        except ValueError:
            with pytest.raises(ValueError, match="hyperplane"):
                disorder_at(start, 1.0)
        else:
            assert disorder_at(start, 1.0) == disorder_squared(start) * math.exp(-2.0)


class TestNonFiniteTime:
    # t < 0 is False for NaN, so each check is written as not (t >= 0)
    @pytest.mark.parametrize(
        "call",
        [
            lambda x0: flow_state(x0, math.nan),
            lambda x0: disorder_at(x0, math.nan),
            lambda x0: sample_trace(x0, [math.nan]),
            lambda x0: sample_trace(x0, [0.0, math.nan]),
        ],
        ids=[
            "flow_state",
            "disorder_at",
            "sample_trace-only",
            "sample_trace-second",
        ],
    )
    def test_nan_time_raises(self, call):
        with pytest.raises(ValueError, match="t must be >=? 0, got nan$"):
            call(vertex_of(Permutation.reverse(3)))

    def test_infinite_time_gives_the_sorted_vertex(self):
        x0 = vertex_of(Permutation.reverse(4))
        assert flow_state(x0, math.inf).coords.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert disorder_at(x0, math.inf) == 0.0
        last = sample_trace(x0, [0.0, 1.0, math.inf]).samples[-1]
        assert last.state.coords.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert last.disorder == 0.0


class TestTimeToEpsilon:
    def test_worked_example(self):
        assert math.isclose(time_to_epsilon(8.0, 1.0), 0.5 * math.log(8), rel_tol=1e-12)

    def test_threshold_reached_exactly(self):
        for d0, eps in [(8.0, 1.0), (40.0, 0.5), (333300.0, 1.0)]:
            t = time_to_epsilon(d0, eps)
            assert math.isclose(d0 * math.exp(-2 * t), eps * eps, rel_tol=1e-12)

    def test_already_inside_threshold(self):
        assert time_to_epsilon(1.0, 1.0) == 0.0
        assert time_to_epsilon(0.5, 1.0) == 0.0
        assert time_to_epsilon(0.0, 1.0) == 0.0

    def test_large_exact_disorder(self):
        assert reverse_disorder(100) == 333300
        t = time_to_epsilon(333300.0, 1.0)
        assert math.isclose(t, 0.5 * math.log(333300), rel_tol=1e-12)

    def test_growth_window(self):
        # t(reverse, eps=1) tracks (3/2) ln n
        for n in [100, 1000, 10**4, 10**5]:
            t = time_to_epsilon(float(reverse_disorder(n)), 1.0)
            assert 1.3 <= t / math.log(n) <= 1.7

    def test_validation(self):
        for eps in [0.0, math.nan, math.inf]:
            with pytest.raises(ValueError):
                time_to_epsilon(8.0, eps)
        for d0 in [-1.0, math.nan, math.inf]:
            with pytest.raises(ValueError):
                time_to_epsilon(d0, 1.0)

    @pytest.mark.parametrize("d0, eps", [(10.0, 1e-170), (2660.0, 1e-160), (8.0, 5e-324),
                                         (1e300, 1e-10), (1e-300, 1e-160)])
    def test_finite_where_epsilon_squared_underflows(self, d0, eps):
        # eps^2 underflows to 0 or to a subnormal, or d0/eps^2 overflows
        t = time_to_epsilon(d0, eps)
        assert math.isclose(t, 0.5 * math.log(d0) - math.log(eps), rel_tol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e308), finite_positive)
    def test_finite_for_every_finite_input(self, d0, eps):
        t = time_to_epsilon(d0, eps)
        assert math.isfinite(t) and t >= 0.0


class TestCrossingEvents:
    def test_reverse_triple(self):
        events = crossing_events(vertex_of(Permutation.reverse(3)))
        assert list(zip(events.i.tolist(), events.j.tolist())) == [(1, 2), (1, 3), (2, 3)]
        assert all(math.isclose(t, LN2, rel_tol=1e-12) for t in events.t.tolist())
        assert all(math.isclose(v, 2.0, rel_tol=1e-12) for v in events.meeting_values().tolist())

    def test_sorted_has_none(self):
        assert len(crossing_events(vertex_of(Permutation.identity(4)))) == 0

    def test_counts_equal_inversions_small(self):
        for n in range(1, 6):
            for ranks in itertools.permutations(range(1, n + 1)):
                p = Permutation.of(ranks)
                events = crossing_events(vertex_of(p))
                assert len(events) == inversions(p), ranks

    def test_events_sorted_by_time_then_pair(self):
        events = crossing_events(vertex_of(Permutation.of((2, 3, 1))))
        keys = list(zip(events.t.tolist(), events.i.tolist(), events.j.tolist()))
        assert keys == sorted(keys)
        assert len(events) == 2

    def test_coordinates_really_meet(self):
        rng = random.Random(99)
        for _ in range(50):
            ranks = list(range(1, 7))
            rng.shuffle(ranks)
            start = vertex_of(Permutation.of(ranks))
            events = crossing_events(start)
            for t, i, j in zip(events.t.tolist(), events.i.tolist(), events.j.tolist()):
                x = flow_state(start, t)
                assert abs(x.coords[i - 1] - x.coords[j - 1]) < 1e-9

    def test_pairs_are_the_inversions(self):
        # on a vertex a pair meets iff its ranks are inverted, and each such
        # pair is one row with its lower index first
        for ranks in itertools.permutations(range(1, 6)):
            events = crossing_events(vertex_of(Permutation.of(ranks)))
            pairs = list(zip(events.i.tolist(), events.j.tolist()))
            inverted = {
                (i, j)
                for i, j in itertools.combinations(range(1, 6), 2)
                if ranks[i - 1] > ranks[j - 1]
            }
            assert len(pairs) == len(set(pairs)), ranks
            assert set(pairs) == inverted, ranks

    def test_vertex_times_are_integer_ratios(self):
        # a vertex pair meets where exp(-t) = (j - i) / (p_i - p_j + j - i)
        for ranks in itertools.permutations(range(1, 6)):
            events = crossing_events(vertex_of(Permutation.of(ranks)))
            for t, i, j in zip(events.t.tolist(), events.i.tolist(), events.j.tolist()):
                d = ranks[i - 1] - ranks[j - 1] + j - i
                assert 0 < j - i < d < 2 * len(ranks)
                assert t.hex() == (-math.log((j - i) / d)).hex(), (ranks, i, j)

    def test_state_vector_and_sequence_agree(self):
        ranks = (3, 1, 4, 5, 2)
        from_state = crossing_events(vertex_of(Permutation.of(ranks)))
        from_list = crossing_events([float(r) for r in ranks])
        for column in ("t", "i", "j", "offset"):
            assert getattr(from_state, column).tobytes() == getattr(from_list, column).tobytes()

    def test_event_times_positive(self):
        for ranks in itertools.permutations(range(1, 5)):
            for t in crossing_events(vertex_of(Permutation.of(ranks))).t.tolist():
                assert t > 0
                assert 0 < math.exp(-t) < 1

    @pytest.mark.parametrize(
        "start", [[0.0, 0.0, 7.0], [5.0], [math.nan, 2.0, 4.0], [math.inf, -math.inf, 6.0]]
    )
    def test_rejects_off_hyperplane_start(self, start):
        # checked once up front, so also when there is no pair to examine
        with pytest.raises(ValueError):
            crossing_events(start)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
    def test_events_are_the_pairs_the_oracle_meets(self, offsets):
        n = len(offsets)
        x = np.arange(1, n + 1) + np.array(offsets)
        x += (hyperplane_sum(n) - x.sum()) / n
        expected = {}
        for i, j in itertools.combinations(range(1, n + 1), 2):
            t = reference_crossing_time(x, i, j)
            if t is not None:
                expected[(i, j)] = t
        events = crossing_events(x)
        assert len(events) == len(expected)
        pairs = zip(events.i.tolist(), events.j.tolist())
        assert dict(zip(pairs, events.t.tolist())) == expected

    @settings(max_examples=60, deadline=None)
    @given(vertex_starts())
    def test_matches_reference_loop_on_vertex_starts(self, x0):
        assert event_bits(crossing_events(x0)) == reference_bits(x0)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(hyperplane_starts(), tied_starts()))
    # x_16 one ulp below x_38: the ratio alone would meet them at t = 1.1e-16
    @example(x0=ULP_APART)
    def test_matches_reference_loop_off_the_vertices(self, x0):
        assert event_bits(crossing_events(x0)) == reference_bits(x0)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(hyperplane_starts(), tied_starts()))
    @example(x0=ULP_APART)
    def test_every_pair_is_inverted_on_the_start(self, x0):
        # in exact arithmetic i < j meet iff x_i > x_j; no rounding lists a
        # pair that does not, or drops one that does
        events = crossing_events(x0)
        pairs = list(zip(events.i.tolist(), events.j.tolist()))
        assert sorted(pairs) == [
            (i, j)
            for i, j in itertools.combinations(range(1, len(x0) + 1), 2)
            if x0[i - 1] > x0[j - 1]
        ]

    def test_ulp_apart_pairs_are_listed_at_nonnegative_times(self):
        # fl(x_i - i) - fl(x_j - j) can round to j - i or below, so a ratio
        # test would drop the pair; it meets, at t = +0.0 or a few ulp later
        rng = random.Random(4711)
        for _ in range(300):
            x0, i, j = ulp_apart_start(rng)
            events = crossing_events(x0)
            pairs = list(zip(events.i.tolist(), events.j.tolist()))
            inverted = [
                (p, q)
                for p, q in itertools.combinations(range(1, len(x0) + 1), 2)
                if x0[p - 1] > x0[q - 1]
            ]
            assert (i, j) in pairs, (x0, i, j)
            assert sorted(pairs) == inverted, x0
            assert not np.signbit(events.t).any(), x0
            assert event_bits(events) == reference_bits(x0)

    @pytest.mark.parametrize("n", [1, 2, 3, 60, 200])
    def test_matches_reference_loop_on_reverse(self, n):
        # every pair meets at once at the centre: the order is the pair order
        x0 = vertex_of(Permutation.reverse(n))
        events = crossing_events(x0)
        assert event_bits(events) == reference_bits(x0.coords)
        assert events.t.dtype == events.meeting_values().dtype == np.float64

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(vertex_starts(max_n=40), hyperplane_starts(), tied_starts()),
        st.integers(1, 7) | st.integers(8, 400),
    )
    def test_row_blocks_match_reference_loop(self, x0, block):
        # 1-7 pairs make every block one row but the last; larger budgets
        # put several rows in the middle blocks too
        with mock.patch.object(permflow.flow, "_PAIR_BLOCK", block):
            assert event_bits(crossing_events(x0)) == reference_bits(x0)

    def test_memory_does_not_grow_with_the_triangle(self):
        # the whole-triangle pass peaked at 320 MB traced for these 7,998,000
        # pairs (two int64 index arrays alone are 128 MB); row blocks stay
        # near 3 MB
        x0 = vertex_of(Permutation.identity(4000))
        tracemalloc.start()
        try:
            events = crossing_events(x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == 0
        assert peak < 32_000_000

    @settings(max_examples=40, deadline=None)
    @given(vertex_starts(max_n=200))
    def test_vertex_order_is_the_exact_order(self, x0):
        # pair i < j meets at exp(t) = d / (j - i), d = p_i - p_j + j - i
        p = [int(v) for v in x0]
        exact = sorted(
            (Fraction(p[i - 1] - p[j - 1] + j - i, j - i), i, j)
            for i, j in itertools.combinations(range(1, len(p) + 1), 2)
            if p[i - 1] > p[j - 1]
        )
        events = crossing_events(x0)
        assert list(zip(events.i.tolist(), events.j.tolist())) == [(i, j) for _, i, j in exact]
        times = events.t.tolist()
        keys = [key for key, _, _ in exact]
        for t, key in zip(times, keys):
            assert math.isclose(math.exp(t), key, rel_tol=1e-12)
        # float ties are exactly the exact ties
        assert [s == t for s, t in zip(times, times[1:])] == [
            k == m for k, m in zip(keys, keys[1:])
        ]


class TestCrossingReplay:
    """The schedule told as the flow and as a sort: oracles that share no pair loop."""

    @settings(max_examples=150, deadline=None)
    @given(vertex_starts(max_n=60))
    def test_replay_on_vertex_starts(self, x0):
        replay_schedule(x0, crossing_events(x0))

    @pytest.mark.parametrize("n", [2, 3, 10, 39, 120])
    def test_replay_on_reverse(self, n):
        # every pair meets at ln 2: one group, one block of all n
        x0 = vertex_of(Permutation.reverse(n)).coords
        assert replay_schedule(x0, crossing_events(x0)) == 1

    @settings(max_examples=150, deadline=None)
    @given(vertex_starts(max_n=18))
    def test_insertion_sort_compares_each_crossing_pair_once(self, x0):
        # the comparisons of an inverted pair are the crossing pairs (i, j),
        # as values (p_j, p_i), each once; at most n - 1 others stop the scans
        p = [int(v) for v in x0]
        where = {v: k for k, v in enumerate(p)}
        compared = [(s.constraint.lo, s.constraint.hi) for s in instrument("insertion", p).trace]
        inverted = [(lo, hi) for lo, hi in compared if where[lo] > where[hi]]
        events = crossing_events(x0)
        crossing = [(p[j - 1], p[i - 1]) for i, j in zip(events.i.tolist(), events.j.tolist())]
        assert sorted(inverted) == sorted(crossing)
        assert len(compared) - len(inverted) <= len(p) - 1


class TestCrossingColumns:
    """The columns both `flow events` writers and `report` print from."""

    @staticmethod
    def check_columns(x0):
        events = crossing_events(x0)
        t, i, j, offset = events.t, events.i, events.j, events.offset
        assert t.dtype == offset.dtype == np.float64
        assert np.issubdtype(i.dtype, np.integer) and np.issubdtype(j.dtype, np.integer)
        assert t.shape == i.shape == j.shape == offset.shape == (len(events),)
        rows = list(zip(t.tolist(), i.tolist(), j.tolist()))
        assert rows == sorted(rows)
        x = np.asarray(x0, dtype=float).tolist()
        values = events.meeting_values().tolist()
        for (s, lo, hi), a, value in zip(rows, offset.tolist(), values):
            assert 1 <= lo < hi <= len(x)
            assert s.hex() == reference_crossing_time(x0, lo, hi).hex()
            assert a.hex() == (x[lo - 1] - lo).hex()
            assert value.hex() == float(flow_state(x0, s).coords[lo - 1]).hex()
        return rows

    @settings(max_examples=60, deadline=None)
    @given(vertex_starts(max_n=60))
    def test_vertex_start_columns(self, x0):
        rows = self.check_columns(x0)
        assert len(rows) == inversions(Permutation.of(int(v) for v in x0))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(hyperplane_starts(), tied_starts()))
    def test_hyperplane_start_columns(self, x0):
        self.check_columns(x0)

    def test_no_rows_at_n_one(self):
        events = crossing_events([1.0])
        assert len(events) == events.offset.size == events.meeting_values().size == 0
        assert np.issubdtype(events.i.dtype, np.integer)
        assert np.issubdtype(events.j.dtype, np.integer)


class TestEstimates:
    def test_estimate_sorting_reverse_triple(self):
        est = estimate_sorting(Permutation.reverse(3))
        assert math.isclose(est.continuous_time, 1.5 * LN2, rel_tol=1e-12)
        assert math.isclose(est.discrete_estimate, 4.5 * LN2, rel_tol=1e-12)
        assert est.d0 == 8.0
        assert est.crossing_count == 3

    def test_estimate_sorting_sorted_start_is_all_zero(self):
        for n in (1, 5):
            est = estimate_sorting(Permutation.identity(n), c=5e-324)
            assert (est.continuous_time, est.discrete_estimate, est.d0) == (0.0, 0.0, 0.0)
            assert est.crossing_count == 0

    def test_estimate_is_time_over_the_step_c_over_n(self):
        # t / (c/n), the count of dt = c/n steps in t, bit for bit
        p = Permutation.reverse(100)
        for c in (1.0, 0.25, 3.0):
            est = estimate_sorting(p, c=c)
            assert est.d0 == reverse_disorder(100) == 333300
            assert est.continuous_time == time_to_epsilon(333300.0, 1.0)
            assert est.discrete_estimate == est.continuous_time / (c / 100)

    def test_zero_when_d0_equals_epsilon_squared(self):
        est = estimate_sorting(Permutation.of([2, 1, 4, 3]), epsilon=2.0)
        assert est.d0 == 4.0
        assert est.continuous_time == est.discrete_estimate == 0.0

    def test_tracks_asymptote(self):
        n = 1000
        count = estimate_sorting(Permutation.reverse(n)).discrete_estimate
        asym = 1.5 * n * math.log(n)
        assert abs(count - asym) / asym < 0.10

    def test_tiny_epsilon(self):
        # eps^2 underflows to 0: the count is still (n/c)*(0.5 ln d0 - ln eps)
        est = estimate_sorting(Permutation.reverse(3), epsilon=1e-170)
        want = 3 * (0.5 * math.log(8.0) - math.log(1e-170))
        assert math.isclose(est.discrete_estimate, want, rel_tol=1e-12)

    def test_c_at_c_star_bounds_the_worst_case(self):
        # the c = 1 figure over ceil(log2 n!) peaks at 1.31798 at n = 10;
        # at c* = 1.318 the figure is at most ceil(log2 n!) for every n
        assert estimate_sorting(Permutation.reverse(10)).discrete_estimate > info_lower_bound(10)
        c_star = 1.318
        sizes = [*range(2, 2001), *(round(10 ** (k / 4)) for k in range(14, 21))]
        for n in sizes:
            est = estimate_sorting(Permutation.reverse(n), c=c_star)
            assert est.discrete_estimate <= info_lower_bound(n), n

    def test_estimate_sorting_validation(self):
        p = Permutation.reverse(4)
        for kwargs in [
            {"epsilon": 0.0},
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"c": -1.0},
            {"c": math.nan},
            {"c": math.inf},
            {"c": 0.0},
            # c/n is subnormal, so t / (c/n) overflows, or c/n underflows to 0
            {"c": 1e-310},
            {"c": 5e-324},
        ]:
            with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} "):
                estimate_sorting(p, **kwargs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 30),
        finite_positive,
        finite_positive,
    )
    def test_estimate_sorting_finite_or_names_c(self, n, eps, c):
        try:
            est = estimate_sorting(Permutation.reverse(n), epsilon=eps, c=c)
        except ValueError as exc:
            assert str(exc).startswith("c is too small")
            return
        figures = (est.continuous_time, est.discrete_estimate, est.d0)
        assert all(math.isfinite(v) for v in figures)

    def test_estimate_counts_match_events(self):
        for ranks in itertools.permutations(range(1, 5)):
            p = Permutation.of(ranks)
            est = estimate_sorting(p)
            assert est.crossing_count == len(crossing_events(vertex_of(p)))


class TestSampleTrace:
    def test_samples_obey_decay_law(self):
        start = vertex_of(Permutation.reverse(4))
        trace = sample_trace(start, [0.0, 0.5, 1.0, 2.0])
        d0 = trace.samples[0].disorder
        for s in trace.samples:
            assert math.isclose(s.disorder, d0 * math.exp(-2 * s.t), rel_tol=1e-12)

    def test_sample_at_zero_is_the_start(self):
        # a trace keeps no copy of its start: its sample at t = 0 is the start
        for ranks in itertools.permutations(range(1, 5)):
            x0 = vertex_of(Permutation.of(ranks))
            first = sample_trace(x0, [0.0, 1.0]).samples[0]
            assert first.t == 0.0
            assert first.state.coords.tobytes() == x0.coords.tobytes()
            assert first.disorder == disorder_squared(x0)

    def test_requires_increasing_times(self):
        start = vertex_of(Permutation.reverse(3))
        with pytest.raises(ValueError):
            sample_trace(start, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            sample_trace(start, [-1.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(vertex_starts(max_n=40), hyperplane_starts(), tied_starts()),
        st.lists(st.floats(0.0, 40.0), min_size=1, max_size=12, unique=True).map(sorted),
    )
    def test_samples_are_flow_state_and_disorder_at(self, x0, times):
        trace = sample_trace(x0, times)
        assert [s.t for s in trace.samples] == times
        for s in trace.samples:
            assert s.state.coords.tobytes() == flow_state(x0, s.t).coords.tobytes()
            assert s.disorder.hex() == disorder_at(x0, s.t).hex()

    def test_off_hyperplane_start_raises_when_sampled(self):
        with pytest.raises(ValueError):
            sample_trace([0.0, 0.0, 7.0], [1.0])
        with pytest.raises(ValueError, match="hyperplane"):
            sample_trace([0.0, 0.0, 7.0], [])
