import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permflow.projection
from permflow import (
    MAX_STEP,
    Permutation,
    ProjectedSample,
    STEP_LIMIT,
    UPDATE_LIMIT,
    SizeLimitError,
    StateVector,
    active_ties,
    as_state,
    disorder_squared,
    flow_state,
    in_hyperplane,
    integrate_projected,
    project_velocity,
    vertex_of,
)
from permflow.projection import _step_count


# --- reference: the per-step loop that groups and projects on every step ----


def reference_blocks(coords, tol):
    """Pure-Python tie grouping: sort by (value, index), join gaps <= tol."""
    order = sorted(range(len(coords)), key=lambda k: (coords[k], k))
    groups = [[order[0]]]
    for prev, k in zip(order, order[1:]):
        if coords[k] - coords[prev] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return tuple(tuple(sorted(k + 1 for k in g)) for g in groups)


def reference_grid(t_end, step):
    """End times of the Euler steps: k * step, and t_end for the last one.

    The last full step ends at t_end when it lands within 1e-12 of it;
    otherwise a shorter step is added.
    """
    full_steps = int(math.floor(t_end / step + 1e-12))
    times = [k * step for k in range(1, full_steps + 1)]
    if times and times[-1] >= t_end - 1e-12:
        times.pop()
    return [*times, t_end]


def reference_integrate(x0, t_end, step=MAX_STEP):
    """Euler loop that groups each state twice and runs PAV on every step.

    Ties join gaps of at most 1e-9 * n. Returns (t, coords, potential,
    active_block_count) per sample.
    """
    x0 = as_state(x0)
    tol = 1e-9 * x0.n
    times = reference_grid(t_end, step)

    def sample(t, coords):
        state = StateVector(coords)
        blocks = reference_blocks(state.coords, tol)
        return (
            t,
            state.coords,
            0.5 * disorder_squared(state),
            sum(1 for b in blocks if len(b) > 1),
        )

    targets = np.arange(1, x0.n + 1, dtype=float)
    x = x0.coords.copy()
    samples = [sample(0.0, x)]
    prev = 0.0
    for t in times:
        g = targets - x
        p = project_velocity(StateVector(x), g, reference_blocks(x, tol))
        x = x + (t - prev) * p
        prev = t
        samples.append(sample(t, x))
    return samples


def assert_matches_reference(x0, t_end, step=MAX_STEP):
    trace = integrate_projected(x0, t_end, step=step)
    want = reference_integrate(x0, t_end, step=step)
    assert len(trace.samples) == len(want)
    for got, (t, coords, potential, count) in zip(trace.samples, want):
        assert got.t == t
        assert got.state.coords.tobytes() == coords.tobytes()
        assert got.potential == potential
        assert got.active_block_count == count


def block_average(values, sizes):
    """Replace runs of consecutive ranks by their mean: a tied point of P_n."""
    mean_of = {}
    r = 1
    for size in sizes:
        group = range(r, min(r + size, len(values) + 1))
        for v in group:
            mean_of[v] = sum(group) / len(group)
        r += size
        if r > len(values):
            break
    return [mean_of.get(v, float(v)) for v in values]


def shuffled_vertices(seed, sizes):
    """Vertex starts of the given sizes, shuffled in turn by random.Random(seed)."""
    rng = random.Random(seed)
    vertices = []
    for n in sizes:
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        vertices.append([float(r) for r in ranks])
    return vertices


VERTEX_5, VERTEX_40, VERTEX_200 = shuffled_vertices(3, (5, 40, 200))


@st.composite
def starts(draw):
    """Vertex, block-averaged tied and facet starts of P_n."""
    n = draw(st.integers(2, 12))
    perm = draw(st.permutations(range(1, n + 1)))
    kind = draw(st.sampled_from(["vertex", "tied", "facet"]))
    if kind == "vertex":
        return [float(v) for v in perm]
    if kind == "tied":
        sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        return block_average(perm, sizes)
    low = draw(st.integers(2, n))
    return block_average(perm, [low])


class TestActiveTies:
    def test_all_equal_is_one_block(self):
        assert active_ties([2.0, 2.0, 2.0]) == ((1, 2, 3),)

    def test_strict_order_is_singletons(self):
        assert active_ties([1.0, 2.0, 3.0]) == ((1,), (2,), (3,))

    def test_partial_tie(self):
        assert active_ties([2.0, 2.0, 3.0]) == ((1, 2), (3,))

    def test_blocks_partition_all_indices(self):
        rng = random.Random(5)
        for _ in range(50):
            x = [rng.choice([1.0, 1.0, 2.0, 3.5]) for _ in range(6)]
            flat = sorted(i for block in active_ties(x) for i in block)
            assert flat == list(range(1, 7))

    def test_transitive_chaining(self):
        # consecutive gaps within 1e-9 * n = 4e-9 chain into one block even
        # though the extremes differ by more than that
        x = [1.0, 1.0 + 3e-9, 1.0 + 6e-9, 2.0]
        assert active_ties(x) == ((1, 2, 3), (4,))
        assert active_ties(x[:3]) == ((1,), (2,), (3,))  # 3e-9 is over 1e-9 * 3

    def test_grouping_ignores_position(self):
        assert active_ties([3.0, 1.0, 3.0]) == ((2,), (1, 3))


class TestProjectVelocity:
    def test_no_ties_passes_through(self):
        x = [1.0, 2.0, 3.0]
        g = [0.5, 0.25, -0.75]
        assert np.allclose(project_velocity(x, g), g)

    def test_order_preserving_velocity_untouched(self):
        # within the block the components already increase with the index
        p = project_velocity([2.0, 2.0, 2.0], [-1.0, 0.0, 1.0])
        assert np.allclose(p, [-1.0, 0.0, 1.0])

    def test_violating_pair_pools_to_average(self):
        p = project_velocity([2.0, 2.0, 3.0], [0.5, -0.5, 0.0])
        assert np.allclose(p, [0.0, 0.0, 0.0])

    def test_pooling_is_blockwise(self):
        # two separate ties; only the violating one pools
        x = [1.0, 1.0, 4.0, 4.0]
        g = [-0.5, 0.5, 1.0, -1.0]
        p = project_velocity(x, g)
        assert np.allclose(p, [-0.5, 0.5, 0.0, 0.0])

    def test_block_sum_preserved(self):
        rng = random.Random(11)
        for _ in range(100):
            x = sorted(rng.choice([1.0, 1.0, 2.0, 2.0, 5.0]) for _ in range(5))
            g = np.array([rng.uniform(-1, 1) for _ in range(5)])
            g -= g.mean()
            p = project_velocity(x, g)
            for block in active_ties(x):
                idx = np.array(block) - 1
                assert math.isclose(float(p[idx].sum()), float(g[idx].sum()), abs_tol=1e-12)

    def test_projection_identity_and_idempotence(self):
        # <g, p> = |p|^2 and projecting twice changes nothing
        rng = random.Random(23)
        for _ in range(200):
            x = [rng.choice([1.0, 1.0, 1.0, 3.0, 3.0]) for _ in range(5)]
            g = np.array([rng.uniform(-2, 2) for _ in range(5)])
            g -= g.mean()
            blocks = active_ties(x)
            p = project_velocity(x, g, blocks)
            assert math.isclose(float(np.dot(g, p)), float(np.dot(p, p)), abs_tol=1e-10)
            assert np.allclose(project_velocity(x, p, blocks), p, atol=1e-12)

    def test_pooled_components_non_decreasing(self):
        rng = random.Random(37)
        for _ in range(100):
            x = [2.0] * 6
            g = np.array([rng.uniform(-1, 1) for _ in range(6)])
            g -= g.mean()
            p = project_velocity(x, g)
            assert all(p[k] <= p[k + 1] + 1e-12 for k in range(5))

    def test_rejects_non_tangent_velocity(self):
        with pytest.raises(ValueError):
            project_velocity([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_velocity([1.0, 2.0, 3.0], [0.5, -0.5])


class TestIntegrateProjected:
    def test_decay_bound_from_vertices(self):
        rng = random.Random(41)
        for n in range(3, 8):
            for _ in range(4):
                ranks = list(range(1, n + 1))
                rng.shuffle(ranks)
                trace = integrate_projected(vertex_of(Permutation.of(ranks)), 3.0)
                v0 = trace.samples[0].potential
                for s in trace.samples:
                    assert s.potential <= v0 * math.exp(-2 * s.t) * (1 + 1e-6)

    def test_decay_bound_from_tied_boundary_points(self):
        for x0 in [
            [1.5, 1.5, 3.0],
            [2.0, 2.0, 2.0],
            [1.0, 2.5, 2.5, 4.0],
            [2.5, 2.5, 2.5, 2.5],
            [1.0, 2.0, 4.5, 4.5, 3.0],
        ]:
            trace = integrate_projected(x0, 4.0)
            v0 = trace.samples[0].potential
            for s in trace.samples:
                assert s.potential <= v0 * math.exp(-2 * s.t) * (1 + 1e-6)

    def test_potential_is_monotone(self):
        trace = integrate_projected(vertex_of(Permutation.reverse(5)), 2.0)
        pots = [s.potential for s in trace.samples]
        assert all(b <= a for a, b in zip(pots, pots[1:]))

    def test_converges_to_sorted_vertex(self):
        trace = integrate_projected([3.0, 2.0, 1.0], 10.0, step=1e-3)
        assert np.allclose(trace.final.coords, [1.0, 2.0, 3.0], atol=1e-3)

    def test_sorted_start_stays_put(self):
        trace = integrate_projected([1.0, 2.0, 3.0], 2.0)
        assert all(s.potential == 0.0 for s in trace.samples)
        assert np.allclose(trace.final.coords, [1.0, 2.0, 3.0])

    def test_barycenter_descends_on_schedule(self):
        trace = integrate_projected([2.0, 2.0, 2.0], 6.0)
        v0 = trace.samples[0].potential
        assert v0 == 1.0  # half of (1 + 0 + 1)
        for s in trace.samples:
            assert s.potential <= v0 * math.exp(-2 * s.t) * (1 + 1e-6)
        assert np.allclose(trace.final.coords, [1.0, 2.0, 3.0], atol=1e-2)

    def test_coordinate_sum_is_conserved(self):
        trace = integrate_projected(vertex_of(Permutation.reverse(6)), 5.0)
        total0 = float(trace.samples[0].state.coords.sum())
        for s in trace.samples:
            assert abs(float(s.state.coords.sum()) - total0) <= 1e-6

    def test_matches_closed_form_without_ties(self):
        # no two coordinates ever tie along this start, so the Euler path
        # must shadow the exact flow to first order in the step
        x0 = vertex_of(Permutation.of((2, 1, 3, 4)))
        step = 1e-3
        trace = integrate_projected(x0, 1.0, step=step)
        for s in trace.samples[:: 100]:
            exact = flow_state(x0, s.t)
            assert np.allclose(s.state.coords, exact.coords, atol=10 * step)

    def test_active_block_count_recorded(self):
        trace = integrate_projected([2.0, 2.0, 2.0], 0.05)
        assert trace.samples[0].active_block_count == 1
        assert trace.samples[-1].active_block_count == 0

    def test_sample_is_a_time_and_a_state(self):
        # the disorder, the potential and the tie-block count are read from the state
        assert [f.name for f in dataclasses.fields(ProjectedSample)] == ["t", "state"]
        s = ProjectedSample(t=0.0, state=StateVector([2.0, 2.0, 2.0]))
        assert s.disorder == 2.0  # 1 + 0 + 1
        assert s.potential == 1.0
        assert s.active_block_count == 1
        for s in integrate_projected([4.0, 1.0, 3.0, 2.0], 1.0).samples:
            assert s.disorder == disorder_squared(s.state) == 2 * s.potential

    def test_step_guard(self):
        with pytest.raises(ValueError):
            integrate_projected([3.0, 2.0, 1.0], 1.0, step=2 * MAX_STEP)
        with pytest.raises(ValueError):
            integrate_projected([3.0, 2.0, 1.0], 1.0, step=0.0)
        with pytest.raises(ValueError):
            integrate_projected([3.0, 2.0, 1.0], 0.0)

    @pytest.mark.parametrize("t_end", [0.7, 1.4, 2.3])
    @pytest.mark.parametrize("step", [0.01, 0.005])
    def test_last_sample_is_at_t_end(self, t_end, step):
        # the last full step lands about an ulp past t_end (140 * 0.01 is
        # 1.4000000000000001); it is lengthened or shortened to end there
        trace = integrate_projected([3.0, 2.0, 1.0], t_end, step=step)
        assert trace.samples[-1].t == t_end
        assert trace.samples[-2].t == (len(trace.samples) - 2) * step
        last = integrate_projected([3.0, 2.0, 1.0], t_end, step=step, times=[t_end]).final
        assert last.coords.tobytes() == trace.final.coords.tobytes()

    def test_lands_exactly_on_t_end(self):
        trace = integrate_projected([3.0, 2.0, 1.0], 0.025, step=0.01)
        assert trace.samples[-1].t == 0.025
        assert len(trace.samples) == 4  # t = 0, 0.01, 0.02, 0.025


class TestMatchesReferenceLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        x0=starts(),
        t_end=st.sampled_from([0.003, 0.05, 0.37, 1.0]),
        step=st.sampled_from([MAX_STEP, 0.005, 0.0037]),
    )
    @example(x0=VERTEX_5, t_end=1.4, step=0.01)
    def test_samples_bit_identical(self, x0, t_end, step):
        # the reference runs PAV on every step: on the pull it is the identity
        assert_matches_reference(x0, t_end, step=step)

    @pytest.mark.parametrize(
        "x0, gap",
        [
            ([1.0, 3.0, 2.0], 2.0),
            ([5.0, 1.0, 3.0, 2.0, 4.0], 10.0),
            ([0.95, 2.05], 1.5),
        ],
    )
    def test_pooling_cases_bit_identical(self, x0, gap):
        # grouped at a gap this wide, coordinates more than their index gap
        # apart share a block and PAV would pool the pull; these are not
        # ties, so the loop follows the unpooled pull as the oracle does
        g = np.arange(1.0, len(x0) + 1) - np.asarray(x0)
        wide = reference_blocks(np.asarray(x0), gap)
        assert not np.array_equal(project_velocity(x0, g, wide), g)
        assert_matches_reference(x0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        x0=starts(),
        t_end=st.sampled_from([0.003, 0.05, 0.37, 0.525, 1.0]),
        step=st.sampled_from([MAX_STEP, 0.005, 0.0037]),
    )
    @example(x0=[1.0, 3.0, 2.0], t_end=1.0, step=MAX_STEP)
    @example(x0=[5.0, 1.0, 3.0, 2.0, 4.0], t_end=1.0, step=MAX_STEP)
    @example(x0=[0.95, 2.05], t_end=1.0, step=MAX_STEP)
    @example(x0=VERTEX_5, t_end=0.525, step=0.01)
    @example(x0=VERTEX_40, t_end=0.525, step=0.01)
    @example(x0=VERTEX_200, t_end=0.525, step=0.01)
    def test_final_state_matches_product_form(self, x0, t_end, step):
        # sample k is v_s + (x0 - v_s) * prod(1 - h_i) over its k steps, up
        # to rounding, so its potential keeps to V0 * exp(-2t); the first
        # three starts chain into blocks wider than 1 at grouping gaps of 2,
        # 10 and 1.5, where pooling the pull would slow or stall the descent
        trace = integrate_projected(x0, t_end, step=step)
        x0 = np.asarray(x0, dtype=float)
        targets = np.arange(1.0, len(x0) + 1)
        grid = [0.0, *reference_grid(t_end, step)]
        assert [s.t for s in trace.samples] == grid
        v0 = trace.samples[0].potential
        factor = 1.0
        for s, prev, t in zip(trace.samples, [0.0, *grid], grid):
            factor *= 1 - (t - prev)
            want = targets + (x0 - targets) * factor
            assert np.allclose(s.state.coords, want, rtol=1e-12, atol=1e-12)
            assert s.potential <= v0 * math.exp(-2 * s.t) * (1 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.lists(
            st.sampled_from([0.5, 1.0, 1.0 + 1e-10, 1.0 + 5e-9, 2.0, 3.5, -1.0]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_active_ties_matches_reference_grouping(self, x):
        # 1 + 5e-9 joins 1 only from n = 5 on
        assert active_ties(x) == reference_blocks(np.asarray(x), 1e-9 * len(x))


def refuse_states(monkeypatch):
    """Make building any Euler sample fail, so a refusal is shown to come first."""

    def no_state(*args, **kwargs):
        raise AssertionError("built an Euler state for a refused request")

    monkeypatch.setattr(permflow.projection, "ProjectedSample", no_state)


class TestTimes:
    @settings(max_examples=80, deadline=None)
    @given(
        x0=starts(),
        t_end=st.sampled_from([0.003, 0.05, 0.37, 1.0]),
        step=st.sampled_from([MAX_STEP, 0.005, 0.0037]),
        data=st.data(),
    )
    def test_sampled_times_match_full_trace(self, x0, t_end, step, data):
        full = integrate_projected(x0, t_end, step=step).samples
        picked = sorted(
            data.draw(st.sets(st.integers(0, len(full) - 1), min_size=1), label="picked")
        )
        got = integrate_projected(x0, t_end, step=step, times=[full[k].t for k in picked])
        assert len(got.samples) == len(picked)
        for s, k in zip(got.samples, picked):
            want = full[k]
            assert s.t == want.t
            assert s.state.coords.tobytes() == want.state.coords.tobytes()
            assert s.potential == want.potential
            assert s.active_block_count == want.active_block_count

    @pytest.mark.parametrize(
        "times, match",
        [
            ([], "at least one"),
            ([0.02, 0.01], "strictly increasing"),
            ([0.01, 0.01], "strictly increasing"),
            ([0.01, 0.01 + 1e-12], r"0\.01 and 0\.010000000001 take one grid state"),
            ([0.05 - 1e-12, 0.05], "take one grid state"),
            ([0.0, 0.005], "off the Euler grid"),
            ([0.0, 0.0149], "off the Euler grid"),
            ([-0.01, 0.0], ">= 0"),
            ([0.0, math.nan], ">= 0"),
            ([0.0, math.inf], ">= 0"),
            ([0.0, 0.06], "off the Euler grid"),
        ],
    )
    def test_bad_times(self, times, match, monkeypatch):
        # t_end = 0.05 at the default step gives grid times 0, 0.01, ..., 0.05;
        # every check runs before the first state is built
        refuse_states(monkeypatch)
        with pytest.raises(ValueError, match=match):
            integrate_projected([3.0, 2.0, 1.0], 0.05, times=times)

    def test_times_within_tolerance_take_the_grid_state(self):
        # a time within 1e-9 * t of a grid time or of t_end records that state
        full = integrate_projected([3.0, 2.0, 1.0], 0.025, step=0.01).samples
        got = integrate_projected(
            [3.0, 2.0, 1.0], 0.025, step=0.01, times=[0.0, 0.01 + 1e-12, 0.025 - 1e-12]
        ).samples
        assert [s.t for s in got] == [0.0, 0.01, 0.025]
        for s, k in zip(got, [0, 1, 3]):
            assert s.state.coords.tobytes() == full[k].state.coords.tobytes()

    def test_no_step_runs_after_the_last_requested_time(self, monkeypatch):
        # each Euler step takes one velocity g = v_s - x with np.subtract
        steps = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def subtract(self, *args, **kwargs):
                steps.append(1)
                return np.subtract(*args, **kwargs)

        monkeypatch.setattr(permflow.projection, "np", CountingNumpy())
        trace = integrate_projected([3.0, 2.0, 1.0], 50.0, times=[0.0, 0.05])
        assert [s.t for s in trace.samples] == [0.0, 0.05]
        assert len(steps) == 5
        steps.clear()
        integrate_projected([3.0, 2.0, 1.0], 50.0, times=[0.0])
        assert steps == []

    def test_only_kept_states_are_grouped(self, monkeypatch):
        # integration sorts no state; each read of a sample's tie-block count
        # sorts that sample's state once, and reading its potential sorts none
        calls = []
        group = permflow.projection._group

        def spy(coords):
            calls.append(coords.size)
            return group(coords)

        monkeypatch.setattr(permflow.projection, "_group", spy)
        times = [0.0, 0.07, 2.5, 5.0]
        trace = integrate_projected(vertex_of(Permutation.reverse(30)), 5.0, times=times)
        assert [s.t for s in trace.samples] == times
        assert calls == []
        assert [s.potential for s in trace.samples] == [
            0.5 * disorder_squared(s.state) for s in trace.samples
        ]
        assert calls == []
        for k, s in enumerate(trace.samples, 1):
            assert s.active_block_count == 0  # the reversed start ties only at c = 1/2
            assert calls == [30] * k

    def test_memory_does_not_grow_with_t_end(self):
        # the full trace keeps 5,001 samples, each holding at least its n
        # float64 coordinates (about 2 KB a sample in all at n = 200)
        x0 = vertex_of(Permutation.reverse(200))
        peaks = []
        for times in (None, [0.0, 50.0]):
            tracemalloc.start()
            try:
                trace = integrate_projected(x0, 50.0, times=times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert trace.samples[-1].t == 50.0
        full, ends = peaks
        assert full > 5001 * x0.n * 8
        assert ends * 20 < full

    def test_long_small_step_run_stays_tangent(self):
        # at h = 0.0005 rounding drift in sum(x) peaks near 336 units of
        # n(n+1)/2 * 2**-52 (about 1.5e-9 at n = 200) when the state freezes;
        # the one hyperplane rule allows 2**11 of them
        x0 = vertex_of(Permutation.reverse(200))
        trace = integrate_projected(x0, 40.0, step=0.0005, times=[0.0, 40.0])
        assert np.allclose(trace.final.coords, np.arange(1.0, 201.0))
        assert in_hyperplane(trace.final)


class TestStepLimit:
    def test_limit_is_reachable(self):
        assert _step_count(STEP_LIMIT * MAX_STEP, MAX_STEP, 1) == STEP_LIMIT
        # the checks pass, and a request for the start alone runs no step
        trace = integrate_projected([1.0], STEP_LIMIT * MAX_STEP, times=[0.0])
        assert [s.t for s in trace.samples] == [0.0]

    @pytest.mark.parametrize(
        "t_end, step",
        [
            ((STEP_LIMIT + 1) * MAX_STEP, MAX_STEP),
            (STEP_LIMIT * MAX_STEP + 1e-6, MAX_STEP),
            (1e300, MAX_STEP),
            (1.0, 5e-324),
        ],
    )
    def test_over_limit_raises_before_building(self, t_end, step, monkeypatch):
        refuse_states(monkeypatch)
        with pytest.raises(SizeLimitError, match=f"{STEP_LIMIT} Euler steps"):
            _step_count(t_end, step, 3)
        # with every state recorded (times=None) and with sample times
        for times in (None, [0.0]):
            with pytest.raises(SizeLimitError, match=f"{STEP_LIMIT} Euler steps"):
                integrate_projected([3.0, 2.0, 1.0], t_end, step=step, times=times)

    @pytest.mark.parametrize("n, steps", [(200, STEP_LIMIT), (100_000, 200)])
    def test_update_limit_is_reachable(self, n, steps, monkeypatch):
        # one more coordinate is within STEP_LIMIT but over UPDATE_LIMIT
        t_end = steps * MAX_STEP
        assert _step_count(t_end, MAX_STEP, n) * n == UPDATE_LIMIT
        trace = integrate_projected(vertex_of(Permutation.identity(n)), t_end, times=[0.0])
        assert [s.t for s in trace.samples] == [0.0]
        with pytest.raises(SizeLimitError, match=f"{UPDATE_LIMIT} updates"):
            _step_count(t_end, MAX_STEP, n + 1)
        refuse_states(monkeypatch)
        for times in (None, [0.0]):
            with pytest.raises(SizeLimitError, match=f"{UPDATE_LIMIT} updates"):
                integrate_projected(vertex_of(Permutation.identity(n + 1)), t_end, times=times)


class TestRejectsOutOfModelInputs:
    @pytest.mark.parametrize("t_end", [math.inf, math.nan, -math.inf])
    def test_non_finite_t_end(self, t_end):
        with pytest.raises(ValueError):
            integrate_projected([3.0, 2.0, 1.0], t_end)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_non_finite_step(self, step):
        with pytest.raises(ValueError):
            integrate_projected([3.0, 2.0, 1.0], 1.0, step=step)

    @pytest.mark.parametrize("x0", [[math.nan, 2.0, 4.0], [math.inf, -math.inf, 6.0]])
    def test_non_finite_start(self, x0):
        with pytest.raises(ValueError):
            integrate_projected(x0, 1.0)

    def test_start_off_the_hyperplane(self):
        # checked once, before the first step
        with pytest.raises(ValueError):
            integrate_projected([1.0, 1.0, 1.0], 1.0)
