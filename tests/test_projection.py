import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permflow.core
import permflow.projection
from permflow import (
    MAX_STEP,
    FlowSample,
    Permutation,
    SizeLimitError,
    StateVector,
    as_state,
    disorder_squared,
    flow_state,
    in_hyperplane,
    integrate_projected,
    sample_trace,
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


def reference_pav(values):
    """Nearest non-decreasing sequence to values (unit weights): pool adjacent violators."""
    pools = []  # [mean, count], merged backward while out of order
    for v in values:
        pools.append([float(v), 1])
        while len(pools) > 1 and pools[-2][0] > pools[-1][0]:
            m2, c2 = pools.pop()
            m1, c1 = pools.pop()
            pools.append([(m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2])
    return [m for m, c in pools for _ in range(c)]


def reference_project(g, blocks):
    """g with each block's components, in index order, replaced by their PAV fit."""
    p = np.array(g, dtype=float)
    for block in blocks:
        idx = [k - 1 for k in block]
        p[idx] = reference_pav(p[idx])
    return p


def reference_block_count(x):
    """Blocks of two or more among `reference_blocks` at the tie gap 1e-9 * n."""
    return sum(len(b) > 1 for b in reference_blocks(x, 1e-9 * len(x)))


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
    active_block_count) per sample. The projection is this file's own PAV,
    so the oracle shares no code with `permflow.projection`.
    """
    x0 = as_state(x0)
    tol = 1e-9 * x0.n
    times = reference_grid(t_end, step)

    def sample(t, coords):
        state = StateVector(coords)
        return (t, state.coords, 0.5 * disorder_squared(state), reference_block_count(coords))

    targets = np.arange(1, x0.n + 1, dtype=float)
    x = x0.coords.copy()
    samples = [sample(0.0, x)]
    prev = 0.0
    for t in times:
        g = targets - x
        p = reference_project(g, reference_blocks(x, tol))
        x = x + (t - prev) * p
        prev = t
        samples.append(sample(t, x))
    return samples


def scale(x0):
    """|a_i| + i per coordinate: the size of each term of v_s + (x0 - v_s) * f."""
    x0 = np.asarray(as_state(x0).coords)
    targets = np.arange(1.0, x0.size + 1)
    return np.abs(x0 - targets) + targets


def rounding_bound(x0, k):
    """4(k + 1) * 2**-53 * (|a_i| + i): how far a step-by-step loop may drift in k steps.

    The loop rounds each coordinate once or twice per step, so after k
    steps it may be off by about k ulp of |a_i| + i.
    """
    return 4 * (k + 1) * 2.0**-53 * scale(x0)


def closed_form_bound(x0, t):
    """8(t + 2) * 2**-53 * (|a_i| + i): how far two closed-form states at time t may differ.

    A factor exp(k * log1p(-step)) or exp(-t) is off by about (2t + 1)
    ulp, whatever k is, and each coordinate adds one product and one sum.
    """
    return 8 * (t + 2) * 2.0**-53 * scale(x0)


def assert_matches_reference(x0, t_end, step=MAX_STEP):
    trace = integrate_projected(x0, t_end, step=step)
    want = reference_integrate(x0, t_end, step=step)
    assert len(trace.samples) == len(want)
    for k, (got, (t, coords, potential, count)) in enumerate(zip(trace.samples, want)):
        assert got.t == t
        slack = rounding_bound(x0, k)
        assert np.all(np.abs(got.state.coords - coords) <= slack)
        # V = 0.5 * sum e_i^2, so a change of at most slack_i in each e_i moves
        # V by at most sum (|e_i| + slack_i) * slack_i, plus the sums' rounding
        offsets = np.abs(coords - np.arange(1.0, len(coords) + 1))
        tol = np.dot(offsets + slack, slack) + 4 * len(coords) * 2.0**-53 * potential
        assert abs(got.potential - potential) <= tol
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


def block_count(x):
    """`active_block_count` of a sample at state x."""
    return FlowSample(t=0.0, state=StateVector(x), disorder=0.0).active_block_count


class TestActiveBlockCount:
    @pytest.mark.parametrize(
        "x, count",
        [([2.0, 2.0, 2.0], 1), ([1.0, 2.0, 3.0], 0), ([2.0, 2.0, 3.0], 1), ([3.0, 1.0, 3.0], 1)],
    )
    def test_small_cases(self, x, count):
        assert block_count(x) == reference_block_count(x) == count

    def test_transitive_chaining(self):
        # consecutive gaps within 1e-9 * n = 4e-9 chain into one block even
        # though the extremes differ by more than that; 3e-9 is over 1e-9 * 3
        x = [1.0, 1.0 + 3e-9, 1.0 + 6e-9, 2.0]
        assert reference_blocks(x, 4e-9) == ((1, 2, 3), (4,))
        assert block_count(x) == 1
        assert block_count(x[:3]) == 0
        # four values 4e-9 apart at n = 5 are one block, not two pairs
        assert block_count([1.0, 1.0 + 4e-9, 1.0 + 8e-9, 1.0 + 12e-9, 11.0]) == 1

    def test_count_ignores_position(self):
        # where the tied coordinates sit in index order does not matter
        x = [1.0, 1.0, 2.0, 2.0, 2.0, 5.0]
        assert {block_count(list(y)) for y in itertools.permutations(x)} == {2}

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.lists(
            st.sampled_from([0.5, 1.0, 1.0 + 1e-10, 1.0 + 5e-9, 2.0, 3.5, -1.0]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_matches_reference_grouping(self, x):
        # 1 + 5e-9 joins 1 only from n = 5 on
        assert block_count(x) == reference_block_count(x)


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


class TestReferenceProjection:
    """The test-side PAV that the reference loop projects with on every step."""

    def test_pools_only_violating_blocks(self):
        # two ties; only the second breaks its index order, and pools to its mean
        assert reference_project([-0.5, 0.5, 1.0, -1.0], ((1, 2), (3, 4))).tolist() == [
            -0.5, 0.5, 0.0, 0.0,
        ]
        assert reference_pav([0.8, -1.0, 0.2]) == pytest.approx([-0.1, -0.1, 0.2])

    def test_projection_identity_and_idempotence(self):
        # <g, p> = |p|^2, each block ends non-decreasing with its sum kept, and
        # projecting twice changes nothing
        rng = random.Random(23)
        blocks = ((1, 2, 3), (4,), (5, 6))
        for _ in range(200):
            g = np.array([rng.uniform(-2, 2) for _ in range(6)])
            p = reference_project(g, blocks)
            assert math.isclose(float(np.dot(g, p)), float(np.dot(p, p)), abs_tol=1e-10)
            assert np.allclose(reference_project(p, blocks), p, atol=1e-12)
            for block in blocks:
                idx = [k - 1 for k in block]
                assert all(a <= b + 1e-12 for a, b in zip(p[idx], p[idx][1:]))
                assert math.isclose(float(p[idx].sum()), float(g[idx].sum()), abs_tol=1e-12)


class TestMatchesReferenceLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        x0=starts(),
        t_end=st.sampled_from([0.003, 0.05, 0.37, 1.0]),
        step=st.sampled_from([MAX_STEP, 0.005, 0.0037]),
    )
    @example(x0=VERTEX_5, t_end=1.4, step=0.01)
    def test_samples_match_reference_loop(self, x0, t_end, step):
        # the reference runs PAV on every step: on the pull it is the identity,
        # and the closed form stays within the rounding of the reference's steps
        assert_matches_reference(x0, t_end, step=step)

    @pytest.mark.parametrize(
        "x0, gap",
        [
            ([1.0, 3.0, 2.0], 2.0),
            ([5.0, 1.0, 3.0, 2.0, 4.0], 10.0),
            ([0.95, 2.05], 1.5),
        ],
    )
    def test_pooling_cases_match_reference_loop(self, x0, gap):
        # grouped at a gap this wide, coordinates more than their index gap
        # apart share a block and PAV would pool the pull; these are not
        # ties, so the closed form follows the unpooled pull as the oracle does
        g = np.arange(1.0, len(x0) + 1) - np.asarray(x0)
        wide = reference_blocks(np.asarray(x0), gap)
        assert not np.array_equal(reference_project(g, wide), g)
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


def exact_disorder(x0, t_end, step, k):
    """d0 * prod(1 - h_i)^2 over the first k Euler steps to t_end, rounded once.

    Each full step is the double `step` exactly, and the last one is
    t_end - (steps - 1) * step, so that it ends at t_end.
    """
    d0 = sum((Fraction(v) - i) ** 2 for i, v in enumerate(x0, 1))
    steps = len(reference_grid(t_end, step))
    j = min(k, steps - 1)
    last = 1 - (Fraction(t_end) - j * Fraction(step)) if k == steps else Fraction(1)
    (a, b), (c, d), (p, q) = (r.as_integer_ratio() for r in (d0, 1 - Fraction(step), last))
    # unreduced integer products (reducing fractions this long costs seconds);
    # the quotient of two ints is correctly rounded however long they are
    return a * (c**j * p) ** 2 / (b * (d**j * q) ** 2)


class TestDisorderIsExact:
    """A sample's disorder is d0 * prod(1 - h)^2, not one recomputed from a rounded state.

    Once a_i * f is below an ulp of i the state rounds to the sorted vertex,
    so the disorder of the state says nothing about the run's.
    """

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("t_end", [30.0, 40.0])
    def test_reversed_start(self, n, t_end):
        x0 = vertex_of(Permutation.reverse(n))
        times = [t_end * k / 10 for k in range(11)]
        trace = integrate_projected(x0, t_end, times=times)
        for s in trace.samples:
            want = exact_disorder(x0.coords.tolist(), t_end, MAX_STEP, round(s.t / MAX_STEP))
            assert math.isclose(s.disorder, want, rel_tol=1e-12), (s.t, s.disorder, want)

    @settings(max_examples=40, deadline=None)
    @given(
        perm=st.integers(1, 30).flatmap(lambda n: st.permutations(range(1, n + 1))),
        t_end=st.sampled_from([0.37, 2.3, 30.0, 40.0, 40.003]),
        step=st.sampled_from([MAX_STEP, 0.005, 0.0037]),
        data=st.data(),
    )
    def test_vertex_starts(self, perm, t_end, step, data):
        x0 = [float(r) for r in perm]
        steps = len(reference_grid(t_end, step))
        ks = sorted(data.draw(st.sets(st.integers(0, steps), min_size=1, max_size=6), label="k"))
        times = [t_end if k == steps else k * step for k in ks]
        trace = integrate_projected(x0, t_end, step=step, times=times)
        for s, k in zip(trace.samples, ks):
            want = exact_disorder(x0, t_end, step, k)
            assert math.isclose(s.disorder, want, rel_tol=1e-12), (k, s.disorder, want)


class TestAgainstExactFlow:
    @settings(max_examples=80, deadline=None)
    @given(
        x0=starts(),
        t_end=st.sampled_from([0.003, 0.05, 0.37, 0.525, 1.0, 2.3]),
        step=st.sampled_from([MAX_STEP, 0.005, 0.0037]),
    )
    @example(x0=VERTEX_40, t_end=0.525, step=0.01)
    @example(x0=[1.0, 2.5, 2.5, 4.0], t_end=0.003, step=0.01)
    def test_euler_error_within_its_bound(self, x0, t_end, step):
        # -h - h^2 / (2(1 - h)) <= ln(1 - h) <= -h, so at time t after steps h_k,
        # 0 <= exp(-t) - prod(1 - h_k) <= exp(-t) * sum h_k^2 / (2(1 - h_k)):
        # each coordinate lags the exact flow by at most |a_i| times that
        trace = integrate_projected(x0, t_end, step=step)
        grid = [0.0, *reference_grid(t_end, step)]
        assert [s.t for s in trace.samples] == grid
        exact = sample_trace(x0, grid).samples
        targets = np.arange(1.0, len(x0) + 1)
        a = np.abs(np.asarray(x0) - targets)
        drift = 0.0
        for k, (got, want, prev, t) in enumerate(zip(trace.samples, exact, [0.0, *grid], grid)):
            h = t - prev
            drift += h * h / (2 * (1 - h))
            lag = np.abs(want.state.coords - targets) - np.abs(got.state.coords - targets)
            slack = closed_form_bound(x0, t)
            assert np.all(-slack <= lag)
            assert np.all(lag <= a * math.exp(-t) * drift + slack)

    @pytest.mark.parametrize("step", [1e-9, 1e-12, 1e-17])
    def test_tiny_steps_keep_to_the_exact_flow(self, step):
        # 1 - 1e-17 rounds to 1.0, and 1 - 1e-9 is off by 1e-8 of the step:
        # raised to the 1e9-th power that would be 1e-7 off; the factor keeps
        # to a few ulp however many steps it stands for, and the state at
        # t = 1 lags the exact one by at most |a_i| * e^-1 * step / (2(1 - step))
        x0 = VERTEX_40
        got = integrate_projected(x0, 1.0, step=step, times=[0.0, 1.0])
        want = sample_trace(x0, [1.0])
        assert [s.t for s in got.samples] == [0.0, 1.0]
        assert got.samples[0].state.coords.tolist() == x0
        targets = np.arange(1.0, len(x0) + 1)
        a = np.abs(np.asarray(x0) - targets)
        lag = np.abs(want.final.coords - targets) - np.abs(got.final.coords - targets)
        slack = closed_form_bound(x0, 1.0)
        assert np.all(-slack <= lag)
        assert np.all(lag <= a * math.exp(-1) * step / (2 * (1 - step)) + slack)


def refuse_states(monkeypatch):
    """Make building any Euler sample fail, so a refusal is shown to come first."""

    def no_state(*args, **kwargs):
        raise AssertionError("built an Euler state for a refused request")

    monkeypatch.setattr(permflow.projection, "_trace", no_state)


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
            ([0.0, math.inf], "sample time inf is off the Euler grid"),
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

    @pytest.mark.parametrize("t_end", [1000.01, 1e6, 1e300])
    def test_far_t_end_reaches_the_sorted_vertex(self, t_end, monkeypatch):
        # no step is run one by one: 1e302 steps cost what one does, and the
        # start and the sorted vertex are the two states built
        built = []
        trace = permflow.projection._trace

        def spy(x0, times, logs):
            built.extend(map(math.exp, logs))
            return trace(x0, times, logs)

        monkeypatch.setattr(permflow.projection, "_trace", spy)
        x0 = vertex_of(Permutation.reverse(30))
        trace = integrate_projected(x0, t_end, times=[0.0, t_end])
        assert [s.t for s in trace.samples] == [0.0, t_end]
        assert trace.samples[0].state is x0
        assert trace.final.coords.tolist() == [float(k) for k in range(1, 31)]
        assert built == [1.0, 0.0]

    def test_only_kept_states_are_grouped(self, monkeypatch):
        # integration sorts no state; each read of a sample's tie-block count
        # sorts that sample's state once, and reading its potential sorts none
        calls = []
        group = permflow.core._group

        def spy(coords):
            calls.append(coords.size)
            return group(coords)

        monkeypatch.setattr(permflow.core, "_group", spy)
        times = [0.0, 0.07, 2.5, 5.0]
        trace = integrate_projected(vertex_of(Permutation.reverse(30)), 5.0, times=times)
        assert [s.t for s in trace.samples] == times
        assert calls == []
        assert [s.potential for s in trace.samples] == [0.5 * s.disorder for s in trace.samples]
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
        # each state is rounded once per coordinate, from the start, so
        # sum(x) keeps to the one hyperplane rule however many steps it takes
        x0 = vertex_of(Permutation.reverse(200))
        trace = integrate_projected(x0, 40.0, step=0.0005, times=[0.0, 40.0])
        assert np.allclose(trace.final.coords, np.arange(1.0, 201.0))
        assert in_hyperplane(trace.final)


#: A step whose multiples are exact
EXACT_STEP = 2.0**-7


def grid_times(count):
    """The first `count` grid times of EXACT_STEP."""
    return [k * EXACT_STEP for k in range(count)]


class TestCoordinateLimit:
    # each sample counts n + 58 words: its coordinates and its own objects.
    # 100 samples at n = 399,942 record 40,000,000 words, 116 under the limit;
    # 101 samples at n = 200 record 26,058, the limit when it is patched to that
    @pytest.mark.parametrize("times", [None, "grid"])
    @pytest.mark.parametrize("n, samples, limit", [(399_942, 100, None), (200, 101, 26_058)])
    def test_limit_is_reachable(self, n, samples, limit, times, monkeypatch):
        class Accepted(Exception):
            pass

        def accepted(x0, times, logs):
            assert len(logs) == samples
            raise Accepted

        if limit is not None:
            monkeypatch.setattr(permflow.core, "COORDINATE_LIMIT", limit)
        monkeypatch.setattr(permflow.projection, "_trace", accepted)
        x0 = StateVector(np.arange(1.0, n + 1.0))
        times = grid_times(samples) if times else None
        with pytest.raises(Accepted):
            integrate_projected(x0, (samples - 1) * EXACT_STEP, step=EXACT_STEP, times=times)

    @pytest.mark.parametrize(
        "n, times, t_end, limit",
        [
            (200, None, 100 * EXACT_STEP, 26_057),
            (200, grid_times(101), 100 * EXACT_STEP, 26_057),
            (400_000, None, 99 * EXACT_STEP, None),
            (400_000, grid_times(100), 99 * EXACT_STEP, None),
            (1, None, 677_968 * EXACT_STEP, None),
            (1, None, 312_499.99, None),
            (3, None, 1e300, None),
        ],
    )
    def test_over_limit_raises_before_building(self, n, times, t_end, limit, monkeypatch):
        # one word over a patched limit; 100 samples at n = 400,000 take
        # 40,005,800 words; at n = 1, 677,969 samples are the fewest over the
        # limit, and the 40,000,000 samples of t_end = 312,499.99 would hold
        # about 18.6 GB of objects for 320 MB of coordinates
        if limit is not None:
            monkeypatch.setattr(permflow.core, "COORDINATE_LIMIT", limit)
        refuse_states(monkeypatch)
        x0 = StateVector(np.arange(1.0, n + 1.0))
        words = permflow.core.COORDINATE_LIMIT
        with pytest.raises(SizeLimitError, match=rf"{words} words \(samples x \(n \+ 58\)\)"):
            integrate_projected(x0, t_end, step=EXACT_STEP, times=times)

    @pytest.mark.parametrize("times", [None, [0.0]])
    def test_overflowing_step_count_raises_before_building(self, times, monkeypatch):
        # 1.0 / 5e-324 is inf: no grid, so ValueError rather than OverflowError
        refuse_states(monkeypatch)
        with pytest.raises(ValueError, match="overflows a double"):
            _step_count(1.0, 5e-324)
        with pytest.raises(ValueError, match="overflows a double"):
            integrate_projected([3.0, 2.0, 1.0], 1.0, step=5e-324, times=times)


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
