"""Closed-form contraction flow and its crossing events.

The dynamics x' = v_s - x pull any state straight toward the sorted
vertex v_s = (1, ..., n) and admit the exact solution

    x(t) = v_s + (x(0) - v_s) * exp(-t),

so the squared distance to v_s decays as d0 * exp(-2t). Two coordinates
of the flowing state can meet at most once; each such meeting is the
continuous counterpart of resolving one inversion, and for a vertex
start the number of meetings equals the inversion count. No numerical
integration is involved anywhere in this module: `sample_trace` returns
the exact flow at the requested times as the `core.Trace` that the Euler
run of `projection` returns too.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .core import StateVector, Trace, as_state, disorder_squared, vertex_of
from .core import _offsets, _require_hyperplane, _sample_times, _trace
from .perms import Permutation, SizeLimitError, require_finite_positive

__all__ = [
    "EVENT_LIMIT",
    "CrossingSchedule",
    "SortingEstimate",
    "flow_state",
    "disorder_at",
    "time_to_epsilon",
    "crossing_events",
    "sample_trace",
    "estimate_sorting",
]

#: Most events `crossing_events` lists. Its pass counts them as it finds
#: them and raises SizeLimitError once the count passes this, before any
#: ratio is taken, so it holds O(n + EVENT_LIMIT) for any start. At the
#: limit (`flow events --start reverse --n 707`, 249,571 events) a fresh
#: process took 0.4-0.5 s and 74 MB peak RSS for JSON and 0.6-0.7 s and
#: 99 MB for CSV on a shared 2-vCPU VM.
EVENT_LIMIT = 250_000


@dataclass(frozen=True)
class SortingEstimate:
    """The flow's sorting time and operation count for one vertex start.

    `continuous_time` is t = `time_to_epsilon(d0, epsilon)`, the time the
    disorder d0 * exp(-2t) takes to reach epsilon^2, and `discrete_estimate`
    is the number of dt = c/n steps in it, t * n/c: for the reversed start
    and epsilon = 1 it is (n/(2c)) ln(n(n^2 - 1)/3), about (3/(2c)) n ln n.
    It is a count of flow steps, not of one input's comparisons, which it
    cannot bound for any c: n - 1 comparisons check a guessed order. It
    bounds the worst case over all inputs, ceil(log2 n!) and above, only
    when c >= c*, the largest ratio of the c = 1 figure to ceil(log2 n!):
    1.318, at n = 10, for every n <= 200,000. The crossing events, one per
    inversion, are `crossing_events`'s rows.
    """

    continuous_time: float
    discrete_estimate: float
    d0: float


def flow_state(x0: StateVector | Sequence[float], t: float) -> StateVector:
    """Exact state of the contraction flow at time t >= 0: `sample_trace(x0, [t])`'s."""
    return sample_trace(x0, [t]).final


def disorder_at(x0: StateVector | Sequence[float], t: float) -> float:
    """Squared distance to the sorted vertex at time t: d0 * exp(-2t), `sample_trace`'s."""
    return sample_trace(x0, [t]).samples[0].disorder


def time_to_epsilon(d0: float, epsilon: float) -> float:
    """Time until the squared distance d0*exp(-2t) first reaches epsilon^2.

    Returns max(0, 0.5 * ln(d0 / epsilon^2)), a finite number for every
    finite d0 >= 0 and finite epsilon > 0. The quotient is taken directly
    while epsilon^2 is a normal float and the quotient does not overflow;
    otherwise epsilon^2 (which underflows below epsilon ~ 1.5e-154 and
    overflows above ~ 1.3e154) is kept out of the arithmetic as
    ln(d0) - 2 ln(epsilon).
    """
    require_finite_positive("epsilon", epsilon)
    if not (0 <= d0 < math.inf):
        raise ValueError(f"d0 must be finite and >= 0, got {d0}")
    eps2 = epsilon * epsilon
    if d0 <= eps2:
        return 0.0
    if eps2 >= sys.float_info.min and d0 / eps2 < math.inf:
        return max(0.0, 0.5 * math.log(d0 / eps2))
    return max(0.0, 0.5 * (math.log(d0) - 2.0 * math.log(epsilon)))


@dataclass(frozen=True, eq=False)
class CrossingSchedule:
    """Columns t, i, j and offset of the meetings that `crossing_events` lists."""

    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    offset: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def meeting_values(self) -> np.ndarray:
        """i + offset * exp(-t) per row by `math.exp`, as `sample_trace` computes it, bit for bit."""
        rows = zip(self.i.tolist(), self.offset.tolist(), self.t.tolist())
        return np.array([lo + a * math.exp(-s) for lo, a, s in rows])


def crossing_events(x0: StateVector | Sequence[float]) -> CrossingSchedule:
    """All coordinate meetings of the flow from x0, sorted by (t, i, j).

    In row k, coordinates i[k] < j[k] (1-based integers) meet at time t[k];
    offset[k] = x0_i - i. For a vertex start the number of meetings equals
    the inversion count of the underlying permutation. A start off the
    hyperplane raises ValueError, also at n = 1, and a start with more than
    EVENT_LIMIT meetings raises SizeLimitError.

    In exact arithmetic a pair meets iff x_i > x_j, for any start, since
    a_i - a_j = x_i - x_j + (j - i): the meeting ratio
    exp(-t) = (j - i) / (a_i - a_j) lies in (0, 1) <=> x_i > x_j. So the
    pairs are found by one pass over the positions in stable value order,
    which keeps the positions visited so far in a sorted list: those after
    position p are exactly its partners j > p with x_j < x_p (a tied j > p
    comes later in the stable order, so ties never meet). `bisect_right`
    finds them, and inserting p shifts exactly them, so the pass costs
    O(n log n + K) time and O(n + K) memory for K meetings. It counts them
    as it goes and stops once K passes EVENT_LIMIT, before that position's
    partners are copied, so a refused start takes no ratio. Only those
    pairs take a ratio, by the same IEEE subtraction and division as the
    per-pair loop of the test oracle in `tests/crossing_oracle.py`.
    Rounding keeps that denominator positive (exactly it exceeds
    j - i >= 1), so every ratio is finite and positive. A ratio test would
    drop a pair with x_i > x_j by an ulp, whose rounded ratio can reach 1,
    and list one with x_i < x_j by an ulp; the comparison of the start does
    neither. t = max(+0.0, -ln(ratio)), with `math.log`, so each time
    matches that oracle bit for bit (numpy's `log` may differ in the last
    ulp), and a pair whose rounded ratio is not below 1 meets at t = +0.0,
    never at a negative time or -0.0.
    Each position's partners come out j-ascending into its own slot, so the
    slots read in index order, with `np.repeat` of their lengths for i, give
    the rows sorted by (i, j) in O(n + K), without a sort. One stable
    `np.argsort` of t then orders them by (t, i, j): equal times keep their
    (i, j) order, and no t is NaN, so that is the order of sorted (t, i, j)
    tuples.

    For a vertex start that float order is the exact order. There
    a_i - a_j is the integer d = p_i - p_j + j - i, so a crossing pair has
    the ratio (j - i) / d with integers 0 < j - i < d < 2n. Two distinct
    such ratios differ by at least 1 / (d d') > 1 / (4 n^2), far above the
    rounding of one division and one `log` (a few ulps); equal rationals
    come out of the correctly rounded division as bit-equal floats. So
    float ties are exact ties, and (i, j) breaks them.

    The order is found by t = ln n: (j - i) / d >= 1/n, since
    p_i - p_j <= (n - 1)(j - i), with equality exactly when j = i + 1,
    p_i = n and p_j = 1. The disorder reaches epsilon = 1 only later, at
    `time_to_epsilon`, about 1.5 ln n for the reversed start.
    """
    x0 = as_state(x0)
    _require_hyperplane(x0)
    x, a = x0.coords, _offsets(x0)
    seen = []  # the positions visited so far, ascending
    partners = [()] * x0.n
    count = 0
    for p in np.argsort(x, kind="stable").tolist():
        k = bisect_right(seen, p)
        if k < len(seen):  # an empty slot stays the shared ()
            count += len(seen) - k
            if count > EVENT_LIMIT:
                raise SizeLimitError(
                    f"crossing schedules are limited to {EVENT_LIMIT} events; "
                    f"this start has more than {EVENT_LIMIT}"
                )
            partners[p] = seen[k:]
        seen.insert(k, p)
    i = np.repeat(np.arange(x0.n), [len(js) for js in partners])
    j = np.fromiter(chain.from_iterable(partners), dtype=np.intp, count=i.size)
    ratio = (j - i) / (a[i] - a[j])
    t = -np.fromiter(map(math.log, ratio.tolist()), dtype=float, count=ratio.size)
    t[t <= 0.0] = 0.0  # also turns -ln(1.0) = -0.0 into +0.0
    order = np.argsort(t, kind="stable")
    i = i[order]
    return CrossingSchedule(t=t[order], i=i + 1, j=j[order] + 1, offset=a[i])


def sample_trace(x0: StateVector | Sequence[float], times: Iterable[float]) -> Trace:
    """Evaluate the closed-form flow at the given strictly increasing times.

    The package's one evaluator of the closed-form flow: the sample at t holds
    the state v_s + (x0 - v_s) * exp(-t) and the disorder d0 * exp(-2t),
    and `flow_state` and `disorder_at` read the single sample at their t.
    t = 0 gives the start itself and t = inf the sorted vertex. The start
    must lie on the hyperplane and the times pass `core._sample_times`
    (ValueError, or SizeLimitError past COORDINATE_LIMIT) before any state
    is built.
    """
    x0 = as_state(x0)
    _require_hyperplane(x0)
    ts = _sample_times(times, x0.n)
    return _trace(x0, ts, [-t for t in ts])


def estimate_sorting(
    p: Permutation, epsilon: float = 1.0, c: float = 1.0
) -> SortingEstimate:
    """The flow's sorting time and operation count from the vertex of p.

    The one place the count is computed: t = `time_to_epsilon(d0, epsilon)`
    and t / (c/n) operations at the dt = c/n stepping rule (see
    `SortingEstimate` for what it bounds). A start already within the
    epsilon ball (d0 <= epsilon^2, such as the sorted one) takes time and
    operations 0. epsilon and c must be finite and > 0, and c large enough
    that c/n does not underflow to 0 and the count stays finite
    (ValueError naming c otherwise).
    """
    d0 = disorder_squared(vertex_of(p))
    t = time_to_epsilon(d0, epsilon)
    require_finite_positive("c", c)
    estimate = 0.0
    if t > 0.0:
        dt = c / p.n
        if dt == 0.0 or t / dt == math.inf:
            raise ValueError(f"c is too small for a finite count t / (c/n), got c = {c}")
        estimate = t / dt
    return SortingEstimate(
        continuous_time=t,
        discrete_estimate=estimate,
        d0=d0,
    )
