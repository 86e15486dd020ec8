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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import StateVector, Trace, as_state, disorder_squared, vertex_of
from .core import _contract, _offsets, _require_hyperplane
from .perms import Permutation, inversions, require_finite_positive

__all__ = [
    "FlowSample",
    "CrossingSchedule",
    "SortingEstimate",
    "flow_state",
    "disorder_at",
    "time_to_epsilon",
    "crossing_events",
    "discrete_estimate",
    "lemma_lower_bound",
    "sample_trace",
    "estimate_sorting",
]


@dataclass(frozen=True)
class FlowSample:
    t: float
    state: StateVector
    disorder: float


@dataclass(frozen=True)
class SortingEstimate:
    """Continuous sorting time and its discrete-operation readings for one start."""

    continuous_time: float
    discrete_estimate: float
    lemma_lower_bound: float
    crossing_count: int


def flow_state(x0: StateVector | Sequence[float], t: float) -> StateVector:
    """Exact state of the contraction flow at time t >= 0: `sample_trace(x0, [t])`'s."""
    return sample_trace(x0, [t]).final


def disorder_at(x0: StateVector | Sequence[float], t: float) -> float:
    """Squared distance to the sorted vertex at time t: d0 * exp(-2t), `sample_trace`'s."""
    return sample_trace(x0, [t]).samples[0].disorder


def _log_ratio(d0: float, epsilon: float) -> float:
    """ln(d0 / epsilon^2) for finite d0 > 0 and epsilon > 0, always finite.

    The quotient is taken directly while epsilon^2 is a normal float and
    the quotient neither overflows nor underflows; otherwise epsilon^2
    (which underflows below epsilon ~ 1.5e-154 and overflows above
    ~ 1.3e154) is kept out of the arithmetic as ln(d0) - 2 ln(epsilon).
    """
    eps2 = epsilon * epsilon
    if eps2 >= sys.float_info.min:
        ratio = d0 / eps2
        if 0.0 < ratio < math.inf:
            return math.log(ratio)
    return math.log(d0) - 2.0 * math.log(epsilon)


def time_to_epsilon(d0: float, epsilon: float) -> float:
    """Time until the squared distance d0*exp(-2t) first reaches epsilon^2.

    Returns max(0, 0.5 * ln(d0 / epsilon^2)), a finite number for every
    finite d0 >= 0 and finite epsilon > 0, also where epsilon^2 underflows
    or overflows.
    """
    require_finite_positive("epsilon", epsilon)
    if not (0 <= d0 < math.inf):
        raise ValueError(f"d0 must be finite and >= 0, got {d0}")
    if d0 <= epsilon * epsilon:
        return 0.0
    return max(0.0, 0.5 * _log_ratio(d0, epsilon))


#: Most pairs i < j that one block of the triangle pass holds (at least one
#: row per block). Each pair costs about 50 bytes of index, ratio and mask
#: arrays, so a block peaks near 3 MB, and n <= 256 is a single block. The
#: crossing pairs of every block are kept as three 8-byte columns (ratio,
#: i, j) until the one sort at the end.
_PAIR_BLOCK = 1 << 16


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
    hyperplane raises ValueError, also at n = 1.

    In exact arithmetic a pair meets iff x_i > x_j, for any start, since
    a_i - a_j = x_i - x_j + (j - i): the meeting ratio
    exp(-t) = (j - i) / (a_i - a_j) lies in (0, 1) <=> x_i > x_j. So the
    pairs are chosen by x_i > x_j alone, in numpy passes over blocks of
    `_PAIR_BLOCK // n` rows of the upper triangle (a row holds at most
    n - 1 pairs, so a block at most `_PAIR_BLOCK`), and only they take a
    ratio, by the same IEEE subtraction and division as the per-pair loop
    of the test oracle in `tests/crossing_oracle.py`. Rounding keeps that
    denominator positive (exactly it exceeds j - i >= 1), so every ratio
    is finite and positive. A ratio test would drop a pair with x_i > x_j
    by an ulp, whose rounded ratio can reach 1, and list one with x_i < x_j
    by an ulp; the comparison of the start does neither.
    t = max(+0.0, -ln(ratio)), with `math.log`, so each time matches that
    oracle bit for bit (numpy's `log` may differ in the last ulp), and a
    pair whose rounded ratio is not below 1 meets at t = +0.0, never at a
    negative time or -0.0.
    Each block keeps the ratio, i and j of its crossing pairs, so memory is
    O(n * rows per block + events), not O(n^2).
    The blocks walk the triangle row by row, and `np.triu_indices` and
    the boolean selection keep each block's pairs in row-major order, so the
    rows arrive sorted by (i, j). One stable `np.argsort` of t then orders
    them by (t, i, j): equal times keep their (i, j) order, and no t is
    NaN, so that is the order of sorted (t, i, j) tuples. An enumeration that emits pairs in another order (such as a
    bottom-up merge that finds only the inversion pairs) must restore the
    (i, j) order before this sort, or go back to `np.lexsort((j, i, t))`.

    For a vertex start that float order is the exact order. There
    a_i - a_j is the integer d = p_i - p_j + j - i, so a crossing pair has
    the ratio (j - i) / d with integers 0 < j - i < d < 2n. Two distinct
    such ratios differ by at least 1 / (d d') > 1 / (4 n^2), far above the
    rounding of one division and one `log` (a few ulps); equal rationals
    come out of the correctly rounded division as bit-equal floats. So
    float ties are exact ties, and (i, j) breaks them.
    """
    x0 = as_state(x0)
    _require_hyperplane(x0)
    x, a = x0.coords, _offsets(x0)
    # an empty first block lets n = 1, which has no row, concatenate too
    index = np.empty(0, dtype=np.intp)
    blocks = [(np.empty(0), index, index)]
    step = max(1, _PAIR_BLOCK // x0.n)
    for r0 in range(0, x0.n - 1, step):
        i, j = np.triu_indices(min(step, x0.n - 1 - r0), k=r0 + 1, m=x0.n)
        i += r0
        cross = x[i] > x[j]
        i, j = i[cross], j[cross]
        blocks.append(((j - i) / (a[i] - a[j]), i, j))
    ratio, i, j = (np.concatenate(column) for column in zip(*blocks))
    del blocks
    t = -np.fromiter(map(math.log, ratio.tolist()), dtype=float, count=ratio.size)
    t[t <= 0.0] = 0.0  # also turns -ln(1.0) = -0.0 into +0.0
    order = np.argsort(t, kind="stable")
    i = i[order]
    return CrossingSchedule(t=t[order], i=i + 1, j=j[order] + 1, offset=a[i])


def discrete_estimate(n: int, t: float, dt: Optional[float] = None) -> float:
    """Discrete operations t/dt implied by time t at step dt (default 1/n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (t >= 0):
        raise ValueError(f"t must be >= 0, got {t}")
    if dt is None:
        dt = 1.0 / n
    if not (dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    return t / dt


def lemma_lower_bound(n: int, d0: float, epsilon: float, c: float) -> float:
    """Operation lower bound (n/c) * 0.5 * ln(d0 / epsilon^2).

    For d0 = reverse_disorder(n) this grows like (3/(2c)) * n * ln(n).
    d0, epsilon and c must be finite; a c so small that the bound
    overflows raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 < d0 < math.inf):
        raise ValueError(f"d0 must be finite and > 0, got {d0}")
    require_finite_positive("epsilon", epsilon)
    require_finite_positive("c", c)
    bound = (n / c) * 0.5 * _log_ratio(d0, epsilon)
    if not math.isfinite(bound):
        raise ValueError(
            f"c is too small for a finite bound (n/c) * 0.5 * ln(d0/epsilon^2), "
            f"got c = {c}, epsilon = {epsilon}"
        )
    return bound


def sample_trace(x0: StateVector | Sequence[float], times: Iterable[float]) -> Trace:
    """Evaluate the closed-form flow at the given strictly increasing times.

    The package's one evaluator of the closed-form flow: the sample at t holds
    the state v_s + (x0 - v_s) * exp(-t) and the disorder d0 * exp(-2t),
    and `flow_state` and `disorder_at` read the single sample at their t.
    A time must be >= 0, so NaN raises ValueError; t = 0 gives the start
    itself and t = inf the sorted vertex. The start is checked and its
    offsets and d0 are computed once per trace. An off-hyperplane start,
    and an empty `times`, raise ValueError.
    """
    x0 = as_state(x0)
    ts = [float(t) for t in times]
    for t in ts:
        if not (t >= 0):
            raise ValueError(f"t must be >= 0, got {t}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly increasing")
    _require_hyperplane(x0)
    states = _contract(x0, [math.exp(-t) for t in ts])
    d0 = disorder_squared(x0)
    samples = tuple(
        FlowSample(t=t, state=state, disorder=d0 * math.exp(-2.0 * t))
        for t, state in zip(ts, states)
    )
    return Trace(samples=samples)


def estimate_sorting(
    p: Permutation, epsilon: float = 1.0, c: float = 1.0
) -> SortingEstimate:
    """Bundle the continuous/discrete sorting estimates for a vertex start.

    Uses the dt = c/n stepping rule. When the start is already within the
    epsilon ball (d0 <= epsilon^2) all time and operation figures are 0,
    which also covers the sorted start where the raw lower-bound formula
    would be undefined. epsilon and c must be finite and > 0, and c large
    enough that the operation figures stay finite (ValueError otherwise).
    """
    require_finite_positive("epsilon", epsilon)
    require_finite_positive("c", c)
    x0 = vertex_of(p)
    d0 = disorder_squared(x0)
    if d0 <= epsilon * epsilon:
        t = 0.0
        estimate = 0.0
        bound = 0.0
    else:
        t = time_to_epsilon(d0, epsilon)
        # a finite n/c keeps c/n > 0, so the bound goes first
        bound = lemma_lower_bound(p.n, d0, epsilon, c)
        estimate = discrete_estimate(p.n, t, c / p.n)
        if not math.isfinite(estimate):
            raise ValueError(f"c is too small for a finite estimate t*n/c, got c = {c}")
    return SortingEstimate(
        continuous_time=t,
        discrete_estimate=estimate,
        lemma_lower_bound=bound,
        crossing_count=inversions(p),
    )
