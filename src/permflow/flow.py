"""Closed-form contraction flow and its crossing events.

The dynamics x' = v_s - x pull any state straight toward the sorted
vertex v_s = (1, ..., n) and admit the exact solution

    x(t) = v_s + (x(0) - v_s) * exp(-t),

so the squared distance to v_s decays as d0 * exp(-2t). Two coordinates
of the flowing state can meet at most once; each such meeting is the
continuous counterpart of resolving one inversion, and for a vertex
start the number of meetings equals the inversion count. No numerical
integration is involved anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    Permutation,
    StateVector,
    as_state,
    disorder_squared,
    in_hyperplane,
    inversions,
    require_finite_positive,
    vertex_of,
)

__all__ = [
    "FlowTrace",
    "FlowSample",
    "CrossingEvent",
    "SortingEstimate",
    "flow_state",
    "disorder_at",
    "time_to_epsilon",
    "crossing_time",
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
class FlowTrace:
    """Closed-form flow evaluated at a strictly increasing list of times."""

    start: StateVector
    samples: tuple[FlowSample, ...]


@dataclass(frozen=True)
class CrossingEvent:
    """Coordinates i < j (1-based) meet at `time` with common value `meeting_value`."""

    pair: tuple[int, int]
    time: float
    meeting_value: float


@dataclass(frozen=True)
class SortingEstimate:
    """Continuous sorting time and its discrete-operation readings for one start."""

    n: int
    continuous_time: float
    epsilon: float
    discrete_estimate: float
    lemma_lower_bound: float
    crossing_count: int


def _require_hyperplane(x: StateVector) -> None:
    if not in_hyperplane(x):
        raise ValueError(
            "state must lie on the hyperplane sum(x) = n(n+1)/2 within 1e-9"
        )


def _offsets(x: StateVector) -> np.ndarray:
    """Coordinate offsets a_k = x_k - k from the sorted vertex."""
    return x.coords - np.arange(1, x.n + 1)


def flow_state(x0: StateVector | Sequence[float], t: float) -> StateVector:
    """Exact state of the contraction flow at time t >= 0."""
    x0 = as_state(x0)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    _require_hyperplane(x0)
    targets = np.arange(1, x0.n + 1, dtype=float)
    return StateVector(targets + _offsets(x0) * math.exp(-t))


def disorder_at(x0: StateVector | Sequence[float], t: float) -> float:
    """Squared distance to the sorted vertex at time t: d0 * exp(-2t)."""
    x0 = as_state(x0)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return disorder_squared(x0).d0 * math.exp(-2.0 * t)


def time_to_epsilon(d0: float, epsilon: float) -> float:
    """Time until the squared distance d0*exp(-2t) first reaches epsilon^2.

    Returns max(0, 0.5 * ln(d0 / epsilon^2)); epsilon must be finite.
    """
    require_finite_positive("epsilon", epsilon)
    if d0 < 0:
        raise ValueError(f"d0 must be >= 0, got {d0}")
    if d0 <= epsilon * epsilon:
        return 0.0
    return 0.5 * math.log(d0 / (epsilon * epsilon))


def crossing_time(x0: StateVector | Sequence[float], i: int, j: int) -> Optional[float]:
    """Time at which coordinates i and j of the flow coincide, if ever.

    With offsets a_k = x0_k - k and i < j, the meeting condition reads
    exp(-t) = (j - i) / (a_i - a_j); a crossing exists exactly when that
    ratio lies in (0, 1), and since exp(-t) is strictly monotone the pair
    meets at most once. Indices are 1-based.
    """
    x0 = as_state(x0)
    if i == j:
        raise ValueError("indices must differ")
    i, j = (i, j) if i < j else (j, i)
    if not (1 <= i and j <= x0.n):
        raise ValueError(f"indices must be in 1..{x0.n}, got ({i}, {j})")
    _require_hyperplane(x0)
    return _meeting_time(_offsets(x0), i, j)


def _meeting_time(a: Sequence[float], i: int, j: int) -> Optional[float]:
    """Meeting time of coordinates i < j (1-based) with offsets a, or None."""
    denom = a[i - 1] - a[j - 1]
    if denom == 0:
        return None
    ratio = (j - i) / denom
    if not (0.0 < ratio < 1.0):
        return None
    return -math.log(ratio)


def crossing_events(x0: StateVector | Sequence[float]) -> list[CrossingEvent]:
    """All coordinate meetings of the flow from x0, sorted by (time, i, j).

    For a vertex start the event count equals the inversion count of the
    underlying permutation. Simultaneous meetings (degenerate starts such
    as the full reverse at n = 3) are ordered by lexicographic pair. A
    start off the hyperplane raises ValueError, also at n = 1.
    """
    x0 = as_state(x0)
    _require_hyperplane(x0)
    a = _offsets(x0).tolist()
    events = []
    for i in range(1, x0.n + 1):
        for j in range(i + 1, x0.n + 1):
            t = _meeting_time(a, i, j)
            if t is None:
                continue
            meet = i + a[i - 1] * math.exp(-t)
            events.append(CrossingEvent(pair=(i, j), time=t, meeting_value=meet))
    events.sort(key=lambda e: (e.time, e.pair))
    return events


def discrete_estimate(n: int, t: float, dt: Optional[float] = None) -> float:
    """Discrete operations t/dt implied by time t at step dt (default 1/n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if dt is None:
        dt = 1.0 / n
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return t / dt


def lemma_lower_bound(n: int, d0: float, epsilon: float, c: float) -> float:
    """Operation lower bound (n/c) * 0.5 * ln(d0 / epsilon^2).

    For d0 = reverse_disorder(n) this grows like (3/(2c)) * n * ln(n).
    epsilon and c must be finite.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d0 <= 0:
        raise ValueError(f"d0 must be > 0, got {d0}")
    require_finite_positive("epsilon", epsilon)
    require_finite_positive("c", c)
    return (n / c) * 0.5 * math.log(d0 / (epsilon * epsilon))


def sample_trace(x0: StateVector | Sequence[float], times: Sequence[float]) -> FlowTrace:
    """Evaluate the closed-form flow at the given strictly increasing times."""
    x0 = as_state(x0)
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts):
        raise ValueError("sample times must be >= 0")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly increasing")
    samples = tuple(
        FlowSample(t=t, state=flow_state(x0, t), disorder=disorder_at(x0, t))
        for t in ts
    )
    return FlowTrace(start=x0, samples=samples)


def estimate_sorting(
    p: Permutation, epsilon: float = 1.0, c: float = 1.0
) -> SortingEstimate:
    """Bundle the continuous/discrete sorting estimates for a vertex start.

    Uses the dt = c/n stepping rule. When the start is already within the
    epsilon ball (d0 <= epsilon^2) all time and operation figures are 0,
    which also covers the sorted start where the raw lower-bound formula
    would be undefined. epsilon and c must be finite and > 0.
    """
    require_finite_positive("epsilon", epsilon)
    require_finite_positive("c", c)
    x0 = vertex_of(p)
    d0 = disorder_squared(x0).d0
    if d0 <= epsilon * epsilon:
        t = 0.0
        estimate = 0.0
        bound = 0.0
    else:
        t = time_to_epsilon(d0, epsilon)
        estimate = discrete_estimate(p.n, t, c / p.n)
        bound = lemma_lower_bound(p.n, d0, epsilon, c)
    return SortingEstimate(
        n=p.n,
        continuous_time=t,
        epsilon=epsilon,
        discrete_estimate=estimate,
        lemma_lower_bound=bound,
        crossing_count=inversions(p),
    )
