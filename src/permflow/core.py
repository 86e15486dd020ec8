"""State vectors on the rank polytope, its vertices, the disorder potential, traces.

The numpy half of the package's ground floor: a state is a point of R^n,
usually on the hyperplane sum(x) = n(n+1)/2 where the rank polytope (the
convex hull of all rearrangements of (1, 2, ..., n)) lives, and
`in_hyperplane` is the package's one test of that; a permutation embeds
as one of its vertices (`vertex_of`); the squared distance to the sorted
vertex measures disorder (`disorder_squared`); and a `Trace` of
`FlowSample`s, each storing its disorder d0 * f^2 for the factor f that
contracts x0 - v_s (`_trace`), holds what either evaluator of the flow,
`flow` or `projection`, samples at times read by `_sample_times`. The
discrete half (permutations, inversions, the size guard) lives and is
exported in `perms`; `Permutation`, `SizeLimitError` and `inversions`
stay readable here as module attributes only.

Indices and ranks are 1-based throughout the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .perms import Permutation, SizeLimitError, hyperplane_sum, inversions  # noqa: F401

__all__ = [
    "StateVector",
    "as_state",
    "vertex_of",
    "disorder_squared",
    "in_hyperplane",
    "FlowSample",
    "Trace",
    "COORDINATE_LIMIT",
]

_SAMPLE_WORDS = 58  # a sample's own objects: about 464 bytes (Python 3.11)
#: Most float64 words one trace records, samples x (n + 58): about 320 MB,
#: or two samples at n = 20,000,000.
COORDINATE_LIMIT = 2 * (20_000_000 + _SAMPLE_WORDS)


@dataclass(frozen=True)
class StateVector:
    """A point x in R^n, usually on the hyperplane sum(x) = n(n+1)/2."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float, copy=True)
        if coords.ndim > 1:
            raise ValueError(f"state vector must have one axis, got shape {coords.shape}")
        coords = coords.reshape(-1)
        if coords.size < 1:
            raise ValueError("state vector must have at least one coordinate")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return int(self.coords.size)

    def __iter__(self):
        return iter(self.coords)


def as_state(x: StateVector | Sequence[float] | np.ndarray) -> StateVector:
    """Coerce an array-like into a StateVector (no-op for StateVector)."""
    if isinstance(x, StateVector):
        return x
    return StateVector(np.asarray(x, dtype=float))


def in_hyperplane(x: StateVector | Sequence[float]) -> bool:
    """True when x is finite and |sum(x) - n(n+1)/2| <= max(1e-9, n(n+1)/2 * 2**-41).

    This is the package's one hyperplane rule. The relative term is 2**11
    units in the last place of the target sum: room for the rounding of
    the sum itself and of a state that the flow or an Euler run computed
    from a vertex (in exact arithmetic both keep the sum). Below n ~ 66
    the absolute 1e-9 governs. A non-finite coordinate makes the sum
    non-finite, so x is rejected.
    """
    s = as_state(x)
    with np.errstate(invalid="ignore", over="ignore"):
        total = float(s.coords.sum())
    target = hyperplane_sum(s.n)
    return abs(total - target) <= max(1e-9, target * 2.0**-41)


def _require_hyperplane(x: StateVector) -> None:
    """Raise ValueError unless `in_hyperplane(x)`: the one entry check of the flows.

    Both flows contract x - v_s by a scalar factor, which keeps a state on
    the hyperplane, so a start checked here needs no later check.
    """
    if not in_hyperplane(x):
        raise ValueError("state must lie on the hyperplane sum(x) = n(n+1)/2")


def vertex_of(p: Permutation | Iterable[int]) -> StateVector:
    """Embed a permutation as the corresponding polytope vertex."""
    if not isinstance(p, Permutation):
        p = Permutation.of(p)
    return StateVector(np.array(p.ranks, dtype=float))


def _offsets(x: StateVector) -> np.ndarray:
    """Coordinate offsets a_k = x_k - k from the sorted vertex."""
    return x.coords - np.arange(1, x.n + 1)


def _sum_of_squares(a: np.ndarray) -> float:
    """sum(a * a) by `math.fsum`: the products' sum correctly rounded, in no BLAS.

    So the bits depend on no thread count, and integer offsets below 2**26
    (a vertex's) give their integer sum rounded once, also past 2**53.
    """
    return math.fsum((a * a).tolist())


def disorder_squared(x: StateVector | Sequence[float]) -> float:
    """Squared Euclidean distance d0 from x to the sorted vertex.

    d0 = sum_i (x_i - i)^2 measures how far a state is from the sorted
    order; it is zero exactly at (1, 2, ..., n).
    """
    return _sum_of_squares(_offsets(as_state(x)))


def _require_samples(count: int, n: int) -> None:
    """Raise SizeLimitError when count samples at n coordinates exceed COORDINATE_LIMIT words."""
    if count * (n + _SAMPLE_WORDS) > COORDINATE_LIMIT:
        raise SizeLimitError(
            f"traces are limited to {COORDINATE_LIMIT} words (samples x (n + {_SAMPLE_WORDS})): "
            f"at most {COORDINATE_LIMIT // (n + _SAMPLE_WORDS)} samples at n = {n}"
        )


def _sample_times(times: Iterable[float], n: int) -> list[float]:
    """The sample times at n coordinates as floats: non-empty, >= 0, strictly increasing.

    ValueError otherwise. Reads at most one time past the bound, so an
    oversized request raises SizeLimitError without holding its times.
    """
    ts = [float(t) for t in islice(times, COORDINATE_LIMIT // (n + _SAMPLE_WORDS) + 1)]
    _require_samples(len(ts), n)
    if not ts:
        raise ValueError("sample times must hold at least one time")
    for t in ts:
        if not (t >= 0):
            raise ValueError(f"sample time t must be >= 0, got {t}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly increasing")
    return ts


def _trace(x0: StateVector, times: Iterable[float], logs: Iterable[float]) -> Trace:
    """Either flow at `times`: state v_s + (x0 - v_s) * f, disorder d0 * f^2, f = e^log."""
    targets = np.arange(1, x0.n + 1, dtype=float)
    a = _offsets(x0)
    d0 = _sum_of_squares(a)
    samples = []
    for t, log in zip(times, logs):
        f = math.exp(log)
        state = x0 if f == 1.0 else StateVector(targets + a * f)
        samples.append(FlowSample(t, state, d0 * math.exp(2.0 * log)))
    return Trace(samples=tuple(samples))


def _group(coords: np.ndarray) -> np.ndarray:
    """Which neighbour gaps of the sorted coords join a tie: those of at most 1e-9 * n."""
    values = np.sort(coords)
    return values[1:] - values[:-1] <= 1e-9 * coords.size


@dataclass(frozen=True)
class FlowSample:
    """The flow at time t: its state and its disorder d0 * f^2 (`_trace`)."""

    t: float
    state: StateVector
    disorder: float

    @property
    def potential(self) -> float:
        """V = 0.5 * disorder."""
        return 0.5 * self.disorder

    @property
    def active_block_count(self) -> int:
        """Tie blocks of two or more coordinates: runs of neighbour gaps <= 1e-9 * n, chained."""
        joined = _group(self.state.coords)
        # each run of k joining gaps holds k - 1 adjacent joining pairs
        return int(np.count_nonzero(joined)) - int(np.count_nonzero(joined[1:] & joined[:-1]))


@dataclass(frozen=True)
class Trace:
    """The flow at increasing times: a tuple of `FlowSample`s."""

    samples: tuple

    @property
    def final(self) -> StateVector:
        return self.samples[-1].state
