"""State vectors on the rank polytope, its vertices, the disorder potential, traces.

The numpy half of the package's ground floor: a state is a point of R^n,
usually on the hyperplane sum(x) = n(n+1)/2 where the rank polytope (the
convex hull of all rearrangements of (1, 2, ..., n)) lives, and
`in_hyperplane` is the package's one test of that; a permutation embeds
as one of its vertices (`vertex_of`); the squared distance to the sorted
vertex measures disorder (`disorder_squared`); and a `Trace` holds what
either evaluator of the flow, `flow` or `projection`, samples. The
discrete half (permutations, inversions, the size guard) lives and is
exported in `perms`; `Permutation`, `SizeLimitError` and `inversions`
stay readable here as module attributes only.

Indices and ranks are 1-based throughout the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .perms import Permutation, SizeLimitError, hyperplane_sum, inversions  # noqa: F401

__all__ = [
    "StateVector",
    "as_state",
    "vertex_of",
    "disorder_squared",
    "in_hyperplane",
    "Trace",
]


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


def _contract(x0: StateVector, factors: Sequence[float]) -> list[StateVector]:
    """The states v_s + (x0 - v_s) * f, one per contraction factor f, of either flow.

    A factor of exactly 1.0 gives the start itself, bit for bit. Both
    evaluators pass one factor per sample time, so no factor means no
    time: the one ValueError for an empty `times`.
    """
    if not factors:
        raise ValueError("sample times must hold at least one time")
    targets = np.arange(1, x0.n + 1, dtype=float)
    a = _offsets(x0)
    return [x0 if f == 1.0 else StateVector(targets + a * f) for f in factors]


def disorder_squared(x: StateVector | Sequence[float]) -> float:
    """Squared Euclidean distance d0 from x to the sorted vertex.

    d0 = sum_i (x_i - i)^2 measures how far a state is from the sorted
    order; it is zero exactly at (1, 2, ..., n).
    """
    a = _offsets(as_state(x))
    return float(np.dot(a, a))


@dataclass(frozen=True)
class Trace:
    """The flow at increasing times: each sample answers t, state and disorder."""

    samples: tuple

    @property
    def final(self) -> StateVector:
        return self.samples[-1].state
