"""Permutations, the sorted vertex, and the disorder potential.

Everything else in the package is grounded here: permutations of ranks
1..n, their embedding as vertices of the rank polytope (the convex hull
of all rearrangements of (1, 2, ..., n), which lives in the hyperplane
sum(x) = n(n+1)/2), and the squared-distance disorder measure.

Indices and ranks are 1-based throughout the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SizeLimitError",
    "Permutation",
    "StateVector",
    "DisorderReport",
    "as_state",
    "sorted_vertex",
    "vertex_of",
    "inversions",
    "disorder_squared",
    "reverse_disorder",
    "log2_factorial",
    "hyperplane_sum",
    "in_hyperplane",
]

HYPERPLANE_TOL = 1e-9


class SizeLimitError(ValueError):
    """An input exceeds the deliberate size guard of an operation."""


@dataclass(frozen=True)
class Permutation:
    """An arrangement of the ranks 1..n, e.g. (3, 1, 2)."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        n = len(self.ranks)
        if n < 1:
            raise ValueError("permutation must have length >= 1")
        if sorted(self.ranks) != list(range(1, n + 1)):
            raise ValueError(
                f"ranks must contain each of 1..{n} exactly once, got {self.ranks}"
            )

    @property
    def n(self) -> int:
        return len(self.ranks)

    @classmethod
    def of(cls, ranks: Iterable[int]) -> "Permutation":
        return cls(tuple(int(r) for r in ranks))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    def is_sorted(self) -> bool:
        return self.ranks == tuple(range(1, self.n + 1))


@dataclass(frozen=True)
class StateVector:
    """A point x in R^n, usually on the hyperplane sum(x) = n(n+1)/2."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float, copy=True).reshape(-1)
        if coords.size < 1:
            raise ValueError("state vector must have at least one coordinate")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return int(self.coords.size)

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class DisorderReport:
    """Squared distance d0 to the sorted vertex, and the potential v0 = d0/2."""

    d0: float
    v0: float
    n: int


def as_state(x: StateVector | Sequence[float] | np.ndarray) -> StateVector:
    """Coerce an array-like into a StateVector (no-op for StateVector)."""
    if isinstance(x, StateVector):
        return x
    return StateVector(np.asarray(x, dtype=float))


def require_finite_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def hyperplane_sum(n: int) -> int:
    """Coordinate sum shared by every rearrangement of (1, ..., n)."""
    return n * (n + 1) // 2


def in_hyperplane(x: StateVector | Sequence[float], tol: float = HYPERPLANE_TOL) -> bool:
    """True when the coordinates sum to n(n+1)/2 within ``tol``."""
    s = as_state(x)
    return abs(float(s.coords.sum()) - hyperplane_sum(s.n)) <= tol


def sorted_vertex(n: int) -> StateVector:
    """The vertex (1, 2, ..., n) representing the sorted order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return StateVector(np.arange(1, n + 1, dtype=float))


def vertex_of(p: Permutation | Iterable[int]) -> StateVector:
    """Embed a permutation as the corresponding polytope vertex."""
    if not isinstance(p, Permutation):
        p = Permutation.of(p)
    return StateVector(np.array(p.ranks, dtype=float))


def inversions(p: Permutation | Iterable[int]) -> int:
    """Count pairs i < j with ranks[i] > ranks[j].

    Bottom-up merge sort in O(n log n): when the head of a right run is
    taken before the rest of its left run, it forms an inversion with
    every key still waiting on the left.
    """
    if not isinstance(p, Permutation):
        p = Permutation.of(p)
    runs = list(p.ranks)
    count = 0
    width = 1
    while width < p.n:
        merged: list[int] = []
        for lo in range(0, p.n, 2 * width):
            left = runs[lo : lo + width]
            right = runs[lo + width : lo + 2 * width]
            i = j = 0
            while i < len(left) and j < len(right):
                if right[j] < left[i]:
                    merged.append(right[j])
                    j += 1
                    count += len(left) - i
                else:
                    merged.append(left[i])
                    i += 1
            merged += left[i:]
            merged += right[j:]
        runs = merged
        width *= 2
    return count


def disorder_squared(x: StateVector | Sequence[float]) -> DisorderReport:
    """Squared Euclidean distance from x to the sorted vertex, plus half of it.

    d0 = sum_i (x_i - i)^2 measures how far a state is from the sorted
    order; it is zero exactly at (1, 2, ..., n).
    """
    s = as_state(x)
    a = s.coords - np.arange(1, s.n + 1)
    d0 = float(np.dot(a, a))
    return DisorderReport(d0=d0, v0=d0 / 2.0, n=s.n)


def reverse_disorder(n: int) -> int:
    """Exact squared distance n(n^2 - 1)/3 from the reversed order to sorted.

    Computed in arbitrary-precision integers; n(n^2 - 1) is always
    divisible by 3.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * (n * n - 1) // 3


def log2_factorial(n: int) -> float:
    """log2(n!) by direct summation of log2(k) for k = 2..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(sum(math.log2(k) for k in range(2, n + 1)))
