"""Permutations of ranks 1..n and the integer facts about them.

The discrete half of the package: a permutation, its inversion count,
the exact disorder of the reversed order, the coordinate sum of the
rank polytope's hyperplane, and the input checks and size guard
shared by every layer. Nothing here imports numpy or `dataclasses` (which
imports `inspect`), so `slicing`, `dtree` and the `permflow slice` /
`permflow dtree` commands start without either: their records are
`typing.NamedTuple` classes, or `FrozenRecord` classes where construction
validates. The numpy state half (state vectors, vertices, the disorder
potential) is `core`.

Indices and ranks are 1-based throughout the public API.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "MAX_STEP",
    "SizeLimitError",
    "Permutation",
    "inversions",
    "reverse_disorder",
    "hyperplane_sum",
]

#: Largest admissible Euler step for `projection.integrate_projected`.
#: Kept here so the `permflow` parser can print it without numpy.
MAX_STEP = 1e-2


class SizeLimitError(ValueError):
    """An input exceeds the deliberate size guard of an operation."""


class FrozenRecord:
    """Base of a validated immutable record whose fields are its `__slots__`.

    It behaves as a frozen dataclass does: it compares (only with its own
    class) and hashes by its fields, prints as `Name(field=value, ...)`,
    and raises AttributeError on assignment. A subclass's `__init__`
    validates and stores each field with `object.__setattr__`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Permutation(FrozenRecord):
    """An arrangement of the ranks 1..n, e.g. (3, 1, 2)."""

    __slots__ = ("ranks",)
    ranks: tuple[int, ...]

    def __init__(self, ranks: Iterable[int]):
        ranks = tuple(ranks)  # a list is copied; a tuple is kept as it is
        n = len(ranks)
        if n < 1:
            raise ValueError("permutation must have length >= 1")
        if sorted(ranks) != list(range(1, n + 1)):
            allowed = set(range(1, n + 1))
            seen = set()
            for r in ranks:
                if r in seen or r not in allowed:
                    fault = "appears twice" if r in seen else "is not one of them"
                    raise ValueError(
                        f"ranks must contain each of 1..{n} exactly once: rank {r!r} {fault}"
                    )
                seen.add(r)
        object.__setattr__(self, "ranks", ranks)

    @property
    def n(self) -> int:
        return len(self.ranks)

    @classmethod
    def of(cls, ranks: Iterable[int]) -> "Permutation":
        """Permutation of integral ranks; another rank (2.5, "3", inf, nan) raises ValueError."""
        given = tuple(ranks)
        try:
            ints = tuple(map(int, given))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != given:
            bad = next(r for r in given if not _is_integral(r))
            raise ValueError(f"ranks must be integers, got {bad!r}")
        return cls(ints)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reverse(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))


def _is_integral(r) -> bool:
    """True when int(r) succeeds and equals r."""
    try:
        return int(r) == r
    except (TypeError, ValueError, OverflowError):
        return False


def require_finite_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def hyperplane_sum(n: int) -> int:
    """Coordinate sum shared by every rearrangement of (1, ..., n)."""
    return n * (n + 1) // 2


def inversions(p: Permutation | Iterable[int]) -> int:
    """Count pairs i < j with ranks[i] > ranks[j].

    A Fenwick tree over the ranks seen so far, in O(n log n) and without
    numpy: after k ranks, rank r forms an inversion with each of them
    above r, that is k less the prefix count of those at most r. tree[m]
    counts the seen ranks in (m - lowbit(m), m], so a prefix count walks
    down by clearing low bits and an insertion walks up by adding them,
    at most log2(n) + 1 steps each.
    """
    if not isinstance(p, Permutation):
        p = Permutation.of(p)
    n = p.n
    tree = [0] * (n + 1)
    count = 0
    for k, r in enumerate(p.ranks):
        m = r
        at_most = 0
        while m:
            at_most += tree[m]
            m &= m - 1
        count += k - at_most
        m = r
        while m <= n:
            tree[m] += 1
            m += m & -m
    return count


def reverse_disorder(n: int) -> int:
    """Exact squared distance n(n^2 - 1)/3 from the reversed order to sorted.

    Computed in arbitrary-precision integers; n(n^2 - 1) is always
    divisible by 3.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * (n * n - 1) // 3
