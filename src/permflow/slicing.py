"""Comparisons as half-space constraints: counting, isolation, instrumented sorts.

Each comparison between two keys u < v (labels from 1..n) contributes the
constraint x_u < x_v on the rank polytope, and the feasible set is the
collection of rank assignments consistent with every constraint so far.
A correct comparison sort drives that count from n! down to exactly 1 —
the sorted assignment — and the per-comparison information
bits = log2(count_before / count_after) telescopes to log2(n!) over any
complete run. `instrument` replays four classical sorts while recording
this contraction; it grows one dict of the pairs seen, recounts from it
after each new pair, and builds and validates its `ConstraintSet` once,
at the end of the run. `feasible_count` does the counting: it multiplies
over the connected components of the constraint graph and counts each one
by a dynamic program over its down-sets (the lattice of ideals of the
constraint poset), so it only visits label sets that some feasible order
places first. `isolates_sorted` counts nothing: it reads the pairs alone.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .perms import Permutation, SizeLimitError

__all__ = [
    "Constraint",
    "ConstraintSet",
    "TraceStep",
    "InstrumentedRun",
    "ALGORITHMS",
    "DP_LIMIT",
    "INSTRUMENT_LIMIT",
    "parse_constraints",
    "feasible_count",
    "is_contradictory",
    "isolates_sorted",
    "instrument",
    "comparison_count",
]

#: Counting one connected component visits its down-sets, up to 2^n of them
#: when the constraints are few but connect every label (a star, say).
DP_LIMIT = 18
#: Instrumented runs recount the feasible set after every comparison.
INSTRUMENT_LIMIT = 10

ALGORITHMS = ("insertion", "merge", "quick", "heap")


@dataclass(frozen=True)
class Constraint:
    """The key labeled `lo` must rank below the key labeled `hi`: x_lo < x_hi."""

    lo: int
    hi: int


@dataclass(frozen=True)
class ConstraintSet:
    """An ordered, duplicate-free sequence of constraints over labels 1..n."""

    n: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        seen = set()
        for c in self.constraints:
            if not (1 <= c.lo <= self.n and 1 <= c.hi <= self.n):
                raise ValueError(f"constraint {c.lo}<{c.hi} out of range 1..{self.n}")
            if c.lo == c.hi:
                raise ValueError(f"constraint {c.lo}<{c.hi} relates a label to itself")
            if c in seen:
                raise ValueError(f"constraint {c.lo}<{c.hi} appears twice")
            seen.add(c)

    @classmethod
    def empty(cls, n: int) -> "ConstraintSet":
        return cls(n, ())


def parse_constraints(text: str, n: int) -> ConstraintSet:
    """Parse the comma-separated `i<j` form, e.g. "1<2,2<3".

    Whitespace around pairs is ignored; an empty (or all-whitespace)
    string yields the unconstrained set. Repeated pairs are collapsed to
    their first occurrence. Raises ValueError on anything else that is
    not `int<int` (every chunk is read first) with labels in 1..n.
    """
    if not text or not text.strip():
        return ConstraintSet.empty(n)
    pairs: list[Constraint] = []
    for chunk in text.split(","):
        part = chunk.strip()
        pieces = part.split("<")
        if len(pieces) != 2:
            raise ValueError(f"expected 'i<j', got {part!r}")
        try:
            lo, hi = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise ValueError(f"expected integer labels in {part!r}") from None
        pairs.append(Constraint(lo, hi))
    return ConstraintSet(n, tuple(dict.fromkeys(pairs)))


def feasible_count(s: ConstraintSet) -> int:
    """Number of rank assignments to labels 1..n satisfying every constraint.

    Labels in different connected components of the constraint graph never
    constrain each other, so the count is the multinomial n! / prod |C|!
    (the ways to share the ranks out among the components) times the
    count of each component on its own. A component is counted over its
    down-sets (label sets closed under "must rank below"), which a label
    joins once all its lower labels are in, so sets no feasible order
    places first are never visited. Exact integer arithmetic throughout;
    0 when the constraints are contradictory.
    """
    if s.n > DP_LIMIT:
        raise SizeLimitError(f"subset counting is limited to n <= {DP_LIMIT}, got {s.n}")
    return _count_orders(s.n, s.constraints)


def _count_orders(n: int, constraints: Iterable[Constraint]) -> int:
    """`feasible_count` of constraints that are already valid over labels 1..n."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    below = [0] * n  # below[v] = bitmask of labels that must rank under label v+1
    for c in constraints:
        below[c.hi - 1] |= 1 << (c.lo - 1)
        root[find(c.lo - 1)] = find(c.hi - 1)
    components: dict[int, int] = {}  # root label -> bitmask of its component
    for v in range(n):
        r = find(v)
        components[r] = components.get(r, 0) | 1 << v
    total = math.factorial(n)
    for labels in components.values():
        size = labels.bit_count()
        total //= math.factorial(size)
        if size > 1:
            total *= _count_down_sets(below, labels)
            if total == 0:
                return 0
    return total


def _count_down_sets(below: list[int], labels: int) -> int:
    """Orders of one component's labels, one down-set layer at a time.

    A layer maps each down-set of one size to the number of orders that
    place exactly that set first; it comes out empty only on a cycle.
    """
    joins = [(1 << v, below[v]) for v in range(len(below)) if labels >> v & 1]
    layer = {0: 1}
    for _ in joins:
        grown: defaultdict[int, int] = defaultdict(int)
        for mask, ways in layer.items():
            for bit, need in joins:
                if not (mask & bit or need & ~mask):
                    grown[mask | bit] += ways
        if not grown:
            return 0
        layer = grown
    return layer[labels]


def is_contradictory(s: ConstraintSet) -> bool:
    """True when the constraint digraph has a directed cycle (count would be 0).

    Kahn's topological order, built in O(n + m); a cycle never joins it.
    """
    above: list[list[int]] = [[] for _ in range(s.n + 1)]
    waiting = [0] * (s.n + 1)  # waiting[v] = constraints below label v not yet placed
    for c in s.constraints:
        above[c.lo].append(c.hi)
        waiting[c.hi] += 1
    order = [v for v in range(1, s.n + 1) if waiting[v] == 0]
    for v in order:  # the loop reaches the labels it appends
        for w in above[v]:
            waiting[w] -= 1
            if waiting[w] == 0:
                order.append(w)
    return len(order) < s.n


def isolates_sorted(s: ConstraintSet) -> bool:
    """True when exactly one assignment remains and it is the sorted one.

    That needs every constraint to point up (lo < hi). Then chains of
    constraints only climb, so none passes through a label between k and
    k + 1, and the order is pinned iff each link (k, k + 1) is a constraint:
    a correct sort compares every pair adjacent in its output (Knuth, TAOCP
    vol. 3, section 5.3.1). So the pairs alone decide, at any n.
    """
    if not all(c.lo < c.hi for c in s.constraints):
        return False
    # the pairs are distinct, so n - 1 links means every link
    return sum(c.hi == c.lo + 1 for c in s.constraints) == s.n - 1


# --- instrumented classical sorts ------------------------------------------

Less = Callable[[int, int], bool]


def _insertion_sort(a: list, less: Less) -> list:
    a = list(a)
    for k in range(1, len(a)):
        item = a[k]
        m = k - 1
        while m >= 0 and less(item, a[m]):
            a[m + 1] = a[m]
            m -= 1
        a[m + 1] = item
    return a


def _merge_sort(a: list, less: Less) -> list:
    if len(a) <= 1:
        return list(a)
    mid = len(a) // 2
    left = _merge_sort(a[:mid], less)
    right = _merge_sort(a[mid:], less)
    out: list = []
    i = j = 0
    while i < len(left) and j < len(right):
        if less(right[j], left[i]):
            out.append(right[j])
            j += 1
        else:
            out.append(left[i])
            i += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def _quick_sort(a: list, less: Less) -> list:
    if len(a) <= 1:
        return list(a)
    pivot = a[0]
    below: list = []
    above: list = []
    for v in a[1:]:
        (below if less(v, pivot) else above).append(v)
    return _quick_sort(below, less) + [pivot] + _quick_sort(above, less)


def _heap_sort(a: list, less: Less) -> list:
    a = list(a)

    def sift_down(root: int, end: int) -> None:
        while True:
            child = 2 * root + 1
            if child >= end:
                return
            if child + 1 < end and less(a[child], a[child + 1]):
                child += 1
            if less(a[root], a[child]):
                a[root], a[child] = a[child], a[root]
                root = child
            else:
                return

    for start in range(len(a) // 2 - 1, -1, -1):
        sift_down(start, len(a))
    for end in range(len(a) - 1, 0, -1):
        a[0], a[end] = a[end], a[0]
        sift_down(0, end)
    return a


_SORTS: dict[str, Callable[[list, Less], list]] = {
    "insertion": _insertion_sort,
    "merge": _merge_sort,
    "quick": _quick_sort,
    "heap": _heap_sort,
}


def _sort_and_input(
    algorithm: str, p: Permutation | Sequence[int]
) -> tuple[Callable[[list, Less], list], Permutation]:
    """The named sort variant and p as a Permutation; ValueError on either."""
    if algorithm not in _SORTS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
        )
    if not isinstance(p, Permutation):
        p = Permutation.of(p)
    return _SORTS[algorithm], p


@dataclass(frozen=True)
class TraceStep:
    """One comparison: the constraint it fixed and the count contraction."""

    constraint: Constraint
    feasible_before: int
    feasible_after: int
    bits: float


@dataclass(frozen=True)
class InstrumentedRun:
    """One instrumented sort: its trace and the ledger summed over it."""

    algorithm: str
    input: Permutation
    trace: tuple[TraceStep, ...]
    output: tuple[int, ...]
    constraints: ConstraintSet

    @property
    def comparisons(self) -> int:
        return len(self.trace)

    @property
    def total_bits(self) -> float:
        return float(sum(step.bits for step in self.trace))

    @property
    def max_bits(self) -> float:
        return float(max((step.bits for step in self.trace), default=0.0))

    @property
    def halving_fraction(self) -> float:
        """Share of comparisons that at least halved the count (bits >= 1 - 1e-9)."""
        if not self.trace:
            return 0.0
        return sum(1 for step in self.trace if step.bits >= 1.0 - 1e-9) / len(self.trace)

    @property
    def final_feasible(self) -> int:
        if self.trace:
            return self.trace[-1].feasible_after
        return math.factorial(self.input.n)


def instrument(algorithm: str, p: Permutation | Sequence[int]) -> InstrumentedRun:
    """Run a comparison sort on p, recording each comparison's contraction.

    Every comparison of keys u, v orients the constraint by the observed
    order (smaller key below larger). A new pair joins the pairs seen so
    far, kept in first-seen order, and the feasible set is recounted from
    them; a repeated comparison contributes a trace row with bits = 0. The
    pairs are valid by construction, so the run builds its `ConstraintSet`
    once at the end and validates it once. The variants are fixed: binary
    insertion's backward shift, top-down merge splitting at floor(n/2),
    quicksort on the first-element pivot, and a max-heap with sift-down.
    """
    sort, p = _sort_and_input(algorithm, p)
    if p.n > INSTRUMENT_LIMIT:
        raise SizeLimitError(
            f"instrumented runs are limited to n <= {INSTRUMENT_LIMIT}, got {p.n}"
        )

    seen: dict[Constraint, None] = {}  # insertion-ordered set of the pairs so far
    count_now = math.factorial(p.n)
    steps: list[TraceStep] = []

    def less(u: int, v: int) -> bool:
        nonlocal count_now
        lo, hi = (u, v) if u < v else (v, u)
        c = Constraint(lo, hi)
        before = count_now
        if c not in seen:
            seen[c] = None
            count_now = _count_orders(p.n, seen)
        steps.append(
            TraceStep(
                constraint=c,
                feasible_before=before,
                feasible_after=count_now,
                bits=math.log2(before / count_now),
            )
        )
        return u < v

    out = sort(list(p.ranks), less)
    if out != list(range(1, p.n + 1)):
        raise RuntimeError(f"{algorithm} failed to sort {p.ranks}: got {out}")
    return InstrumentedRun(
        algorithm=algorithm,
        input=p,
        trace=tuple(steps),
        output=tuple(out),
        constraints=ConstraintSet(p.n, tuple(seen)),
    )


def comparison_count(algorithm: str, p: Permutation | Sequence[int]) -> int:
    """Comparisons one of the fixed sort variants spends on p — counting only.

    Unlike instrument, no feasible sets are maintained, so this scales to
    any n that the plain sort itself can handle.
    """
    sort, p = _sort_and_input(algorithm, p)
    hits = 0

    def less(u: int, v: int) -> bool:
        nonlocal hits
        hits += 1
        return u < v

    out = sort(list(p.ranks), less)
    if out != list(range(1, p.n + 1)):
        raise RuntimeError(f"{algorithm} failed to sort {p.ranks}: got {out}")
    return hits
