"""Comparisons as half-space constraints: counting, isolation, instrumented sorts.

Each comparison between two keys u < v (labels from 1..n) contributes the
constraint x_u < x_v on the rank polytope, and the feasible set is the
collection of rank assignments consistent with every constraint so far.
A correct comparison sort drives that count from n! down to exactly 1 —
the sorted assignment — and the per-comparison information
bits = log2(count_before / count_after) telescopes to log2(n!) over any
complete run. `feasible_count` does the counting. It closes the pairs
transitively, as one bitmask per label of the labels below it and one of
those above it, and splits the closed order recursively into parallel
parts (the components of the comparability graph, counted by the
multinomial times each part) and series parts (the components of the
incomparability graph, counted by the product). Only a prime part, which
neither graph splits, runs a dynamic program over its down-sets (the
lattice of ideals of the order), which visits only label sets that some
feasible order places first. `instrument` replays four classical sorts
while recording this contraction. It keeps one closure for the whole run:
a new pair costs one join and one count, a pair the closure already
implies keeps the count, and the run builds and validates its
`ConstraintSet` once, at the end. `isolates_sorted` counts nothing: it
reads the pairs alone.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Sequence

from .perms import FrozenRecord, Permutation, SizeLimitError

__all__ = [
    "Constraint",
    "ConstraintSet",
    "TraceStep",
    "InstrumentedRun",
    "ALGORITHMS",
    "DP_LIMIT",
    "parse_constraints",
    "feasible_count",
    "isolates_sorted",
    "instrument",
]

#: Counting and instrumented runs stop here: a prime part of the order is
#: counted over its down-sets, up to 2^n of them.
DP_LIMIT = 18


class Constraint(NamedTuple):
    """The key labeled `lo` must rank below the key labeled `hi`: x_lo < x_hi."""

    lo: int
    hi: int


def _label(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"constraint labels must be integers, got {x!r}") from None


class ConstraintSet(FrozenRecord):
    """An ordered, duplicate-free tuple of constraints over labels 1..n, from (lo, hi) pairs."""

    __slots__ = ("n", "constraints")
    n: int
    constraints: tuple[Constraint, ...]

    def __init__(self, n: int, constraints: Iterable[tuple[int, int]]):
        pairs = tuple(Constraint(_label(lo), _label(hi)) for lo, hi in constraints)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "constraints", pairs)
        self._validate()

    def _validate(self) -> None:
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
    pairs: list[tuple[int, int]] = []
    for chunk in text.split(","):
        part = chunk.strip()
        pieces = part.split("<")
        if len(pieces) != 2:
            raise ValueError(f"expected 'i<j', got {part!r}")
        try:
            lo, hi = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise ValueError(f"expected integer labels in {part!r}") from None
        pairs.append((lo, hi))
    return ConstraintSet(n, dict.fromkeys(pairs))


def feasible_count(s: ConstraintSet) -> int:
    """Number of rank assignments to labels 1..n satisfying every constraint.

    The pairs are closed transitively one at a time (`_join`); a pair
    whose hi already ranks below its lo closes a cycle, and the count is 0.
    The closed order is counted by its series-parallel decomposition
    (`_count`), so only its prime parts are counted over their down-sets.
    Exact integer arithmetic throughout.
    """
    if s.n > DP_LIMIT:
        raise SizeLimitError(f"subset counting is limited to n <= {DP_LIMIT}, got {s.n}")
    below, above = [0] * s.n, [0] * s.n
    for c in s.constraints:
        if below[c.lo - 1] >> (c.hi - 1) & 1:
            return 0
        _join(below, above, c.lo - 1, c.hi - 1)
    return _count(below, above)


def _join(below: list[int], above: list[int], lo: int, hi: int) -> bool:
    """Close the order under label lo < label hi (0-based); False if it held already.

    below[v] and above[v] are the bitmasks of the labels that rank under and
    over label v in every feasible order: the transitive closure of the
    pairs so far. A new pair puts everything at or under lo below
    everything at or over hi, one mask update per label touched. The caller
    makes sure hi is not already below lo.
    """
    if below[hi] >> lo & 1:
        return False
    under = below[lo] | 1 << lo
    over = above[hi] | 1 << hi
    for masks, labels, extra in ((below, over, under), (above, under, over)):
        while labels:
            bit = labels & -labels
            labels ^= bit
            masks[bit.bit_length() - 1] |= extra
    return True


def _count(below: list[int], above: list[int]) -> int:
    """Orders of all labels under the closed order `below`/`above` (see `_join`).

    A parallel node, whose comparability graph falls apart into components,
    takes the multinomial (the ways to share the ranks out among the parts)
    times each part's count; a series node, whose incomparability graph
    falls apart, puts each part wholly below the next, so it takes the
    product of the parts' counts. Only a prime node, connected in both
    graphs, is counted over its down-sets (Möhring, "Computationally
    tractable classes of ordered sets", 1989).
    """
    related = [b | a for b, a in zip(below, above)]
    return _count_node(below, related, (1 << len(below)) - 1, True)


def _count_node(below: list[int], related: list[int], labels: int, comparable: bool) -> int:
    """`_count` of `labels`, split along the comparability graph if `comparable`.

    Otherwise the split is along the incomparability graph. Each part is
    split along the other graph next, since it is connected in the graph
    that made it. So a set that the incomparability graph does not split
    is prime, and one that the comparability graph does not split goes on
    to the incomparability graph.
    """
    parts = _components(related, labels, comparable)
    if not comparable and len(parts) == 1:
        return _count_down_sets(below, labels)
    total = math.factorial(labels.bit_count()) if comparable else 1
    for part in parts:
        if part & part - 1:  # a single label has one order
            if comparable:
                total //= math.factorial(part.bit_count())
            total *= _count_node(below, related, part, not comparable)
    return total


def _components(related: list[int], labels: int, comparable: bool) -> list[int]:
    """The connected components, as bitmasks, of one graph on `labels`.

    related[v] is the mask of the labels comparable to label v: the
    comparability graph's neighbours, or, unless `comparable`, the
    complement of the incomparability graph's.
    """
    flip = 0 if comparable else -1  # x ^ -1 == ~x
    parts = []
    while labels:
        frontier = labels & -labels
        left = labels ^ frontier
        while frontier and left:
            bit = frontier & -frontier
            frontier ^= bit
            new = left & (related[bit.bit_length() - 1] ^ flip)
            left ^= new
            frontier |= new
        parts.append(labels ^ left)
        labels = left
    return parts


def _count_down_sets(below: list[int], labels: int) -> int:
    """Orders of one prime node's labels, one down-set layer at a time.

    A layer maps each down-set of one size (a set of the node's labels that
    holds every node label under each of its members) to the number of
    orders that place exactly that set first, so sets no feasible order
    places first are never visited.
    """
    joins = [(1 << v, below[v] & labels) for v in range(len(below)) if labels >> v & 1]
    layer = {0: 1}
    for _ in joins:
        grown: defaultdict[int, int] = defaultdict(int)
        for mask, ways in layer.items():
            for bit, need in joins:
                if not (mask & bit or need & ~mask):
                    grown[mask | bit] += ways
        layer = grown
    return layer[labels]


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

ALGORITHMS = tuple(_SORTS)


class TraceStep(NamedTuple):
    """One comparison: the constraint it fixed and the count contraction."""

    constraint: Constraint
    feasible_before: int
    feasible_after: int
    bits: float


class InstrumentedRun(NamedTuple):
    """One instrumented sort: its trace and the ledger summed over it."""

    algorithm: str
    input: Permutation
    trace: tuple[TraceStep, ...]
    constraints: ConstraintSet

    @property
    def comparisons(self) -> int:
        return len(self.trace)

    @property
    def total_bits(self) -> float:
        """log2(n!) - log2(final_feasible), from the exact counts: the steps' bits telescope."""
        return math.log2(math.factorial(self.input.n)) - math.log2(self.final_feasible)

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
    order (smaller key below larger). The run keeps one transitive closure
    of the pairs seen: a pair it does not imply yet is joined to it and
    the feasible set is recounted from it (see `feasible_count`); a pair
    it implies, repeated or not, keeps the count and contributes a trace
    row with bits = 0. The pairs seen are kept in first-seen order; they
    are valid by construction, so the run builds its `ConstraintSet` once
    at the end and validates it once. The variants are fixed: insertion
    by a linear backward scan, top-down merge splitting at floor(n/2),
    quicksort on the first-element pivot, and a max-heap with sift-down.
    The sort must return (1, ..., n); any other output raises RuntimeError.
    """
    if algorithm not in _SORTS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
        )
    if not isinstance(p, Permutation):
        p = Permutation.of(p)
    if p.n > DP_LIMIT:
        raise SizeLimitError(f"instrumented runs are limited to n <= {DP_LIMIT}, got {p.n}")

    seen: dict[Constraint, None] = {}  # insertion-ordered set of the pairs so far
    below, above = [0] * p.n, [0] * p.n
    count_now = math.factorial(p.n)
    steps: list[TraceStep] = []

    def less(u: int, v: int) -> bool:
        nonlocal count_now
        lo, hi = (u, v) if u < v else (v, u)
        c = Constraint(lo, hi)
        seen[c] = None
        before = count_now
        if _join(below, above, lo - 1, hi - 1):
            count_now = _count(below, above)
        steps.append(
            TraceStep(
                constraint=c,
                feasible_before=before,
                feasible_after=count_now,
                bits=math.log2(before / count_now),
            )
        )
        return u < v

    out = _SORTS[algorithm](list(p.ranks), less)
    if out != list(range(1, p.n + 1)):
        raise RuntimeError(f"{algorithm} failed to sort {p.ranks}: got {out}")
    return InstrumentedRun(
        algorithm=algorithm,
        input=p,
        trace=tuple(steps),
        constraints=ConstraintSet(p.n, seen),
    )
