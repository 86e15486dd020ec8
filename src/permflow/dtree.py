"""Comparison decision trees: the counting bound and optimal small trees.

A binary tree whose internal nodes compare two input positions and whose
leaves output an ordering can sort all n! inputs only if it has at least
n! leaves, hence height at least ceil(log2(n!)). `build_optimal` finds a
tree meeting that height exactly for every n <= 5 by exhaustive
branch-and-bound over comparison choices on a bitmask of the orderings
still consistent, and `verify_tree` replays every permutation to confirm
a tree really sorts.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import NamedTuple, Optional, Union

from .perms import SizeLimitError

__all__ = [
    "Leaf",
    "Internal",
    "Node",
    "TreeStats",
    "OptimalTree",
    "BUILD_LIMIT",
    "info_lower_bound",
    "build_optimal",
    "verify_tree",
    "tree_stats",
    "tree_to_dict",
    "tree_to_json",
]

#: build_optimal refuses n beyond this outright.
BUILD_LIMIT = 5


class Leaf(NamedTuple):
    """Terminal node: `output` lists input positions in ascending value order.

    Applying a leaf to an input x yields (x[output[0]], x[output[1]], ...)
    using 1-based positions, which is the sorted sequence when the leaf
    is reached along a consistent comparison path.
    """

    output: tuple[int, ...]


class Internal(NamedTuple):
    """Comparison of input positions i, j (1-based): low if x_i < x_j, else high."""

    compare: tuple[int, int]
    low: "Node"
    high: "Node"


Node = Union[Leaf, Internal]


class TreeStats(NamedTuple):
    height: int
    leaf_count: int


class OptimalTree(NamedTuple):
    root: Node
    stats: TreeStats

    @property
    def height(self) -> int:
        return self.stats.height


def info_lower_bound(n: int) -> int:
    """ceil(log2(n!)): minimum height of any tree that sorts n keys.

    Computed on exact integers, so no rounding step is involved.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _ceil_log2(math.factorial(n))


def _ceil_log2(m: int) -> int:
    """ceil(log2 m) for an integer m >= 1: the bit length of m - 1."""
    return (m - 1).bit_length()


def _argsort_perm(ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Positions (1-based) of an input with these ranks, in ascending value order."""
    return tuple(sorted(range(1, len(ranks) + 1), key=lambda k: ranks[k - 1]))


def build_optimal(n: int) -> OptimalTree:
    """Minimal-height comparison tree that sorts every permutation of 1..n.

    Exhaustive search over comparison pairs with the remaining set of
    consistent orderings as state: an int whose bit k stands for the k-th
    permutation in lexicographic order, split by one AND with a pair's
    precomputed mask of x_i < x_j and memoized on itself. The search is
    pruned by the counting bound ceil(log2 |consistent|). Ties between
    equally tall candidates resolve to the lexicographically smallest
    comparison pair, so the result is deterministic. n > BUILD_LIMIT is
    refused.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > BUILD_LIMIT:
        raise SizeLimitError(
            f"optimal tree search is limited to n <= {BUILD_LIMIT}, got {n}"
        )

    perms = list(itertools.permutations(range(1, n + 1)))
    splits = [
        ((i, j), sum(1 << k for k, p in enumerate(perms) if p[i - 1] < p[j - 1]))
        for i, j in itertools.combinations(range(1, n + 1), 2)
    ]
    memo: dict[int, tuple[Node, int]] = {}

    def search(consistent: int) -> tuple[Node, int]:
        size = consistent.bit_count()
        if size == 1:
            return Leaf(_argsort_perm(perms[consistent.bit_length() - 1])), 0
        hit = memo.get(consistent)
        if hit is not None:
            return hit
        floor = _ceil_log2(size)
        best_node: Optional[Node] = None
        best_height = 0
        for pair, low in splits:
            lo = consistent & low
            if not lo or lo == consistent:
                continue  # outcome predetermined: no information
            hi = consistent ^ lo
            ideal = 1 + max(_ceil_log2(lo.bit_count()), _ceil_log2(hi.bit_count()))
            if best_node is not None and ideal >= best_height:
                continue
            low_node, low_h = search(lo)
            if best_node is not None and 1 + low_h >= best_height:
                continue
            high_node, high_h = search(hi)
            height = 1 + max(low_h, high_h)
            if best_node is None or height < best_height:
                best_node = Internal(pair, low_node, high_node)
                best_height = height
                if best_height == floor:
                    break
        assert best_node is not None  # some pair always splits |consistent| > 1
        memo[consistent] = (best_node, best_height)
        return best_node, best_height

    root, height = search((1 << len(perms)) - 1)
    stats = tree_stats(root)
    assert stats.height == height
    return OptimalTree(root=root, stats=stats)


def _check_well_formed(tree: Node, n: int) -> None:
    expected = set(range(1, n + 1))

    def walk(node: Node, seen: frozenset[tuple[int, int]]) -> None:
        if isinstance(node, Leaf):
            if len(node.output) != n or set(node.output) != expected:
                raise ValueError(f"leaf output {node.output} is not a permutation of 1..{n}")
            return
        if isinstance(node, Internal):
            i, j = node.compare
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"comparison pair {node.compare} invalid for n={n}")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"comparison pair {pair} repeated along a path")
            walk(node.low, seen | {pair})
            walk(node.high, seen | {pair})
            return
        raise ValueError(f"not a tree node: {node!r}")

    walk(tree, frozenset())


def verify_tree(tree: Node, n: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Replay every permutation of 1..n through the tree.

    Returns (True, None) when each input reaches a leaf whose output
    sorts it, else (False, first_failing_input). Raises ValueError for a
    structurally malformed tree (bad pairs, repeated comparisons on a
    path, invalid leaf outputs).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_well_formed(tree, n)
    target = tuple(range(1, n + 1))
    for x in itertools.permutations(range(1, n + 1)):
        node = tree
        while isinstance(node, Internal):
            i, j = node.compare
            node = node.low if x[i - 1] < x[j - 1] else node.high
        picked = tuple(x[k - 1] for k in node.output)
        if picked != target:
            return False, x
    return True, None


def tree_stats(tree: Node) -> TreeStats:
    """Height (comparisons on the longest path) and leaf count by traversal."""
    height = 0
    leaves = 0
    stack: list[tuple[Node, int]] = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Leaf):
            leaves += 1
            height = max(height, depth)
        elif isinstance(node, Internal):
            stack.append((node.low, depth + 1))
            stack.append((node.high, depth + 1))
        else:
            raise ValueError(f"not a tree node: {node!r}")
    return TreeStats(height=height, leaf_count=leaves)


def tree_to_dict(tree: Node) -> dict:
    """Nested dict form: {"cmp":[i,j],"lo":...,"hi":...} / {"out":[...]}"""
    if isinstance(tree, Leaf):
        return {"out": list(tree.output)}
    if isinstance(tree, Internal):
        return {
            "cmp": list(tree.compare),
            "lo": tree_to_dict(tree.low),
            "hi": tree_to_dict(tree.high),
        }
    raise ValueError(f"not a tree node: {tree!r}")


def tree_to_json(tree: Node) -> str:
    return json.dumps(tree_to_dict(tree))
