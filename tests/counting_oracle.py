"""Independent oracles for `feasible_count`: brute-force enumeration and Kahn's cycle test.

Not a test module itself; the counting tests import it.
"""

from functools import lru_cache

import numpy as np

from permflow import ConstraintSet, SizeLimitError

#: Brute-force enumeration materializes all n! rank assignments.
BRUTE_LIMIT = 10


@lru_cache(maxsize=None)
def rank_matrix(n: int) -> np.ndarray:
    """All n! rank assignments as rows, built by inserting rank n into n slots."""
    if n == 1:
        return np.array([[1]], dtype=np.int8)
    prev = rank_matrix(n - 1)
    m = prev.shape[0]
    out = np.empty((m * n, n), dtype=np.int8)
    for pos in range(n):
        block = out[pos * m : (pos + 1) * m]
        block[:, :pos] = prev[:, :pos]
        block[:, pos] = n
        block[:, pos + 1 :] = prev[:, pos:]
    return out


def feasible_count_brute(s: ConstraintSet) -> int:
    """Enumeration oracle for feasible_count: filter all n! assignments."""
    if s.n > BRUTE_LIMIT:
        raise SizeLimitError(
            f"brute-force counting is limited to n <= {BRUTE_LIMIT}, got {s.n}"
        )
    rows = rank_matrix(s.n)
    keep = np.ones(rows.shape[0], dtype=bool)
    for c in s.constraints:
        keep &= rows[:, c.lo - 1] < rows[:, c.hi - 1]
    return int(np.count_nonzero(keep))


def is_contradictory(s: ConstraintSet) -> bool:
    """True when the constraint digraph has a directed cycle: the oracle for a zero count.

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
