"""Oracles for `crossing_events`: the per-pair triangle loop, and the replay.

The triangle loop recomputes every pair's meeting time and pins the
schedule's bits. The replay does not reuse it: it plays the schedule's
rows on the order of the coordinates by value and checks that each time
group reverses contiguous blocks into the order the flow itself shows,
ending at the sorted order. Not a test module itself; the flow and CLI
tests import it.
"""

import itertools
import math

import numpy as np

from permflow import inversions, sample_trace


def _meeting_time(x, a, i, j):
    """max(+0.0, -ln((j - i) / (a_i - a_j))) for 1-based i < j, start x and offsets a, or None.

    exp(-t) = (j - i) / (a_i - a_j) is the meeting condition; the pair
    meets, once, exactly when that ratio lies in (0, 1), which in exact
    arithmetic is x_i > x_j. A rounded ratio can pass where x_i < x_j, or
    reach 1 where x_i > x_j by an ulp, so the pair is decided by x_i > x_j
    alone, and a rounded ratio of 1 or more meets at t = +0.0.
    """
    if not x[i - 1] > x[j - 1]:
        return None
    return max(0.0, -math.log((j - i) / (a[i - 1] - a[j - 1])))


def _start(x0):
    """The start x and its offsets a = x - (1, ..., n), as lists."""
    x = np.asarray(x0, dtype=float)
    return x.tolist(), (x - np.arange(1, len(x) + 1)).tolist()


def reference_crossing_time(x0, i, j):
    """Time at which coordinates i < j (1-based) of the flow from x0 meet, or None."""
    return _meeting_time(*_start(x0), i, j)


def reference_crossing_events(x0):
    """(t, i, j, meeting value) of every meeting, sorted: one division and one test per pair."""
    x, a = _start(x0)
    n = len(a)
    events = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t = _meeting_time(x, a, i, j)
            if t is not None:
                events.append((t, i, j, i + a[i - 1] * math.exp(-t)))
    events.sort(key=lambda e: e[:3])
    return events


def _value_order(x):
    """0-based indices of x in increasing value order (equal values by index)."""
    return np.argsort(np.asarray(x, dtype=float), kind="stable").tolist()


def replay_schedule(x0, schedule):
    """Replay the (t, i, j) rows of a vertex start's schedule on the value order.

    Rows of one time form groups. In each group the pairs must split into
    blocks that are contiguous in the current value order, list their
    indices in decreasing order there, and hold all k(k-1)/2 pairs of
    their k members. Reversing every block gives the next order, which
    must be the value order of `sample_trace` at the midpoint to the next
    group time (one past the last). The last order must be the sorted one
    and the row count the inversion count. Returns the number of groups;
    an AssertionError names the first broken rule.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    rows = list(zip(schedule.t.tolist(), schedule.i.tolist(), schedule.j.tolist()))
    assert len(set((i, j) for _, i, j in rows)) == len(rows), "a pair meets twice"
    ranks = [0] * n  # the value-order rank of each index: x0 has the same inversions
    for rank, m in enumerate(_value_order(x0), 1):
        ranks[m] = rank
    inverted = inversions(ranks)
    assert len(rows) == inverted, f"{len(rows)} rows for {inverted} inversions"
    groups = [
        (t, [(i - 1, j - 1) for _, i, j in rows_at])
        for t, rows_at in itertools.groupby(rows, lambda row: row[0])
    ]
    times = [t for t, _ in groups]
    ends = [*times[1:], times[-1] + 1.0] if times else []
    flow = sample_trace(x0, [0.5 * (t + u) for t, u in zip(times, ends)]).samples if times else ()
    order = _value_order(x0)
    for (t, pairs), sample in zip(groups, flow):
        where = {m: k for k, m in enumerate(order)}
        partners = {}
        for i, j in pairs:
            partners.setdefault(i, {i}).add(j)
            partners.setdefault(j, {j}).add(i)
        for block in {frozenset(s) for s in partners.values()}:
            members = sorted(block, key=where.get)
            lo, size = where[members[0]], len(members)
            assert all(partners[m] == block for m in members), f"t = {t}: {members} incomplete"
            assert where[members[-1]] - lo == size - 1, f"t = {t}: {members} not contiguous"
            assert members == sorted(members, reverse=True), f"t = {t}: {members} not decreasing"
            order[lo : lo + size] = members[::-1]
        assert order == _value_order(sample.state.coords), f"t = {t}: order is not the flow's"
    assert order == list(range(n)), "the last order is not the sorted one"
    return len(groups)
