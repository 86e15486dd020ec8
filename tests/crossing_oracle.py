"""The per-pair crossing loop: the independent oracle for `crossing_events`.

Not a test module itself; the flow and CLI tests import it.
"""

import math

import numpy as np


def _meeting_time(a, i, j):
    """-ln((j - i) / (a_i - a_j)) for 1-based i < j and offsets a, or None if they never meet.

    exp(-t) = (j - i) / (a_i - a_j) is the meeting condition; the pair
    meets, once, exactly when that ratio lies in (0, 1).
    """
    denom = a[i - 1] - a[j - 1]
    if denom == 0:
        return None
    ratio = (j - i) / denom
    if not (0.0 < ratio < 1.0):
        return None
    return -math.log(ratio)


def _offsets(x0):
    x = np.asarray(x0, dtype=float)
    return (x - np.arange(1, len(x) + 1)).tolist()


def reference_crossing_time(x0, i, j):
    """Time at which coordinates i < j (1-based) of the flow from x0 meet, or None."""
    return _meeting_time(_offsets(x0), i, j)


def reference_crossing_events(x0):
    """(t, i, j, meeting value) of every meeting, sorted: one division and one test per pair."""
    a = _offsets(x0)
    n = len(a)
    events = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t = _meeting_time(a, i, j)
            if t is not None:
                events.append((t, i, j, i + a[i - 1] * math.exp(-t)))
    events.sort(key=lambda e: e[:3])
    return events
