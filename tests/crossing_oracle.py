"""The per-pair crossing loop: the independent oracle for `crossing_events`.

Not a test module itself; the flow and CLI tests import it.
"""

import math

import numpy as np


def reference_crossing_events(x0):
    """(t, i, j, meeting value) of every meeting, sorted: one division and one test per pair."""
    x = np.asarray(x0, dtype=float)
    n = len(x)
    a = (x - np.arange(1, n + 1)).tolist()
    events = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            denom = a[i - 1] - a[j - 1]
            if denom == 0:
                continue
            ratio = (j - i) / denom
            if not (0.0 < ratio < 1.0):
                continue
            t = -math.log(ratio)
            events.append((t, i, j, i + a[i - 1] * math.exp(-t)))
    events.sort(key=lambda e: e[:3])
    return events
