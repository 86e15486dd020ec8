"""Descending with tied coordinates — the pull keeps every tie's order.

At a tie x_i = x_j with i < j, the pull g = v_s - x has g_j - g_i = j - i > 0,
so it already moves the tied coordinates apart in their target order and
never needs pooling. Euler integrates the pull as it is, in closed form:
each step h contracts x - v_s by exactly 1 - h, so the potential by
(1 - h)^2, never slower than the continuous rate e^-2t, and each recorded
state is v_s + (x0 - v_s) * prod(1 - h). This script checks that from
three kinds of starts: a plain vertex, an edge midpoint (one exact tie)
and the barycenter (all coordinates tied).
"""

import itertools
import math

import numpy as np

from permflow import integrate_projected

starts = {
    "vertex (4,3,2,1)": [4.0, 3.0, 2.0, 1.0],
    "edge midpoint (1.5,1.5,3,4)": [1.5, 1.5, 3.0, 4.0],
    "barycenter (2.5,2.5,2.5,2.5)": [2.5, 2.5, 2.5, 2.5],
}

for name, x0 in starts.items():
    trace = integrate_projected(x0, t_end=4.0, step=0.01)
    v0 = trace.samples[0].potential
    worst = max(
        s.potential / (v0 * math.exp(-2 * s.t)) for s in trace.samples[1:] if v0 > 0
    ) if v0 > 0 else 0.0
    g = np.arange(1.0, len(x0) + 1) - np.asarray(x0)
    ties = [(i, j) for i, j in itertools.combinations(range(1, len(x0) + 1), 2)
            if x0[i - 1] == x0[j - 1]]
    assert all(g[j - 1] - g[i - 1] == j - i for i, j in ties)
    print(f"{name}")
    print(f"   tie blocks at start: {trace.samples[0].active_block_count}")
    print(f"   pull g = {g}; tied pairs i < j, each with g_j - g_i = j - i: {ties}")
    print(f"   potential {v0:.4f} -> {trace.samples[-1].potential:.8f} over t = 4")
    print(f"   worst sample ratio V(t) / (V0 e^-2t) = {worst:.6f}  (<= 1 means on schedule)")
    print(f"   final state: {np.round(trace.final.coords, 5)}")
    print()
