"""Coordinate crossings are resolved inversions — count and time them.

As the flow carries a start vertex toward the sorted corner, pairs of
coordinates meet. Each meeting is one inversion of the start getting
resolved, so the number of crossings always equals the inversion count,
and the meeting times come from a one-line formula per pair. The fully
reversed n = 3 start is famously degenerate: all three pairs meet at the
same instant t = ln 2, at the same value 2.
"""

import math

from permflow import Permutation, crossing_events, estimate_sorting, inversions, vertex_of

for ranks in [(3, 2, 1), (2, 3, 1), (1, 2, 3), (3, 1, 4, 2), (5, 4, 1, 3, 2)]:
    p = Permutation.of(ranks)
    schedule = crossing_events(vertex_of(p))
    print(f"start {ranks}: {inversions(p)} inversions, {len(schedule)} crossings")
    rows = zip(schedule.i.tolist(), schedule.j.tolist(), schedule.t.tolist(),
               schedule.meeting_values().tolist())
    for i, j, t, value in rows:
        print(f"   pair {(i, j)}  t = {t:.6f}  (coordinates meet at value {value:.4f})")
    print()

print("the reversed start packs every crossing into one instant:")
print(f"   ln 2 = {math.log(2):.6f}")
print()
est = estimate_sorting(Permutation.reverse(3))
print(
    f"n=3 reverse: continuous time {est.continuous_time:.5f}, "
    f"dt = 1/3 gives {est.discrete_estimate:.5f} operations (ceil(log2 3!) = 3)"
)
