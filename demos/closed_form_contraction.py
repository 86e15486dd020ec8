"""The contraction flow has a closed form — watch the disorder halve on schedule.

A sequence to sort is a point on the polytope of rearrangements of
(1, ..., n), and the pull x' = v_s - x slides it toward the sorted
vertex v_s along an exactly solvable path: x(t) = v_s + (x(0) - v_s)e^-t.
The squared distance to v_s (the "disorder") therefore decays as
d0 * e^-2t, no integrator required. This script evaluates the flow from
the fully reversed start and prints the trajectory against that law.
"""

import math

from permflow import (
    Permutation,
    disorder_at,
    disorder_squared,
    flow_state,
    time_to_epsilon,
    vertex_of,
)

n = 5
start = vertex_of(Permutation.reverse(n))
d0 = disorder_squared(start)
print(f"start {tuple(start.coords)}  disorder d0 = {d0:.0f}")
print()
print(f"{'t':>6}  {'state':^42}  {'disorder':>10}  {'d0*e^-2t':>10}")
for k in range(7):
    t = 0.5 * k
    x = flow_state(start, t)
    measured = disorder_squared(x)
    predicted = disorder_at(start, t)
    cells = " ".join(f"{v:7.4f}" for v in x.coords)
    print(f"{t:>6.2f}  {cells}  {measured:>10.5f}  {predicted:>10.5f}")

print()
t_eps = time_to_epsilon(d0, 1.0)
print(f"disorder reaches 1 (epsilon = 1) at t = 0.5*ln(d0) = {t_eps:.5f}")
print(f"check: disorder at that moment = {disorder_at(start, t_eps):.12f}")
print(f"half-life of disorder: ln(2)/2 = {math.log(2) / 2:.5f} time units")
