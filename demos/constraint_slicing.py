"""Every comparison slices the polytope — watch four sorts spend their bits.

A comparison that observes key u below key v pins the half-space
x_u < x_v; the orderings still compatible shrink from n! toward exactly
one, the sorted order. The information bought per comparison is
log2(before/after), and over any complete run those bits telescope to
exactly log2(n!) no matter which algorithm asked the questions — only
the spending schedule differs.
"""

import math

from permflow import ALGORITHMS, instrument, isolates_sorted

start = (4, 1, 3, 2)
print(f"input {start}, log2(4!) = {math.log2(24):.5f} bits to spend")
print()
for algo in ALGORITHMS:
    run = instrument(algo, start)
    print(f"{algo:>9}: {run.comparisons} comparisons, {run.total_bits:.5f} bits total")
    for k, step in enumerate(run.trace, start=1):
        c = step.constraint
        print(
            f"      {k}. learned {c.lo}<{c.hi}: "
            f"{step.feasible_before} -> {step.feasible_after} orderings "
            f"({step.bits:.4f} bits)"
        )
    print(f"      isolates the sorted order: {isolates_sorted(run.constraints)}")
    print()

print("slow sorts pay with redundant, zero-bit questions; the total never lies:")
wasteful = instrument("quick", (1, 2, 3, 4, 5, 6))
print(
    f"    quick on already-sorted 6 keys: {wasteful.comparisons} comparisons "
    f"for {wasteful.total_bits:.4f} bits (log2 6! = {math.log2(720):.4f})"
)
