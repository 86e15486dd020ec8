"""The n log n law, read off the geometry — no algorithm in sight.

The reversed start sits at squared distance d0 = n(n^2-1)/3 from the
sorted vertex, exactly. Contraction needs t = 0.5*ln(d0) time to bring
the disorder under 1, and at the stepping rule dt = c/n that time holds
t*n/c steps, which grow like (3/(2c)) n ln n: the ratio column at c = 1
converging to 1 is the whole story.

The count is a number of flow steps, not of one input's comparisons,
which it cannot bound (n - 1 comparisons check a guessed order). It
bounds the worst case over all inputs, ceil(log2 n!), only when c is at
least c* = 1.318: at c = 1 it overshoots ceil(log2 n!) by up to 31.8%,
at n = 10, as the last column shows.
"""

import math

from permflow import Permutation, estimate_sorting, info_lower_bound, reverse_disorder

C_STAR = 1.318

print(
    f"{'n':>8}  {'d0 = n(n^2-1)/3':>16}  {'t = ln(d0)/2':>12}  {'n*t':>12}"
    f"  {'1.5 n ln n':>12}  {'ratio':>7}  {'n*t / ceil(log2 n!)':>20}"
)
for n in [10, 100, 1000, 10**4, 10**5]:
    est = estimate_sorting(Permutation.reverse(n))
    asym = 1.5 * n * math.log(n)
    worst = info_lower_bound(n)
    print(
        f"{n:>8}  {reverse_disorder(n):>16}  {est.continuous_time:>12.4f}"
        f"  {est.discrete_estimate:>12.1f}  {asym:>12.1f}"
        f"  {est.discrete_estimate / asym:>7.4f}  {est.discrete_estimate / worst:>20.4f}"
    )

print()
print(f"at c* = {C_STAR} the count stays within ceil(log2 n!), which no sort's worst case beats:")
for n in [3, 10, 100, 1000]:
    count = estimate_sorting(Permutation.reverse(n), c=C_STAR).discrete_estimate
    print(f"   n={n:>4}: {count:>10.2f} <= {info_lower_bound(n):>6}")

print()
print("exactness check for small n (independent summation):")
for n in range(1, 8):
    direct = sum((n + 1 - 2 * i) ** 2 for i in range(1, n + 1))
    print(f"   n={n}: sum of squared displacements {direct:>3}  formula {reverse_disorder(n):>3}")
