"""How few comparisons can ever sort n keys? Build the witness trees.

Any procedure that sorts by pairwise comparisons is a binary tree:
internal nodes compare two positions, leaves announce the sorted order.
Distinguishing all n! orders forces at least n! leaves, so the height is
at least ceil(log2 n!). Exhaustive search shows the bound is exact for
n <= 5 — here are the trees.
"""

import json
import math

from permflow import build_optimal, info_lower_bound, tree_to_dict, verify_tree

print(f"{'n':>2}  {'n!':>4}  {'ceil(log2 n!)':>13}  {'optimal height':>14}  verified")
for n in range(1, 6):
    built = build_optimal(n)
    ok, _ = verify_tree(built.root, n)
    print(
        f"{n:>2}  {math.factorial(n):>4}  {info_lower_bound(n):>13}"
        f"  {built.stats.height:>14}  {ok}"
    )

print()
print("the full n=3 tree (cmp = positions compared; lo/hi = outcome branches):")
print(json.dumps(tree_to_dict(build_optimal(3).root), indent=2))
