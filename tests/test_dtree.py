import itertools
import json
import math

import pytest

import permflow.dtree
from permflow import (
    BUILD_LIMIT,
    Internal,
    Leaf,
    SizeLimitError,
    build_optimal,
    info_lower_bound,
    tree_stats,
    tree_to_dict,
    tree_to_json,
    verify_tree,
)


class TestInfoLowerBound:
    def test_small_values(self):
        assert [info_lower_bound(n) for n in range(1, 6)] == [0, 1, 3, 5, 7]

    def test_brackets_factorial_exactly(self):
        # ceil(log2 m) is the unique h with 2**(h-1) < m <= 2**h
        for n in range(1, 40):
            h = info_lower_bound(n)
            m = math.factorial(n)
            assert 2**h >= m
            assert h == 0 or 2 ** (h - 1) < m

    def test_agrees_with_float_log(self):
        for n in range(1, 25):
            assert info_lower_bound(n) == math.ceil(math.log2(math.factorial(n)) - 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            info_lower_bound(0)


class TestBuildOptimal:
    def test_heights_meet_info_bound(self):
        for n in range(1, BUILD_LIMIT + 1):
            tree = build_optimal(n)
            assert tree.height == info_lower_bound(n)
            assert tree.stats.leaf_count == math.factorial(n)

    def test_five_keys_needs_seven_comparisons(self):
        tree = build_optimal(5)
        assert tree.height == 7
        assert tree.stats.leaf_count == 120

    def test_trees_sort_correctly(self):
        for n in range(1, BUILD_LIMIT + 1):
            ok, bad = verify_tree(build_optimal(n).root, n)
            assert ok and bad is None

    def test_five_key_tree_sorts_correctly(self):
        ok, bad = verify_tree(build_optimal(5).root, 5)
        assert ok and bad is None

    def test_single_key_is_a_leaf(self):
        tree = build_optimal(1)
        assert isinstance(tree.root, Leaf)
        assert tree.root.output == (1,)

    def test_two_keys_is_one_comparison(self):
        tree = build_optimal(2)
        assert isinstance(tree.root, Internal)
        assert tree.root.compare == (1, 2)
        assert isinstance(tree.root.low, Leaf)
        assert isinstance(tree.root.high, Leaf)
        assert tree.root.low.output == (1, 2)
        assert tree.root.high.output == (2, 1)

    def test_deterministic(self):
        assert build_optimal(4).root == build_optimal(4).root

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            build_optimal(BUILD_LIMIT + 1)

    def test_six_keys_past_the_cap(self, monkeypatch):
        # the gate is a policy, not a limit of the search: n = 6 builds fast
        monkeypatch.setattr(permflow.dtree, "BUILD_LIMIT", 6)
        tree = build_optimal(6)
        assert tree.height == 10 == info_lower_bound(6)
        assert tree.stats.leaf_count == 720
        ok, bad = verify_tree(tree.root, 6)
        assert ok and bad is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_optimal(0)


class TestVerifyTree:
    def test_reports_counterexample(self):
        # a bare leaf claims the input is already sorted; (2, 1) refutes it
        ok, bad = verify_tree(Leaf((1, 2)), 2)
        assert not ok
        assert bad == (2, 1)

    def test_wrong_leaf_on_one_branch(self):
        tree = Internal((1, 2), Leaf((1, 2)), Leaf((1, 2)))
        ok, bad = verify_tree(tree, 2)
        assert not ok
        assert bad == (2, 1)

    def test_malformed_leaf_output(self):
        with pytest.raises(ValueError):
            verify_tree(Leaf((1, 1)), 2)

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError):
            verify_tree(Internal((1, 3), Leaf((1, 2)), Leaf((2, 1))), 2)

    def test_self_comparison(self):
        with pytest.raises(ValueError):
            verify_tree(Internal((1, 1), Leaf((1, 2)), Leaf((2, 1))), 2)

    def test_repeated_comparison_on_path(self):
        inner = Internal((1, 2), Leaf((1, 2)), Leaf((2, 1)))
        with pytest.raises(ValueError):
            verify_tree(Internal((1, 2), inner, Leaf((2, 1))), 2)

    def test_rejects_non_node(self):
        with pytest.raises(ValueError):
            verify_tree("not a tree", 2)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            verify_tree(Leaf((1,)), 0)


class TestTreeStats:
    def test_leaf(self):
        stats = tree_stats(Leaf((1,)))
        assert (stats.height, stats.leaf_count) == (0, 1)

    def test_counting_bound_enforced(self):
        for n in range(1, BUILD_LIMIT + 1):
            stats = build_optimal(n).stats
            assert stats.leaf_count <= 2**stats.height

    def test_rejects_non_node(self):
        # a malformed child is found when the walk reaches it
        with pytest.raises(ValueError, match="^not a tree node: 'x'$"):
            tree_stats(Internal((1, 2), Leaf((1, 2)), "x"))

    def test_unbalanced_tree(self):
        chain = Internal((1, 2), Internal((1, 3), Leaf((1, 2, 3)), Leaf((1, 3, 2))), Leaf((2, 1, 3)))
        stats = tree_stats(chain)
        assert stats.height == 2
        assert stats.leaf_count == 3


class TestSerialization:
    def test_dict_shape(self):
        tree = build_optimal(2).root
        assert tree_to_dict(tree) == {
            "cmp": [1, 2],
            "lo": {"out": [1, 2]},
            "hi": {"out": [2, 1]},
        }

    def test_rejects_non_node(self):
        with pytest.raises(ValueError, match="^not a tree node: None$"):
            tree_to_dict(Internal((1, 2), None, Leaf((2, 1))))

    def test_json_is_the_dict_form(self):
        for n in range(1, BUILD_LIMIT + 1):
            root = build_optimal(n).root
            assert json.loads(tree_to_json(root)) == tree_to_dict(root)

    @pytest.mark.parametrize("n", range(1, BUILD_LIMIT + 1))
    def test_dict_form_sorts_every_input(self, n):
        # the emitted form alone, walked as a decision tree, sorts all n!
        # inputs within the information bound
        tree = tree_to_dict(build_optimal(n).root)
        target = tuple(range(1, n + 1))
        for x in itertools.permutations(target):
            node, depth = tree, 0
            while "cmp" in node:
                i, j = node["cmp"]
                node = node["lo"] if x[i - 1] < x[j - 1] else node["hi"]
                depth += 1
            assert tuple(x[k - 1] for k in node["out"]) == target, x
            assert depth <= info_lower_bound(n)


class TestExhaustiveOptimality:
    def test_no_shallower_tree_exists_for_three_keys(self):
        # replay every depth-2 strategy over all 3! inputs: 4 leaves can
        # never separate 6 orderings, so some pair of inputs must collide
        perms = list(itertools.permutations((1, 2, 3)))
        pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 4)]

        def distinguishable(group, depth):
            if len(group) <= 1:
                return True
            if depth == 0:
                return False
            for i, j in pairs:
                lo = [p for p in group if p[i - 1] < p[j - 1]]
                hi = [p for p in group if p[i - 1] > p[j - 1]]
                if lo and hi and distinguishable(lo, depth - 1) and distinguishable(hi, depth - 1):
                    return True
            return False

        assert not distinguishable(perms, 2)
        assert distinguishable(perms, 3)
