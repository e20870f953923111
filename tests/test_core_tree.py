"""Tests for the partition tree (repro.core.tree)."""

import pytest

from repro.core import build_tree


def test_paper_example_fig2():
    # n=1000 with minimal partition 300 -> four leaves of 250 (paper Fig. 2).
    t = build_tree(1000, 300)
    leaves = list(t.leaves())
    assert [l.n for l in leaves] == [250, 250, 250, 250]
    assert t.height == 2
    assert len(t.merges_by_level()) == 2


def test_single_leaf_when_small():
    t = build_tree(10, 64)
    assert t.is_leaf
    assert t.n == 10
    assert list(t.post_order()) == [t]
    assert t.cut_points() == []


def test_leaf_sizes_bounded_and_cover():
    for n in (1, 2, 63, 64, 65, 100, 1001):
        t = build_tree(n, 64)
        leaves = list(t.leaves())
        assert all(1 <= l.n <= 64 for l in leaves)
        # Leaves tile [0, n) in order.
        pos = 0
        for l in leaves:
            assert l.lo == pos
            pos = l.hi
        assert pos == n


def test_cut_points_match_merges():
    t = build_tree(1000, 300)
    cuts = t.cut_points()
    merges = [node for node in t.post_order() if not node.is_leaf]
    assert sorted(cuts) == sorted(node.mid for node in merges)
    assert len(cuts) == len(list(t.leaves())) - 1


def test_post_order_children_first():
    t = build_tree(512, 64)
    seen = set()
    for node in t.post_order():
        if not node.is_leaf:
            assert (node.left.lo, node.left.hi) in seen
            assert (node.right.lo, node.right.hi) in seen
        seen.add((node.lo, node.hi))


def test_merges_by_level_bottom_up():
    t = build_tree(512, 64)
    levels = t.merges_by_level()
    sizes = [sorted(nd.n for nd in lev) for lev in levels]
    # Deeper levels have smaller merges; the last level is the root.
    assert levels[-1] == [t]
    for a, b in zip(sizes, sizes[1:]):
        assert max(a) <= min(b)


def test_mid_on_leaf_raises():
    with pytest.raises(ValueError):
        build_tree(5, 10).mid


def test_empty_raises():
    with pytest.raises(ValueError):
        build_tree(0, 10)
