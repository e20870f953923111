"""Recursive partitioning of the tridiagonal matrix (paper Fig. 1).

The matrix T is split into p subproblems forming a binary tree; every
internal node is a rank-one merge (Eq. 5), every leaf a small independent
eigenproblem solved by LAPACK (``DCContext.eigh_block``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["Node", "build_tree"]


@dataclass
class Node:
    """A subproblem covering global rows/columns ``[lo, hi)``."""

    lo: int
    hi: int
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    @property
    def n(self) -> int:
        return self.hi - self.lo

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def mid(self) -> int:
        """Global index of the split row (first row of the right child)."""
        if self.is_leaf:
            raise ValueError("leaf has no split")
        return self.right.lo

    def leaves(self) -> Iterator["Node"]:
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def post_order(self) -> Iterator["Node"]:
        """Children before parents — the submission order of the merges."""
        if not self.is_leaf:
            yield from self.left.post_order()
            yield from self.right.post_order()
        yield self

    def merges_by_level(self) -> list[list["Node"]]:
        """Internal nodes grouped bottom-up by tree level.

        Level 0 holds the deepest merges; the root merge is last.  Used
        by the ``level_barrier`` scheduling variant (Fig. 3(b)).
        """
        levels: dict[int, list[Node]] = {}

        def depth(node: "Node") -> int:
            if node.is_leaf:
                return -1
            d = 1 + max(depth(node.left), depth(node.right))
            levels.setdefault(d, []).append(node)
            return d

        depth(self)
        return [levels[d] for d in sorted(levels)]

    @property
    def height(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.height, self.right.height)

    def count_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    def cut_points(self) -> list[int]:
        """Global indices m of every split (rows m-1/m get the β correction)."""
        if self.is_leaf:
            return []
        return (self.left.cut_points() + [self.mid]
                + self.right.cut_points())


def build_tree(n: int, minpart: int, lo: int = 0) -> Node:
    """Split ``[lo, lo+n)`` in halves until blocks are ≤ ``minpart``.

    Matches the paper's example: n=1000 with minimal partition size 300
    yields four leaves of 250.
    """
    if n < 1:
        raise ValueError("empty problem")
    node = Node(lo, lo + n)
    if n > minpart:
        n1 = n // 2
        node.left = build_tree(n1, minpart, lo)
        node.right = build_tree(n - n1, minpart, lo + n1)
    return node
