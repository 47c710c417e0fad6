"""Self-adjusting binary search tree with subtree sizes.

Every access (hit or miss) splays the last node it touched to the root, so
hot keys drift toward the top and repeated queries for them get cheaper.
That also means a *search mutates the tree*: unlike every other dictionary
here, concurrent readers need exclusive access.

The kind keeps one tree per non-empty window, each built balanced over the
window's keys, with the roots in one dict keyed by the window's start
rank; a search splays within its window's tree and stores the new root.
Nodes carry subtree sizes so a search counts the rank in the same pass;
rotations patch sizes locally.
"""

from __future__ import annotations

import sys
from typing import Sequence

from ..core import SortedSetDictionary


class _Node:
    __slots__ = ("key", "left", "right", "parent", "size")

    def __init__(self, key: int, parent: "_Node | None" = None):
        self.key = key
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.parent = parent
        self.size = 1


# five slots and the object's header: 72 bytes on CPython 3.11
_NODE_BYTES = sys.getsizeof(_Node(0))


def _sz(node: _Node | None) -> int:
    return node.size if node is not None else 0


def _rotate_up(x: _Node) -> None:
    p = x.parent
    assert p is not None
    g = p.parent
    if x is p.left:
        p.left = x.right
        if x.right:
            x.right.parent = p
        x.right = p
    else:
        p.right = x.left
        if x.left:
            x.left.parent = p
        x.left = p
    p.parent = x
    x.parent = g
    if g:
        if g.left is p:
            g.left = x
        else:
            g.right = x
    p.size = 1 + _sz(p.left) + _sz(p.right)
    x.size = 1 + _sz(x.left) + _sz(x.right)


def _splay(x: _Node) -> None:
    """Rotate ``x`` up to the root of its tree."""
    while x.parent is not None:
        p = x.parent
        g = p.parent
        if g is None:
            _rotate_up(x)
        elif (x is p.left) == (p is g.left):
            _rotate_up(p)  # zig-zig
            _rotate_up(x)
        else:
            _rotate_up(x)  # zig-zag
            _rotate_up(x)


class SplayTreeDictionary(SortedSetDictionary):
    def __init__(self, keys: Sequence[int], starts: Sequence[int]):
        """Balanced trees over the windows, so that each starts at depth
        log of its length; the splay discipline only concerns accesses
        after that."""

        def grow(lo: int, hi: int, parent: _Node | None) -> _Node:
            # lo < hi; an empty side is never called, so leaves cost one call
            mid = (lo + hi) // 2
            node = _Node(keys[mid], parent)
            if lo < mid:
                node.left = grow(lo, mid, node)
            if mid + 1 < hi:
                node.right = grow(mid + 1, hi, node)
            node.size = hi - lo
            return node

        super().__init__(keys, starts)
        self._roots = {lo: grow(lo, hi, None) for lo, hi in zip(starts, starts[1:]) if lo < hi}

    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        if lo == hi:
            return lo, False
        node = self._roots[lo]
        last = node
        rank = lo
        while node is not None:
            last = node
            if x < node.key:
                node = node.left
            elif x > node.key:
                rank += _sz(node.left) + 1
                node = node.right
            else:
                rank += _sz(node.left)
                break
        _splay(last)
        self._roots[lo] = last
        return rank, node is not None

    def overhead_bytes(self) -> int:
        # a node and its key's int object per key, and the roots' dict with
        # its start ranks; a node's size is a cached small int up to 256, and
        # the few larger ones go uncounted
        return (
            _NODE_BYTES * len(self._keys) + sum(map(sys.getsizeof, self._keys))
            + sys.getsizeof(self._roots) + sum(map(sys.getsizeof, self._roots))
        )

    def check_integrity(self) -> list[int]:
        """Debug walk: asserts BST order, parent links and sizes, and that
        the trees tile the ranks in start order; returns the sorted keys."""
        out: list[int] = []

        def walk(node: _Node | None, lo: int | None, hi: int | None) -> int:
            if node is None:
                return 0
            assert lo is None or node.key > lo, "left bound violated"
            assert hi is None or node.key < hi, "right bound violated"
            for child in (node.left, node.right):
                if child is not None:
                    assert child.parent is node, "broken parent link"
            ls = walk(node.left, lo, node.key)
            out.append(node.key)
            rs = walk(node.right, node.key, hi)
            assert node.size == ls + rs + 1, "size bookkeeping wrong"
            return node.size

        covered = 0
        for lo in sorted(self._roots):
            assert lo == covered, "windows out of step with their start ranks"
            covered += walk(self._roots[lo], None, None)
        assert covered == len(self._keys)
        return out
