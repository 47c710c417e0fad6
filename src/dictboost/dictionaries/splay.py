"""Self-adjusting binary search tree with subtree sizes.

Every access (hit or miss, search, insert or delete) splays the last node
it touched to the root, so hot keys drift toward the top and repeated
queries for them get cheaper.  That also means a *search mutates the
tree*: unlike every other dictionary here, concurrent readers need
exclusive access.

Nodes carry subtree sizes so rank searches and order-statistic selection
work in the same pass; rotations patch sizes locally.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..core import DynamicSortedSetDictionary, SearchOutcome

_NODE_BYTES = 40  # key + left/right/parent + size, one word each


class _Node:
    __slots__ = ("key", "left", "right", "parent", "size")

    def __init__(self, key: int, parent: "_Node | None" = None):
        self.key = key
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.parent = parent
        self.size = 1


def _sz(node: _Node | None) -> int:
    return node.size if node is not None else 0


class SplayTreeDictionary(DynamicSortedSetDictionary):
    kind_id = "splay"

    def __init__(self):
        self._root: _Node | None = None
        self._n = 0

    @classmethod
    def build(cls, keys: Sequence[int]) -> "SplayTreeDictionary":
        """Construct balanced from sorted distinct keys (may be empty).

        Building balanced rather than by repeated insertion keeps the
        initial shape at depth log n; the splay discipline only concerns
        accesses after that.
        """
        ks = list(map(int, keys))
        tree = cls()
        tree._n = len(ks)

        def grow(lo: int, hi: int, parent: _Node | None) -> _Node:
            # lo < hi; an empty side is never called, so leaves cost one call
            mid = (lo + hi) // 2
            node = _Node(ks[mid], parent)
            if lo < mid:
                node.left = grow(lo, mid, node)
            if mid + 1 < hi:
                node.right = grow(mid + 1, hi, node)
            node.size = hi - lo
            return node

        tree._root = grow(0, len(ks), None) if ks else None
        return tree

    def __len__(self) -> int:
        return self._n

    @property
    def root_key(self) -> int | None:
        return self._root.key if self._root else None

    # -- splaying -------------------------------------------------------------

    def _rotate_up(self, x: _Node) -> None:
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

    def _splay(self, x: _Node) -> None:
        while x.parent is not None:
            p = x.parent
            g = p.parent
            if g is None:
                self._rotate_up(x)
            elif (x is p.left) == (p is g.left):
                self._rotate_up(p)  # zig-zig
                self._rotate_up(x)
            else:
                self._rotate_up(x)  # zig-zag
                self._rotate_up(x)
        self._root = x

    # -- queries --------------------------------------------------------------

    def rank_search(self, x: int) -> SearchOutcome:
        node = self._root
        last = None
        rank = 0
        while node is not None:
            last = node
            if x < node.key:
                node = node.left
            elif x > node.key:
                rank += _sz(node.left) + 1
                node = node.right
            else:
                rank += _sz(node.left)
                self._splay(node)
                return SearchOutcome(rank, True)
        if last is not None:
            self._splay(last)
        return SearchOutcome(rank, False)

    def select(self, j: int) -> int:
        """Key of 0-based in-order rank ``j`` (splays it)."""
        if not 0 <= j < self._n:
            raise IndexError(f"rank {j} out of range for size {self._n}")
        node = self._root
        while node is not None:
            ls = _sz(node.left)
            if j < ls:
                node = node.left
            elif j == ls:
                self._splay(node)
                return node.key
            else:
                j -= ls + 1
                node = node.right
        raise AssertionError("size bookkeeping out of sync")

    # -- updates --------------------------------------------------------------

    def insert(self, x: int) -> bool:
        if self._root is None:
            self._root = _Node(x)
            self._n = 1
            return True
        node = self._root
        while True:
            if x == node.key:
                self._splay(node)
                return False
            nxt = node.left if x < node.key else node.right
            if nxt is None:
                break
            node = nxt
        fresh = _Node(x, parent=node)
        if x < node.key:
            node.left = fresh
        else:
            node.right = fresh
        up = node
        while up is not None:
            up.size += 1
            up = up.parent
        self._n += 1
        self._splay(fresh)
        return True

    def delete(self, x: int) -> bool:
        out = self.rank_search(x)  # splays the hit (or the last miss)
        if not out.found:
            return False
        root = self._root
        assert root is not None and root.key == x
        left, right = root.left, root.right
        if left:
            left.parent = None
        if right:
            right.parent = None
        self._n -= 1
        if left is None:
            self._root = right
            return True
        # splay the predecessor (max of left) to the top of the left subtree,
        # then hang the right subtree off it
        node = left
        while node.right is not None:
            node = node.right
        self._splay(node)  # node had no parent chain beyond the left subtree
        node.right = right
        if right:
            right.parent = node
        node.size = 1 + _sz(node.left) + _sz(right)
        return True

    # -- bookkeeping ----------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        stack: list[_Node] = []
        node = self._root
        while stack or node:
            while node:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key
            node = node.right

    def space_bytes(self) -> int:
        return _NODE_BYTES * self._n

    def check_integrity(self) -> list[int]:
        """Debug walk: asserts BST order, parent links and sizes, returns the
        sorted key list."""
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

        total = walk(self._root, None, None)
        assert total == self._n
        return out
