"""Implicit multiway search tree over the sorted array (CSS-tree style).

The sorted keys stay where they are; what gets built is a stack of
separator levels, each one list holding the maximum key of every group
of ``fanout`` entries in the level below.  Nodes are ``fanout``
consecutive separators and child links are index arithmetic, so the tree
stores no child links.  A separator costs a list pointer, and on the
lowest level an int object of its own (a level above holds the ints of
the one below): at the default fanout of 16, about 2.5 bytes a key.

Every separator equals the maximum of its subtree, so descending into the
leftmost child whose separator is ``>= x`` lands exactly on the leaf group
containing the successor of ``x``.

The leaf scan reads the keys the kind was built over, the key set's
view in a plain build and in a model alike.  Only a window longer than
the fanout has separator levels; they are kept in one dict keyed by the
window's start rank, and a shorter window is one leaf group.
"""

from __future__ import annotations

import sys
from typing import Sequence

from ..core import DictboostError, SortedSetDictionary, list_bytes


def _maxima(below: Sequence[int], f: int, lo: int, hi: int) -> list[int]:
    """The maximum of each group of ``f`` consecutive entries of
    ``below[lo:hi]``, as a new list (a slice of a view is a view)."""
    top = list(below[lo + f - 1:hi:f])
    if (hi - lo) % f:
        top.append(below[hi - 1])
    return top


class CssTreeSearch(SortedSetDictionary):
    DEFAULT_FANOUT = 16

    def __init__(self, keys: Sequence[int], starts: Sequence[int], fanout: int | None = None):
        f = self.DEFAULT_FANOUT if fanout is None else int(fanout)
        if f < 2:
            raise DictboostError(f"fanout must be >= 2, got {f}")
        super().__init__(keys, starts)
        self._fanout = f
        # window start -> its levels, levels[0] = leaf-group maxima, upward
        self._levels: dict[int, list[list[int]]] = {}
        for lo, hi in zip(starts, starts[1:]):
            if hi - lo > f:
                levels = [_maxima(keys, f, lo, hi)]
                while len(levels[-1]) > f:
                    levels.append(_maxima(levels[-1], f, 0, len(levels[-1])))
                self._levels[lo] = levels

    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        f = self._fanout
        group = 0  # index of the current node within its level
        for level in reversed(self._levels.get(lo, ())):
            start = group * f
            end = min(start + f, len(level))
            child = -1
            for j in range(start, end):
                if level[j] >= x:
                    child = j
                    break
            if child < 0:
                # x exceeds the subtree maximum; only possible at the root
                return hi, False
            group = child
        keys = self._keys
        start = lo + group * f
        for r in range(start, min(start + f, hi)):
            v = keys[r]
            if v >= x:
                return r, v == x
        return hi, False

    def overhead_bytes(self) -> int:
        # the dict with its start ranks and, per window, the list of levels
        # and each level's list; only the leaf-group maxima are ints of their
        # own, as a level above holds the int objects of the level below
        total = sys.getsizeof(self._levels)
        for lo, levels in self._levels.items():
            lists = list_bytes(levels, None) + sum(list_bytes(lv, None) for lv in levels)
            total += sys.getsizeof(lo) + lists + sum(map(sys.getsizeof, levels[0]))
        return total
