"""Implicit-tree array layouts: blocked multiway, and Eytzinger (BFS
order) as its one-key-block case.

Both store the keys permuted so that a root-to-leaf descent touches
consecutive memory regions instead of jumping around a sorted array.  The
descent finds the *position* of the successor key inside the permuted
array; a parallel rank table maps that position back to the sorted rank
the normalized protocol requires.  Both are lists of Python ints, so a
slot holds two pointers and two int objects, about 76 bytes a key at
100k keys against the 8 of the key set's own slot; the whole of both
lists is reported as space overhead, the layout being a second copy of
the keys.

One private base builds the layout of a ``(b+1)``-ary tree of ``b``-key
blocks; ``bft`` is that base at its block size and ``bfe`` the base at
``b = 1``, where the blocked BFS order is the Eytzinger order (Khuong &
Morin, "Array Layouts for Comparison-Based Searching", ACM JEA 2017).  The
kinds differ only in their descent.  A build holds one flat ``layout``
list and one flat ``ranks`` list of length n for all its windows: window
``[lo, hi)`` of ``layout`` holds ``keys[lo:hi]`` laid out as one tree, in
an order that depends only on the window length and the block size, and
``ranks`` holds their global ranks.  The build computes that order once
per distinct window length and applies it to every window of that length
with one numpy fancy index.  The descent reads the layout in global
indices.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core import DictboostError, SortedSetDictionary, list_bytes


def _inorder_ranks(m: int, b: int) -> np.ndarray:
    """In-order rank of each of the ``m`` slots of an implicit
    ``(b+1)``-ary tree of ``b``-slot blocks, blocks in BFS order, whose last
    block may be partial (it is a leaf).  ``b == 1`` is the Eytzinger order.

    Each slot gets a base-``(2b+1)`` path code: one digit per level, ``2c``
    for a descent into child ``c`` and ``2c+1`` for slot ``c`` itself, which
    lies between children ``c`` and ``c+1``; padded with zero digits to one
    length, the codes sort in order."""
    nblocks = -(-m // b)
    radix = 2 * b + 1
    code = np.zeros(nblocks, dtype=np.int64)
    depth = np.zeros(nblocks, dtype=np.int64)
    lo, hi, level = 0, 1, 0  # the blocks of one level
    while hi < nblocks:
        lo, hi, level = lo * (b + 1) + 1, min(hi * (b + 1) + 1, nblocks), level + 1
        child = np.arange(lo, hi) - 1
        code[lo:hi] = code[child // (b + 1)] * radix + 2 * (child % (b + 1))
        depth[lo:hi] = level
    slot = np.arange(m)
    block = slot // b
    pad = np.power(radix, level - depth[block])
    order = np.argsort((code[block] * radix + 2 * (slot % b) + 1) * pad)
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = slot
    return ranks


class _BlockLayout(SortedSetDictionary):
    """Keys permuted into an implicit ``(b+1)``-ary tree of ``b``-key
    blocks per window, with the global rank of each slot beside it: the
    layout, the rank table and the in-order walk that every block size
    shares.  A kind adds only its descent."""

    def __init__(self, keys: Sequence[int], starts: Sequence[int], block: int):
        super().__init__(keys, starts)
        # each window laid out by _inorder_ranks, computed once per distinct
        # window length; the keys are gathered by one numpy fancy index, and
        # over a key set's view np.asarray makes no copy
        st = np.asarray(starts, dtype=np.int64)
        lens = np.diff(st)
        by_len = np.argsort(lens, kind="stable")
        cuts = np.flatnonzero(np.diff(lens[by_len])) + 1
        ranks = np.empty(len(keys), dtype=np.int64)
        for group in np.split(by_len, cuts):
            m = int(lens[group[0]])
            if m:
                los = st[group][:, None]
                ranks[los + np.arange(m)] = los + _inorder_ranks(m, block)
        self._block = block
        self._layout = np.asarray(keys, dtype=np.uint64)[ranks].tolist()
        self._ranks = ranks.tolist()

    def overhead_bytes(self) -> int:
        return list_bytes(self._layout) + list_bytes(self._ranks)

    def inorder_positions(self) -> Iterator[int]:
        """In-order positions of a plain build (testing hook: reading the
        layout in this order must give the sorted keys)."""
        b = self._block
        size = len(self._layout)

        def walk(node: int) -> Iterator[int]:
            start = node * b
            if start >= size:
                return
            for c in range(min(b, size - start)):
                yield from walk(node * (b + 1) + c + 1)
                yield start + c
            yield from walk(node * (b + 1) + b + 1)

        yield from walk(0)


class EytzingerSearch(_BlockLayout):
    """Keys permuted in BFS order of a complete binary tree: the block
    layout at ``b = 1``.

    The descent is branch-free-shaped: from 1-based node ``t`` go to ``2t``
    on ``x <= key`` and ``2t+1`` otherwise, until falling off the tree.  The
    node of the smallest key ``>= x`` is then recovered from the bits of
    the final ``t``: strip its trailing ones plus one more bit (those
    record the left turns taken after the last right turn).
    """

    def __init__(self, keys: Sequence[int], starts: Sequence[int]):
        super().__init__(keys, starts, 1)

    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        layout = self._layout
        base = lo - 1  # node t of the window sits at layout[base + t]
        m = hi - lo
        t = 1
        while t <= m:
            t = 2 * t if x <= layout[base + t] else 2 * t + 1
        # (t ^ (t+1)) is a mask of t's trailing ones plus the next zero bit.
        t >>= (t ^ (t + 1)).bit_length()
        if t == 0:
            return hi, False
        return self._ranks[base + t], layout[base + t] == x


class BlockTreeSearch(_BlockLayout):
    """Keys permuted into an implicit (B+1)-ary tree of B-key blocks.

    Each node is B contiguous keys, except that a window's last block holds
    what is left; child links are pure arithmetic on block numbers, so the
    only storage besides the permuted keys is the rank table.  Within a
    node a branch-free halving scan counts the keys smaller than x; the
    candidate successor is refined on the way down.
    """

    DEFAULT_BLOCK = 8

    def __init__(self, keys: Sequence[int], starts: Sequence[int], block: int | None = None):
        b = self.DEFAULT_BLOCK if block is None else int(block)
        if b < 1:
            raise DictboostError(f"block size must be >= 1, got {b}")
        super().__init__(keys, starts, b)

    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        layout = self._layout
        b = self._block
        node = 0  # block number within the window
        best = -1  # position of the smallest key >= x seen on the path
        start = lo
        while start < hi:
            width = hi - start if hi - start < b else b
            # branch-free halving over the block: nth = #keys < x in it
            base, m = start, width
            while m > 1:
                half = m // 2
                if layout[base + half] < x:
                    base += half
                m -= half
            nth = base - start + (1 if layout[base] < x else 0)
            if nth < width:
                best = start + nth
            node = node * (b + 1) + nth + 1
            start = lo + node * b
        if best < 0:
            return hi, False
        return self._ranks[best], layout[best] == x
