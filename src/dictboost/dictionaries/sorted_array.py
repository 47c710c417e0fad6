"""Dictionaries that search the sorted key array in place.

All three keep exactly one flat array (their keys) and therefore report
zero space overhead.  They differ only in how they walk it:

* ``BranchyBinarySearch`` - classic three-way binary search with an early
  exit on equality.
* ``UniformBinarySearch`` - branch-free halving with a fixed iteration
  count of ceil(log2 n), the shape compilers turn into conditional moves.
* ``InterpolationSearch`` - probes at the linearly interpolated position;
  great on near-uniform gaps, degrades to a guarded scan otherwise.

Each walk is a ``search(x, lo, hi)`` over the window ``keys[lo:hi]`` of
one sorted int sequence, any window at all.  It answers with the global
rank, in ``[lo, hi]``, and ``(lo, False)`` on an empty window.  Each
kind defines only that walk: the base's constructor keeps a reference to
the sequence, in a plain build and a model alike the key set's ``view``
of its u64 buffer, and nothing else.
"""

from __future__ import annotations

from ..core import SortedSetDictionary


class BranchyBinarySearch(SortedSetDictionary):
    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        keys = self._keys
        while lo < hi:
            mid = (lo + hi) // 2
            v = keys[mid]
            if x < v:
                hi = mid
            elif x > v:
                lo = mid + 1
            else:
                return mid, True
        return lo, False


class UniformBinarySearch(SortedSetDictionary):
    """Branch-free binary search: every query halves a window exactly
    ceil(log2 n) times, regardless of the key."""

    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        keys = self._keys
        if lo == hi:
            return lo, False
        base, m = lo, hi - lo
        while m > 1:
            half = m // 2
            if keys[base + half] < x:
                base += half
            m -= half
        rank = base + (1 if keys[base] < x else 0)
        return rank, rank < hi and keys[rank] == x


class InterpolationSearch(SortedSetDictionary):
    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        keys = self._keys
        hi -= 1  # inclusive from here on
        # Window invariant: x is above every key left of lo and below every
        # key right of hi.  Each end is read once per step.
        while lo <= hi:
            first, last = keys[lo], keys[hi]
            if x <= first:
                return lo, x == first
            if x > last:
                return hi + 1, False
            # linear probe; first < x <= last keeps the estimate in [lo, hi]
            pos = lo + int((hi - lo) / (last - first) * (x - first))
            v = keys[pos]
            if v == x:
                return pos, True
            if v < x:
                lo = pos + 1
            else:
                hi = pos - 1
        return lo, False
