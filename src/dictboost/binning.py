"""Equal-width binning: the simplest learned router over a sorted key set.

The key range ``[A[0], A[n-1]]`` is cut into ``k`` equal-width bins.  A
query computes its bin in O(1) integer arithmetic, and a cumulative-rank
table turns the bin into a window ``[starts[b-1], starts[b])`` of the
sorted keys.  One instance of the dictionary kind, built over all the
bins' windows of the key set's ``view`` (a read-only ``memoryview`` of its
u64 buffer), answers on that window with the global rank: the in-place
kinds (``bbs``, ``bfs``, ``is``) search the view itself, ``bfe`` and
``bft`` the bin's window of one flat layout, ``css`` the bin's separator
levels (if it holds more keys than the fanout) over the view, ``splay``
the bin's own tree.  An empty window answers with its start rank.
Routing is total: a query below the keys goes to bin 1, which always
holds the smallest key, and one above them to bin ``k``, which always
holds the largest, so those edge windows answer rank 0 and rank n.

Bin ``b`` (1-based) covers keys ``x`` with
``upper(b-1) < x <= upper(b)`` where ``upper(b) = lo + floor(b*span/k)``,
which is exactly the integer form of ``ceil((x-lo)*k/span) == b`` with the
``x == lo`` case clamped into bin 1.  :class:`BinGeometry` holds all of
this arithmetic, for these bins, the forest's and the dynamic dictionary's
(over the hull of its contents), and it is exact: intermediate products
use arbitrary-precision ints (or a decomposed u64 path when it provably
fits), never floats.
"""

from __future__ import annotations

import numpy as np

from .core import DictboostError, SortedKeySet, _as_int
from .dictionaries import IntervalModel

# b * r <= k * r stays below this in BinGeometry.uppers, so no u64 product
# there can wrap; as r < k, only a geometry of over 2**31 bins goes past it
_U64_PRODUCT_LIMIT = 2**62


class BinGeometry:
    """``k`` equal-width bins over the closed key range ``[lo, hi]``."""

    def __init__(self, lo: int, hi: int, k: int):
        self.lo = lo
        self.hi = hi
        self.k = k
        self.span = hi - lo

    def bin_of(self, x: int) -> int:
        """1-based bin of the Python int ``x``, in ``[1, k]`` for every
        ``x``: bin 1 at or below ``lo``, bin ``k`` at or above ``hi``, and
        ``ceil((x - lo) * k / span)`` between them, where ``span >= 2``.
        The arithmetic is on Python ints, so the product neither wraps nor
        overflows; a numpy integer would, and its caller converts it."""
        if x <= self.lo:
            return 1
        if x >= self.hi:
            return self.k
        return ((x - self.lo) * self.k + self.span - 1) // self.span

    def uppers(self) -> np.ndarray:
        """``upper(b) = lo + floor(b * span / k)`` for ``b = 0..k``, as
        uint64; bin ``b`` holds the keys in ``(upper(b-1), upper(b)]``."""
        lo, k, span = self.lo, self.k, self.span
        q, r = divmod(span, k)
        if k * r < _U64_PRODUCT_LIMIT:
            # lo + b*q + (b*r)//k: every term, and the sum (<= hi), fits in u64
            b = np.arange(k + 1, dtype=np.uint64)
            return np.uint64(lo) + b * np.uint64(q) + (b * np.uint64(r)) // np.uint64(k)
        return np.fromiter(
            (lo + (b * span) // k for b in range(k + 1)), dtype=np.uint64, count=k + 1
        )

    def starts(self, keys: np.ndarray) -> np.ndarray:
        """Cumulative rank table of the sorted uint64 ``keys`` in ``[lo, hi]``:
        bin ``b`` holds ``keys[starts[b-1]:starts[b]]``, for any ``k``."""
        starts = np.empty(self.k + 1, dtype=np.int64)
        starts[0] = 0
        starts[1:] = np.searchsorted(keys, self.uppers()[1:], side="right")
        return starts


def bin_index(keys: SortedKeySet, k: int, x: int) -> int:
    """1-based bin of ``x`` under ``k`` equal-width bins over ``keys``.

    Requires an integer ``lo <= x <= hi``.
    """
    x = _as_int(x)
    lo, hi = keys.lo, keys.hi
    if not lo <= x <= hi:
        raise DictboostError(f"{x} outside key range [{lo}, {hi}]")
    return BinGeometry(lo, hi, k).bin_of(x)


def bin_starts(keys: SortedKeySet, k: int) -> np.ndarray:
    """Cumulative rank table: ``starts[b]`` is the number of keys in bins
    ``1..b``, so bin ``b`` holds ``keys[starts[b-1]:starts[b]]``.

    Length ``k + 1`` with ``starts[0] == 0`` and ``starts[k] == n``.
    """
    n = len(keys)
    if n == 0:
        raise DictboostError("cannot bin an empty key set")
    k = _as_int(k)
    if not 1 <= k <= n:
        raise DictboostError(f"bin count {k} outside [1, n={n}]")
    return BinGeometry(keys.lo, keys.hi, k).starts(keys.array)


def bin_occupancy(keys: SortedKeySet, k: int) -> np.ndarray:
    """Per-bin key counts (length ``k``), without building dictionaries."""
    return np.diff(bin_starts(keys, k))


class BinnedDictionary(IntervalModel, BinGeometry):
    """k equal-width bins, each answered on its window of the key set.

    Satisfies the same rank-search protocol as the bare dictionaries, so a
    ``BinnedDictionary`` with ``k == 1`` answers bit-identically to the
    plain dictionary over all the keys.  It is its own :class:`BinGeometry`:
    the 1-based bin of ``x`` is both the interval that answers it and the
    model's O(1) prediction ``route(x)``.  No bin holds fields of its own,
    so the model's bytes are its rank table: one entry per bin boundary,
    at the narrowest unsigned width that holds n (4 bytes at 1M keys).
    """

    interval = route = BinGeometry.bin_of

    def __init__(self, keys: SortedKeySet, k: int, dict_kind: str = "bbs"):
        k = _as_int(k)
        BinGeometry.__init__(self, keys.lo, keys.hi, k)
        IntervalModel.__init__(self, keys, bin_starts(keys, k), dict_kind)

    def routing_steps(self) -> int:
        """Comparisons the routing needs: none, it is arithmetic."""
        return 0

    def max_bin_load(self) -> int:
        return int(np.diff(self._starts).max())

    def empty_bins(self) -> int:
        return int(np.count_nonzero(np.diff(self._starts) == 0))


def pct_to_k(n: int, pct: float) -> int:
    """Bin-count grids are quoted as a percentage of n; 0 means one bin."""
    return max(1, min(n, round(n * pct / 100.0)))


build_binning = BinnedDictionary.build
