"""Greedy epsilon-bounded piecewise-linear segmentation of a key set.

Keys are viewed as points ``(key, rank)``.  A segment is a maximal prefix
of the remaining points admitting one line, anchored exactly at its first
point, whose floor-rounded prediction stays within ``eps`` ranks of the
truth for every member:

    | floor(slope * (key - first_key) + intercept) - rank |  <=  eps

The builder keeps the feasible slope interval for the anchored line and
closes the segment when a new point empties it (the standard one-pass
greedy; the result is maximal for this policy, not globally minimal).
Because predictions are evaluated in floating point, the chosen slope is
re-verified against every member with the exact query-time formula and
the segment is cut just before the first violation, which makes the eps
guarantee unconditional rather than subject to rounding luck.

Queries ignore the predictions entirely: a binary search over the
segments' first keys picks the interval, and the dictionary kind answers
on the segment's window ``[start_rank, end_rank)`` of the sorted key list:
the in-place kinds (``bbs``, ``bfs``, ``is``) search the one shared key
list, the others a dictionary of the segment's own.  One routing level,
nothing recursive.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .core import DictboostError, KEY_BYTES, SearchOutcome, SortedKeySet
from .dictionaries import DictKind, window_searcher

PER_SEGMENT_BYTES = 48  # routing key + (first_key, slope, intercept, start, end)


@dataclass(frozen=True)
class Segment:
    first_key: int
    slope: float
    intercept: float  # predicted rank at x == first_key
    start_rank: int
    end_rank: int  # exclusive

    def predict_rank(self, x: int) -> int:
        return math.floor(self.slope * (x - self.first_key) + self.intercept)

    def __len__(self) -> int:
        return self.end_rank - self.start_rank


def _fit_segments(ks: list[int], eps: int) -> list[Segment]:
    n = len(ks)
    segs: list[Segment] = []
    i = 0
    while i < n:
        x0 = ks[i]
        slope_lo, slope_hi = -math.inf, math.inf
        j = i + 1
        while j < n:
            d = ks[j] - x0
            lo = max(slope_lo, (j - eps - i) / d)
            hi = min(slope_hi, (j + eps - i) / d)
            if lo > hi:
                # j does not fit; keep the interval of the accepted members
                # so the midpoint stays feasible for them
                break
            slope_lo, slope_hi = lo, hi
            j += 1
        # after one member both interval ends are finite; a lone anchor
        # predicts its own rank regardless of slope
        slope = 0.0 if j == i + 1 else (slope_lo + slope_hi) / 2.0
        # float re-verification with the query-time formula; cut before the
        # first member the rounded prediction misses by more than eps
        end = j
        for v in range(i + 1, j):
            if abs(math.floor(slope * (ks[v] - x0)) + i - v) > eps:
                end = v
                break
        segs.append(Segment(x0, slope, float(i), i, end))
        i = end
    return segs


class SegmentedDictionary:
    """Epsilon-segmented key set: route by first-key binary search, then
    answer on the segment's window of the key list."""

    def __init__(self, keys: SortedKeySet, eps: int, dict_kind: DictKind = "bbs"):
        if eps < 0:
            raise DictboostError(f"eps must be >= 0, got {eps}")
        if not len(keys):
            raise DictboostError("cannot segment an empty key set")
        self.keys = keys
        self.eps = int(eps)
        self._ks = keys._list  # the key set's cached list, searched in place
        self.segments = _fit_segments(self._ks, self.eps)
        self._firsts = [s.first_key for s in self.segments]
        self._starts = [s.start_rank for s in self.segments] + [len(keys)]
        self.dict_id, self._searcher = window_searcher(dict_kind, self._ks, self._starts)
        self._lo = keys.lo
        self._hi = keys.hi
        self._n = len(keys)

    @classmethod
    def build(
        cls, keys: SortedKeySet, eps: int, dict_kind: DictKind = "bbs"
    ) -> "SegmentedDictionary":
        return cls(keys, eps, dict_kind)

    # -- queries --------------------------------------------------------------

    def route(self, x: int) -> int:
        """Index of the segment owning an in-range ``x``."""
        return bisect_right(self._firsts, x) - 1

    def rank_search(self, x: int) -> SearchOutcome:
        if x < self._lo:
            return SearchOutcome(0, False)
        if x > self._hi:
            return SearchOutcome(self._n, False)
        idx = bisect_right(self._firsts, x) - 1
        return self._searcher.search(self._ks, x, self._starts[idx], self._starts[idx + 1])

    def predict_rank(self, x: int) -> int:
        """Model prediction for diagnostics; queries never rely on it."""
        return self.segments[self.route(x)].predict_rank(x)

    def __len__(self) -> int:
        return self._n

    # -- accounting -----------------------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def routing_steps(self) -> int:
        """Comparisons the routing binary search needs: ceil(log2 segments)."""
        return math.ceil(math.log2(self.segment_count)) if self.segment_count > 1 else 0

    def max_residual(self) -> int:
        """Largest |prediction - rank| over all keys (<= eps by contract)."""
        ks = self._ks
        worst = 0
        for seg in self.segments:
            for j in range(seg.start_rank, seg.end_rank):
                worst = max(worst, abs(seg.predict_rank(ks[j]) - j))
        return worst

    def space_bytes(self) -> int:
        return PER_SEGMENT_BYTES * self.segment_count + self._searcher.overhead_bytes()

    def space_overhead_pct(self) -> float:
        return 100.0 * self.space_bytes() / (KEY_BYTES * self._n)


def build_segments(
    keys: SortedKeySet | Sequence[int], eps: int, dict_kind: DictKind = "bbs"
) -> SegmentedDictionary:
    if not isinstance(keys, SortedKeySet):
        keys = SortedKeySet(keys)
    return SegmentedDictionary.build(keys, eps, dict_kind)
