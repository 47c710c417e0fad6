"""Greedy epsilon-bounded piecewise-linear segmentation of a key set.

Keys are viewed as points ``(key, rank)``.  A segment is a maximal prefix
of the remaining points admitting one line, anchored exactly at its first
point, whose floor-rounded prediction stays within ``eps`` ranks of the
truth for every member:

    | floor(slope * (key - first_key)) + start_rank - rank |  <=  eps

The builder keeps the feasible slope interval for the anchored line and
closes the segment when a new point empties it (the standard one-pass
greedy; the result is maximal for this policy, not globally minimal).
Because predictions are evaluated in floating point, the chosen slope is
re-verified against the members with that formula, the one
``Segment.predict_rank`` and the model's ``predict_rank`` and
``max_residual`` evaluate, and the segment is
cut just before the first violation, which makes the eps guarantee
unconditional rather than subject to rounding luck.  A slope strictly
inside the interval cannot violate it: every member's bounds are
correctly rounded quotients, so such a slope times the member's exact
distance lies strictly between the integer limits of its rank, and its
rounded product cannot pass them.  The re-verification therefore runs
only for a slope on an end of the interval (always at eps 0, where each
member admits one slope), or for a segment that spans more than 2**53 or
an eps past float precision.

The fit is one pass, chunked.  After a short segment, the next one's
first few dozen candidates are taken one at a time in Python, so short
segments (small eps) pay no numpy call overhead; after a segment longer
than that head, numpy takes the next from its first candidate.  The
candidates go to numpy in doubling chunks, the first of them 1.5 times as
long as the previous segment (``_FIRST_CHUNK`` at least), so a fit whose
segments have like lengths mostly closes a segment in its first chunk.  A
chunk takes one subtraction for its distances and one division for both
bounds ``-(t + eps) / d`` and ``(t - eps) / d``, over offsets ``t`` sliced
from one ramp per fit; with the upper bound negated, both ends of the
interval shrink by a running maximum.  The maximum of each block of
``_BLOCK`` bounds, accumulated over the blocks, finds the block where the
interval empties, and only that block is accumulated element by element.
Once the interval is a single slope it can only keep it or empty, so
growth stops at the first member that slope misses, where the
re-verification would cut anyway: evenly spaced keys whose slope rounds
down then fit in linear time, not quadratic.  The floats are bit for bit
those of the one-key-at-a-time loop, however the candidates are chunked:
numpy evaluates only distances up to 2**53, which a float64 holds
exactly, and leaves the rest of a segment wider than that to the scalar
loop.

The fit yields each segment's start rank and slope, appended to two
lists; ``_fit_segments`` returns them as ``Segment`` records, and
``SegmentedDictionary`` holds them as arrays, with no object per segment:
the first keys as one list, the slopes as one float64 array and the start
ranks as its rank table.

Queries ignore the predictions entirely: a binary search over the
segments' first keys picks the interval (the first segment for a query
below every key, which its window answers with rank 0), and the
dictionary kind answers on the segment's window ``[start_rank,
end_rank)`` of the key set's ``view``, as it does on a bin's (see
``binning``): one instance of the kind holds all the windows, and no
segment gets a dictionary or a key copy of its own.  One routing level,
nothing recursive.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DictboostError, SortedKeySet, _as_int
from .dictionaries import IntervalModel

_SCALAR_HEAD = 32  # candidates grown in Python after a segment no longer than this
_FIRST_CHUNK = 256  # least first numpy chunk; each next one is twice as long
_BLOCK = 64  # bounds per block maximum; only the block that empties the cone is accumulated
_EXACT_SPAN = 2**53  # every integer up to it is exact in a float64


@dataclass(frozen=True)
class Segment:
    first_key: int
    slope: float
    start_rank: int  # the rank predicted at x == first_key
    end_rank: int  # exclusive

    def predict_rank(self, x: int) -> int:
        """The formula ``_fit_segments`` verified for every member."""
        return math.floor(self.slope * (x - self.first_key)) + self.start_rank

    def __len__(self) -> int:
        return self.end_rank - self.start_rank


def _fit_segments(ks: SortedKeySet | Sequence[int] | np.ndarray, eps: int) -> list[Segment]:
    """Greedy shrinking-cone segments of the sorted keys ``ks``.

    ``ks`` is a key set, whose array is used as it is, or sorted distinct
    keys as a uint64 array or a list of ints; either is read through a
    memoryview of one uint64 array.  Every
    multi-member slope is > 0: the upper end ``hi`` is ``(off_h + eps) /
    d_h`` for some member ``h`` and ``lo >= (off_h - eps) / d_h``, so ``lo +
    hi >= 2 * off_h / d_h > 0`` (each quotient is rounded by at most 2**-53
    of itself, which cannot flip that sign while eps < 2**53).
    """
    arr = ks.array if isinstance(ks, SortedKeySet) else np.ascontiguousarray(ks, dtype=np.uint64)
    starts, slopes = _fit(arr, eps)
    return _as_segments(arr[starts].tolist(), slopes, starts + [arr.size])


def _as_segments(firsts: list[int], slopes: list[float], starts: list[int]) -> list[Segment]:
    """``Segment`` records of a fit held as lists; ``starts`` ends with n."""
    return [Segment(*seg) for seg in zip(firsts, slopes, starts, starts[1:])]


def _fit(arr: np.ndarray, eps: int) -> tuple[list[int], list[float]]:
    """The segments of the sorted uint64 keys ``arr`` as two lists: each
    segment's start rank and its slope (see ``_fit_segments``)."""
    keys = memoryview(arr)  # Python ints for the scalar steps, with no list copy
    fit = _Scratch(arr, eps)
    n = len(keys)
    exact_limits = n + eps <= _EXACT_SPAN  # every rank limit t -+ eps is a float
    starts: list[int] = []
    slopes: list[float] = []
    i = prev = 0  # prev: the length of the last segment
    while i < n:
        x0 = keys[i]
        slope_lo, slope_hi = -math.inf, math.inf
        # the scalar steps stay inline: a call per segment would cost about
        # as much as a small-eps segment's whole fit; after a segment longer
        # than the head, numpy takes this one from its first candidate
        j = i + 1
        stop = j if prev > _SCALAR_HEAD else min(n, j + _SCALAR_HEAD)
        while True:
            while j < stop:
                d = keys[j] - x0
                lo = max(slope_lo, (j - eps - i) / d)
                hi = min(slope_hi, (j + eps - i) / d)
                if lo > hi:
                    # j does not fit; keep the interval of the accepted
                    # members so the midpoint stays feasible for them
                    break
                slope_lo, slope_hi = lo, hi
                j += 1
            if j < stop or j == n:
                break
            # the head fit whole: numpy takes the candidates whose distance
            # is exact, and this loop the rest
            exact = max(j, _exact_stop(arr, i, n, eps))
            first = max(_FIRST_CHUNK, prev + prev // 2)
            j, slope_lo, slope_hi = _shrink_chunks(fit, i, j, exact, slope_lo, slope_hi, first)
            if j < exact:
                break
            stop = n
        # after one member both interval ends are finite; an anchor with no
        # member predicts its own rank regardless of slope
        slope = 0.0 if slope_hi == math.inf else (slope_lo + slope_hi) / 2.0
        end = j
        # a member at offset t and distance d has bounds lo_t <= slope_lo
        # and hi_t >= slope_hi, the correctly rounded (t -+ eps) / d.  A
        # float strictly between the ends is above lo_t, so above (t - eps)
        # / d itself, and likewise below (t + eps) / d: slope * d lies
        # strictly between the integers t -+ eps.  Rounding is monotone, so
        # when d and both integers are exact floats the rounded product
        # stays within them, and the re-verification would cut nothing.
        if not (slope_lo < slope < slope_hi and exact_limits and keys[j - 1] - x0 <= _EXACT_SPAN):
            # float re-verification with the query-time formula; cut before
            # the first member the rounded prediction misses by more than eps
            numpy_end = i + 1  # members below it are checked in numpy
            if j - numpy_end > _SCALAR_HEAD:
                numpy_end = max(numpy_end, _exact_stop(arr, i, j, eps))
                miss = _first_miss(arr, i, numpy_end, slope, eps)
                if miss < numpy_end:
                    end = miss
            for v in range(numpy_end, end):
                if abs(math.floor(slope * (keys[v] - x0)) + i - v) > eps:
                    end = v
                    break
        starts.append(i)
        slopes.append(slope)
        prev, i = end - i, end
    return starts, slopes


class _Scratch:
    """The float64 work arrays of one fit.  They grow with its longest
    chunk, up to the key count; none is sized by eps.

    - ``offs[0, t] = -(t + eps)`` and ``offs[1, t] = t - eps``: divided by
      the distance of the candidate at offset ``t`` from the anchor, the
      upper bound of the slope negated, and the lower bound;
    - ``dist``: a chunk's distances;
    - ``run``: a chunk's two rows of bounds, behind the carried interval;
    - ``blocks``: the first column of each ``_BLOCK`` of ``run``.
    """

    def __init__(self, arr: np.ndarray, eps: int):
        self.arr, self.eps = arr, eps
        self.cap = 0

    def bounds(self, i: int, j: int, b: int, lo: float, hi: float) -> np.ndarray:
        """``run`` for the candidates ``[j, b)`` of the segment anchored at
        ``i``, which carries the interval ``[lo, hi]``: column 0 holds
        ``(-hi, lo)``, and column ``1 + c`` the bounds of candidate ``j +
        c``.  Exact below ``_exact_stop``."""
        if b - i > self.cap:
            self._grow(b - i)
        dist = np.subtract(self.arr[j:b], self.arr[i], out=self.dist[:b - j], casting="unsafe")
        run = self.run[:, :b - j + 1]
        run[0, 0], run[1, 0] = -hi, lo
        np.divide(self.offs[:, j - i:b - i], dist, out=run[:, 1:])
        return run

    def _grow(self, size: int) -> None:
        self.cap = cap = min(max(size, 2 * self.cap), self.arr.size)
        t = np.arange(cap, dtype=np.float64)
        self.offs = np.stack([-(t + self.eps), t - self.eps])
        self.dist = np.empty(cap)
        self.run = np.empty((2, cap))
        self.blocks = np.arange(0, cap, _BLOCK)


def _shrink_chunks(fit: _Scratch, i: int, j: int, stop: int, lo: float, hi: float, size: int):
    """The scalar cone steps of ``_fit_segments`` for the candidates ``[j,
    stop)`` of the segment anchored at rank ``i``, in numpy over chunks of
    ``size`` candidates, then twice, four times that and so on: ``(j, lo,
    hi)`` with ``j`` the first candidate that does not fit (``stop`` if all
    do) and the interval of the members before it.

    With the upper bounds negated, both ends of the interval shrink by a
    running maximum.  The maximum of each ``_BLOCK`` of a chunk's bounds,
    accumulated over the blocks, finds the block where the interval
    empties, and only that block is accumulated element by element.

    Once the interval is one slope (``lo == hi``) it stays that slope or
    empties, so that slope is the segment's: growth then stops at the first
    member it misses by more than ``eps``, where the re-verification would
    cut the segment anyway, and ``(lo, hi)`` is that one slope.  On evenly
    spaced keys whose slope rounds down, this ends each segment at once
    instead of growing it to the end of the keys.

    Below ``_exact_stop`` every distance and offset is an exact float64, so
    each bound is the correctly rounded quotient the scalar division gives.
    """
    while j < stop:
        if lo == hi:
            miss = _first_miss(fit.arr, i, j, lo, fit.eps)
            if miss < j:
                return miss, lo, hi
        b = min(stop, j + size)
        run = fit.bounds(i, j, b, lo, hi)
        tops = np.maximum.reduceat(run, fit.blocks[:-(-run.shape[1] // _BLOCK)], axis=1)
        np.maximum.accumulate(tops, axis=1, out=tops)
        # lo > hi, exactly: a float sum is 0 only for opposite addends, so
        # it has the sign of the exact sum
        crossed = tops[0] + tops[1] > 0
        k = int(crossed.argmax())
        if not crossed[k]:
            j, lo, hi = b, float(tops[1, -1]), -float(tops[0, -1])
            size *= 2
            continue
        s = 0
        if k:  # carry the interval of the blocks before into block k
            s = k * _BLOCK - 1
            run[:, s] = tops[:, k - 1]
        block = np.maximum.accumulate(run[:, s:(k + 1) * _BLOCK], axis=1)
        p = int((block[0] + block[1] > 0).argmax())  # >= 1: column 0 is feasible
        return j + s + p - 1, float(block[1, p - 1]), -float(block[0, p - 1])
    return j, lo, hi


def _first_miss(arr: np.ndarray, i: int, stop: int, slope: float, eps: int) -> int:
    """The first member in ``[i + 1, stop)`` whose floor-rounded prediction
    misses its rank by more than ``eps``, or ``stop``; numpy, below
    ``_exact_stop``."""
    d = (arr[i + 1:stop] - arr[i]).astype(np.float64)
    off = np.arange(1, stop - i, dtype=np.float64)
    miss = np.flatnonzero(np.abs(np.floor(slope * d) - off) > eps)
    return i + 1 + int(miss[0]) if miss.size else stop


def _exact_stop(arr: np.ndarray, i: int, stop: int, eps: int) -> int:
    """End of the candidates in ``[i + 1, stop)`` that numpy may evaluate:
    those at most 2**53 from the anchor, so that every distance, and every
    offset ``+- eps``, is an exact float64.  Past it a float64 division would
    round the distance first, where Python's int division rounds once."""
    if arr.size + eps > _EXACT_SPAN:
        return i + 1
    x0 = int(arr[i])
    if int(arr[stop - 1]) - x0 <= _EXACT_SPAN:
        return stop
    return int(np.searchsorted(arr, np.uint64(x0 + _EXACT_SPAN), side="right"))


class SegmentedDictionary(IntervalModel):
    """Epsilon-segmented key set: route by first-key binary search, then
    answer on the segment's window of the key set.

    The segments are held as arrays, with no object per segment: the
    first keys as the list ``_firsts`` that routing bisects (``bisect_right``
    over a list beats one over a uint64 memoryview), the slopes as one
    float64 array, and the start ranks as the model's rank table."""

    def __init__(self, keys: SortedKeySet, eps: int, dict_kind: str = "bbs"):
        eps = _as_int(eps)
        if eps < 0:
            raise DictboostError(f"eps must be >= 0, got {eps}")
        if not len(keys):
            raise DictboostError("cannot segment an empty key set")
        starts, slopes = _fit(keys.array, eps)
        self._firsts = keys.array[starts].tolist()
        self._slopes = np.array(slopes, dtype=np.float64)
        super().__init__(keys, np.array(starts + [len(keys)], dtype=np.int64), dict_kind)

    @property
    def segments(self) -> list[Segment]:
        """The fit as ``Segment`` records, built from the arrays on each read."""
        return _as_segments(self._firsts, self._slopes.tolist(), self._starts.tolist())

    def interval(self, x: int) -> int:
        """1-based: the count of segments whose first key is <= ``x``, or
        the first segment for ``x`` below every key."""
        return bisect_right(self._firsts, x) or 1

    def route(self, x: int) -> int:
        """Index of the segment owning an in-range ``x``."""
        return bisect_right(self._firsts, x) - 1

    def predict_rank(self, x: int) -> int:
        """Model prediction for diagnostics; queries never rely on it.  The
        formula of ``Segment.predict_rank``, on a Python float slope."""
        s = self.interval(x) - 1
        return math.floor(float(self._slopes[s]) * (x - self._firsts[s])) + self._starts[s]

    @property
    def segment_count(self) -> int:
        return len(self._firsts)

    def routing_steps(self) -> int:
        """Comparisons the routing binary search needs: ceil(log2 segments)."""
        return math.ceil(math.log2(self.segment_count)) if self.segment_count > 1 else 0

    def max_residual(self) -> int:
        """Largest |prediction - rank| over all keys (<= eps by contract),
        by ``Segment.predict_rank``'s float formula over whole arrays."""
        lens = np.diff(self._starts)
        first = np.repeat(self.keys.array[self._starts[:-1]], lens)
        slope = np.repeat(self._slopes, lens)
        offset = np.arange(self._n) - np.repeat(self._starts[:-1], lens)
        pred = np.floor(slope * (self.keys.array - first).astype(np.float64))
        return int(np.abs(pred - offset).max())

    def space_bytes(self) -> int:
        """The rank table, the slopes, the first-key list with its ints, and
        the dictionary's overhead.  The list counts one pointer per segment,
        as built; one grown by appends, as unpickling grows it, holds spare
        slots beyond them."""
        firsts = sys.getsizeof([]) + 8 * len(self._firsts) + sum(map(sys.getsizeof, self._firsts))
        return super().space_bytes() + self._slopes.nbytes + firsts


build_segments = SegmentedDictionary.build
