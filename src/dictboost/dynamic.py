"""Dynamic binned dictionary with a two-trigger rebuild policy.

The static binning model assumes a frozen key range and gap shape.  To
take inserts and deletes, this variant accepts keys in a *widened* range
sized from the gap ratio measured at build time (``delta_hat``): with key
span ``L`` the range is ``[lo - ceil(L * delta_hat), hi + ceil(L * delta_hat)]``,
and an insert outside it forces a rebuild.  The ``k`` bins are
:class:`~dictboost.binning.BinGeometry`'s equal-width bins over the key
hull ``[lo, hi]`` only, so they hold keys: ``delta_hat`` is ~10^6 on
random keys, and bins over the whole range would leave all but one or
two empty.  The geometry's routing is total: a key in either margin
between the hull and the range edge, or a query beyond the range, goes to
the nearest edge bin, which keeps the bin map monotone.  Each
non-empty bin is a sorted packed ``array('Q')``, 8 bytes a key, searched
by ``bisect``; a Fenwick tree over bin sizes turns in-bin ranks into
global ones and drives order-statistic selection.  Reads do not mutate
the structure.  An update is one bisect plus an ``insert`` or ``del`` on
the bin's array that shifts at most the bin's load of 8-byte slots (one C
``memmove``), and a Fenwick update over ``log2 k`` nodes.

A build reads the key set's uint64 array, a rebuild one ``b"".join`` of
the bins' buffers, which in bin order are the sorted keys.  One
``np.diff`` over it gives the exact ratio and the starting gap bounds; the
order needs no second check.  The keys are then copied once into one
packed ``array('Q')``, and the geometry's rank table cuts each non-empty
bin as a slice of it: an exact-size copy, so a fresh bin holds no growth
slack, and no Python int is made per key.

Rebuilds fire when either
* ``n/2`` effective updates have accumulated since the last rebuild
  (``UPDATE_COUNT``), after which ``delta_hat`` is re-measured exactly, or
* conservatively tracked gap bounds say the true gap ratio now exceeds
  ``delta_hat`` (``DELTA_GROWTH``), after which
  ``delta_hat = max(measured, 2 * previous)`` so that consecutive ratio
  rebuilds at least double the threshold and their count telescopes to
  ``log2(delta_max / delta_0)``.

The conservative bounds err in one direction only: ``g_min_bound`` can
only decrease (inserts split gaps), ``g_max_bound`` can only increase
(deletes merge gaps, edge inserts extend the hull), so
``g_max_bound / g_min_bound`` never underestimates the true ratio.

An insert outside the widened range cannot wait: it forces an immediate
rebuild around the new extremes (``OUT_OF_RANGE``; the two-trigger policy
above never lets this happen while the gap-ratio assumption holds, but
the structure has to survive when it does not).  Every rebuild is logged
with how many elements it touched, making the amortized update cost a
measurable number rather than a claim.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .binning import BinGeometry
from .core import (
    DictboostError,
    InvalidKeySetError,
    MAX_KEY,
    SortedKeySet,
    _as_int,
)

_NO_GAP_MIN = 1 << 80  # placeholder bounds while fewer than two keys exist
_NO_GAP_MAX = 0


class RankOutOfRangeError(DictboostError, IndexError):
    """A rank outside ``[0, len)`` given to ``select``: an ``IndexError``
    as a sequence raises, and a :class:`DictboostError` as every other
    refused input of the structure."""


class RebuildTrigger(enum.Enum):
    UPDATE_COUNT = "update_count"
    DELTA_GROWTH = "delta_growth"
    OUT_OF_RANGE = "out_of_range"


@dataclass(frozen=True)
class RebuildEvent:
    trigger: RebuildTrigger
    elements_touched: int  # also the size after the rebuild: it touches every key


@dataclass
class RebuildLedger:
    """Append-only record of rebuild costs."""

    events: list[RebuildEvent] = field(default_factory=list)

    def append(self, event: RebuildEvent) -> None:
        self.events.append(event)

    def count(self, trigger: RebuildTrigger | None = None) -> int:
        if trigger is None:
            return len(self.events)
        return sum(1 for e in self.events if e.trigger is trigger)

    @property
    def total_touched(self) -> int:
        return sum(e.elements_touched for e in self.events)


@dataclass(frozen=True)
class AmortizedReport:
    total_updates: int
    rebuilds_update_count: int
    rebuilds_delta_growth: int
    rebuilds_out_of_range: int
    elements_touched: int
    touches_per_update: float
    delta_hat: float
    delta_max: float


class _Fenwick:
    """Prefix sums over bin sizes with order-statistic descent."""

    def __init__(self, counts: Sequence[int] | np.ndarray):
        self._n = n = len(counts)
        # node i sums bins [i - lowbit(i), i): a difference of two prefix
        # sums, so the whole tree fills in a few O(n) numpy passes
        prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=prefix[1:])
        i = np.arange(1, n + 1)
        self._tree = [0, *(prefix[1:] - prefix[i - (i & -i)]).tolist()]

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self._n:
            self._tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Total count of bins strictly before ``i``."""
        total = 0
        while i:
            total += self._tree[i]
            i &= i - 1
        return total

    def select(self, j: int) -> tuple[int, int]:
        """(bin, offset) of the global 0-based rank ``j``."""
        pos = 0
        step = 1 << (self._n.bit_length())
        while step:
            nxt = pos + step
            if nxt <= self._n and self._tree[nxt] <= j:
                pos = nxt
                j -= self._tree[nxt]
            step >>= 1
        return pos, j


class DynamicBinDict:
    """Insert/delete/search over equal-width bins of the key hull.

    Each bin is a sorted ``array('Q')`` of its keys, 8 bytes a key, or
    ``None`` while no key has reached it since the last rebuild; a build
    or rebuild cuts every bin as an exact-size slice of one packed copy of
    the keys.  ``rank_search`` is the bin's Fenwick prefix plus one
    ``bisect_left`` in its array, and ``select`` a Fenwick descent plus
    one array index; neither mutates, so readers need no exclusive access.
    ``select`` admits its rank as an update admits a key and raises
    :class:`RankOutOfRangeError` outside ``[0, len)``.  An insert or
    delete bisects once and shifts at most the bin's load of slots.
    """

    def __init__(self, keys: SortedKeySet | Iterable[int], k: int):
        if not isinstance(keys, SortedKeySet):
            keys, duplicates = SortedKeySet.from_unsorted(keys)
            if duplicates:
                raise InvalidKeySetError(f"keys must be distinct: {duplicates} duplicates")
        if len(keys) < 2:
            raise DictboostError("dynamic build needs at least two initial keys")
        k = _as_int(k)
        if k < 1:
            raise DictboostError(f"bin count must be >= 1, got {k}")
        self.k = k
        self.ledger = RebuildLedger()
        self.total_updates = 0
        self._delta_max = Fraction(0)
        self._install(keys.array, 0)
        self.initial_delta_hat = self.delta_hat

    # -- state installation ----------------------------------------------------

    def _install(self, arr: np.ndarray, floor: Fraction | int) -> None:
        """Bin the sorted distinct uint64 ``arr`` afresh.  The one gap pass
        sets the bounds and ``delta_hat = max(exact ratio, floor)``."""
        n = int(arr.size)
        if n >= 2:
            # the key set, or the bins' order, already holds the keys sorted
            # and distinct, so every gap is positive: no re-validation
            gaps = np.diff(arr)
            self._g_min_bound, self._g_max_bound = int(gaps.min()), int(gaps.max())
            exact = Fraction(self._g_max_bound, self._g_min_bound)
        else:
            self._g_min_bound, self._g_max_bound = _NO_GAP_MIN, _NO_GAP_MAX
            exact = Fraction(1)
        self.delta_hat = delta_hat = max(exact, floor)
        if delta_hat > self._delta_max:
            self._delta_max = delta_hat
        self._size = n
        if n:
            lo, hi = int(arr[0]), int(arr[-1])
            ext = -((-(hi - lo) * delta_hat.numerator) // delta_hat.denominator)  # ceil
            self.range_lo, self.range_hi = lo - ext, hi + ext
        else:
            lo = hi = 0
            self.range_lo, self.range_hi = 0, -1
        # bins over the key hull, not the widened range: see the module docstring
        self._geometry = BinGeometry(lo, hi, self.k)
        starts = self._geometry.starts(arr)
        # each non-empty bin is a slice of one packed copy of the keys: an
        # exact-size copy, with no growth slack.  frombytes takes only a
        # byte view, and a cast only a C-contiguous buffer: a strided key
        # set's array is copied first, no other is
        packed = array("Q")
        packed.frombytes(memoryview(np.ascontiguousarray(arr)).cast("B"))
        counts = np.diff(starts)
        filled = np.flatnonzero(counts)
        self._bins: list[array | None] = [None] * self.k
        for b, i, j in zip(filled.tolist(), starts[filled].tolist(),
                           starts[filled + 1].tolist()):
            self._bins[b] = packed[i:j]
        self._fenwick = _Fenwick(counts)
        self.n_at_rebuild = n
        self.updates_since_rebuild = 0

    def _rebuild(self, trigger: RebuildTrigger, extra: int | None = None) -> None:
        # the bins in order are the sorted keys: join their buffers once
        arr = np.frombuffer(b"".join(filter(None, self._bins)), np.uint64)
        if extra is not None:
            extra = np.uint64(extra)  # a Python int could promote the search to float64
            arr = np.insert(arr, np.searchsorted(arr, extra), extra)
        floor = 2 * self.delta_hat if trigger is RebuildTrigger.DELTA_GROWTH else 0
        self._install(arr, floor)
        self.ledger.append(RebuildEvent(trigger, int(arr.size)))

    def _after_update(self) -> None:
        """Count one effective update, then rebuild if a trigger fires."""
        self.total_updates += 1
        self.updates_since_rebuild += 1
        if self.updates_since_rebuild >= max(1, self.n_at_rebuild // 2):
            self._rebuild(RebuildTrigger.UPDATE_COUNT)
        elif (
            self._size >= 2
            and self._g_max_bound * self.delta_hat.denominator
            > self._g_min_bound * self.delta_hat.numerator
        ):
            self._rebuild(RebuildTrigger.DELTA_GROWTH)

    def _note_gap(self, gap: int) -> None:
        if gap < self._g_min_bound:
            self._g_min_bound = gap
        if gap > self._g_max_bound:
            self._g_max_bound = gap

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def rank_search(self, x: int) -> tuple[int, bool]:
        # core._as_int and _Fenwick.prefix inline: each call would cost a
        # Python frame per query
        try:
            x = index(x)
        except TypeError:
            raise DictboostError(f"{x!r} is not an integer") from None
        b = i = self._geometry.bin_of(x) - 1
        tree = self._fenwick._tree
        base = 0
        while i:
            base += tree[i]
            i &= i - 1
        keys = self._bins[b]
        if not keys:
            return base, False
        i = bisect_left(keys, x)
        return base + i, i < len(keys) and keys[i] == x

    def select(self, j: int) -> int:
        j = _as_int(j)
        if not 0 <= j < self._size:
            raise RankOutOfRangeError(f"rank {j} out of range for size {self._size}")
        b, off = self._fenwick.select(j)
        return self._bins[b][off]

    def __iter__(self):
        # the non-empty bins' arrays, concatenated; ``filter`` skips the
        # empty ones in C, which matters at k >> n
        return chain.from_iterable(filter(None, self._bins))

    def _neighbours(self, b: int, keys: array, i: int) -> tuple[int | None, int | None]:
        """The keys just below and above ``keys[i]``, the key at offset
        ``i`` of bin ``b``, or ``None`` past either end of the contents.
        Only a key at a bin edge takes a Fenwick select."""
        pred = keys[i - 1] if i > 0 else None
        succ = keys[i + 1] if i + 1 < len(keys) else None
        if pred is None or succ is None:
            r = self._fenwick.prefix(b) + i
            if pred is None and r > 0:
                pred = self.select(r - 1)
            if succ is None and r + 1 < self._size:
                succ = self.select(r + 1)
        return pred, succ

    # -- updates ----------------------------------------------------------------

    def insert(self, x: int) -> bool:
        x = _as_int(x)
        if not 0 <= x <= MAX_KEY:
            raise DictboostError(f"key {x!r} is not an integer in the u64 range")
        if x < self.range_lo or x > self.range_hi:
            # cannot be present; rebuild around the new extremes right away
            self.total_updates += 1
            self._rebuild(RebuildTrigger.OUT_OF_RANGE, extra=x)
            return True
        b = self._geometry.bin_of(x) - 1
        keys = self._bins[b]
        if keys is None:
            keys = self._bins[b] = array("Q")
        i = bisect_left(keys, x)
        if i < len(keys) and keys[i] == x:
            return False
        keys.insert(i, x)
        self._fenwick.add(b, 1)
        self._size += 1
        pred, succ = self._neighbours(b, keys, i)
        if pred is not None:
            self._note_gap(x - pred)
        if succ is not None:
            self._note_gap(succ - x)
        self._after_update()
        return True

    def delete(self, x: int) -> bool:
        x = _as_int(x)
        if x < self.range_lo or x > self.range_hi:
            return False  # cannot be present
        b = self._geometry.bin_of(x) - 1
        keys = self._bins[b]
        if not keys:
            return False
        i = bisect_left(keys, x)
        if i == len(keys) or keys[i] != x:
            return False
        pred, succ = self._neighbours(b, keys, i)
        del keys[i]
        self._fenwick.add(b, -1)
        self._size -= 1
        if pred is not None and succ is not None:
            self._note_gap(succ - pred)
        self._after_update()
        return True

    # -- reporting ----------------------------------------------------------------

    @property
    def gap_bounds(self) -> tuple[int, int]:
        return self._g_min_bound, self._g_max_bound

    @property
    def delta_max(self) -> float:
        return float(self._delta_max)

    def occupancy(self) -> tuple[int, int]:
        """(non-empty bins, keys in the largest bin), counted bin by bin."""
        sizes = [len(keys) for keys in self._bins if keys]
        return len(sizes), max(sizes, default=0)

    def amortized_report(self) -> AmortizedReport:
        touched = self.ledger.total_touched
        return AmortizedReport(
            total_updates=self.total_updates,
            rebuilds_update_count=self.ledger.count(RebuildTrigger.UPDATE_COUNT),
            rebuilds_delta_growth=self.ledger.count(RebuildTrigger.DELTA_GROWTH),
            rebuilds_out_of_range=self.ledger.count(RebuildTrigger.OUT_OF_RANGE),
            elements_touched=touched,
            touches_per_update=(touched / self.total_updates) if self.total_updates else 0.0,
            delta_hat=float(self.delta_hat),
            delta_max=float(self._delta_max),
        )


def build_dynamic(keys: SortedKeySet | Iterable[int], k: int) -> DynamicBinDict:
    return DynamicBinDict(keys, k)
