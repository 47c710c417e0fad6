"""Core types and contracts shared by every search structure in the package.

The whole library revolves around one normalized query protocol: a
*rank search* over a static set of distinct unsigned 64-bit keys held in
sorted order.  ``rank_search(x)`` returns the index of the smallest key
``>= x`` (``n`` if there is none) together with a membership flag.  Every
dictionary and every model wrapper in this package answers queries in
exactly those terms, which is what makes them interchangeable and lets a
single linear-scan oracle act as ground truth for all of them.

A query is a Python or numpy integer, any integer at all: one below the
keys answers rank 0 and one above them rank ``n``, also outside the u64
range.  Anything else (a float, even an integral one, a string, ``None``)
raises :class:`DictboostError`.

Ranks are 0-based.  The predecessor of ``x`` is ``keys[rank - 1]`` whenever
``rank > 0``, so the same outcome serves membership, predecessor and range
queries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import index
from typing import Iterable, NamedTuple, Sequence

import numpy as np

KEY_BYTES = 8
MAX_KEY = 2**64 - 1


class DictboostError(Exception):
    """Base class for every error raised by this package."""


class InvalidKeySetError(DictboostError):
    """Raised when a key sequence violates the sorted-distinct-u64 contract."""


class DistributionError(DictboostError):
    """Raised when access weights are negative or do not sum to one."""


class SearchOutcome(NamedTuple):
    """Result of a rank search, with named fields.

    ``rank`` is the 0-based index of the smallest key ``>= x`` (``n`` when
    every key is smaller than ``x``); ``found`` is true iff ``keys[rank]``
    exists and equals ``x``.  The dictionaries and models return the same
    pair as a plain ``(rank, found)`` tuple, which compares equal to this
    one: building a named tuple costs several times a plain one, on every
    query.
    """

    rank: int
    found: bool


@dataclass(frozen=True)
class GapStats:
    """Extremes of the consecutive-gap sequence of a sorted key set.

    The ratio ``g_max / g_min`` is kept as an exact integer pair so that
    threshold comparisons elsewhere (rebuild policies) never suffer float
    rounding; ``delta`` is the derived float for reporting.
    """

    g_min: int
    g_max: int

    def __post_init__(self) -> None:
        if self.g_min <= 0 or self.g_max < self.g_min:
            raise InvalidKeySetError(
                f"bad gap extremes g_min={self.g_min} g_max={self.g_max}"
            )

    @property
    def delta(self) -> float:
        return self.g_max / self.g_min

    @property
    def delta_exact(self) -> Fraction:
        return Fraction(self.g_max, self.g_min)


def _as_int(x) -> int:
    """``x`` as a Python int, or :class:`DictboostError` if it is not an
    integer: a numpy integer would wrap or overflow in the bin arithmetic,
    and a float would compare as a number where the keys are integers."""
    try:
        return index(x)
    except TypeError:
        raise DictboostError(f"{x!r} is not an integer") from None


def _u64_array(keys: Iterable[int] | np.ndarray) -> np.ndarray:
    """``keys`` as a uint64 array, or :class:`InvalidKeySetError` for a
    value that is not an integer in ``[0, MAX_KEY]``, in any order.  A uint64
    array is returned as it is; other keys take one C pass for the type and
    one conversion, which checks the range."""
    if isinstance(keys, np.ndarray):
        if keys.dtype == np.uint64:
            return keys
        keys = keys.tolist()
    values = keys if isinstance(keys, list) else list(keys)  # a list is only read
    if not all(map(isinstance, values, repeat(int))):
        try:
            values = list(map(index, values))
        except TypeError:
            raise InvalidKeySetError("keys must be integers") from None
    try:
        return np.fromiter(values, dtype=np.uint64, count=len(values))
    except OverflowError:
        raise InvalidKeySetError(f"keys must lie in [0, {MAX_KEY}]") from None


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """What ``np.unique(values)`` returns, the distinct values flattened and
    sorted, by one sort and a neighbour mask: ``np.unique`` hashes on numpy
    2, which on a million u64 keys is about 50 times slower."""
    s = np.sort(values, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


class SortedKeySet:
    """Immutable sorted sequence of distinct u64 keys.

    Keys are held in one read-only numpy array for vector work
    (generation, file IO, bulk oracles).  ``view`` is a read-only
    ``memoryview`` of that same buffer: indexing it gives a plain Python
    int, so the learned models' search loops read the keys in place, with
    no per-key object.  ``as_list()`` returns a fresh list.  A writable
    uint64 array passed in is copied, so the caller may go on writing to
    it; a read-only one is kept as it is.

    ``universe_hint`` optionally records the closed universe ``[lo, hi]``
    the keys were drawn from, which the query generators use to sample
    absent keys.
    """

    def __init__(
        self,
        keys: Iterable[int] | np.ndarray,
        universe_hint: tuple[int, int] | None = None,
    ):
        arr = _u64_array(keys)
        if arr is keys and arr.flags.writeable:
            # the caller's own array: keep a copy, and leave theirs writable
            arr = arr.copy()
        if arr.ndim != 1:
            raise InvalidKeySetError("keys must be one-dimensional")
        if arr.size > 1 and not np.all(arr[1:] > arr[:-1]):
            raise InvalidKeySetError("keys must be strictly increasing")
        arr.setflags(write=False)
        self._arr = arr
        self.view = memoryview(arr)
        if universe_hint is not None:
            u_lo, u_hi = int(universe_hint[0]), int(universe_hint[1])
            if arr.size and not (u_lo <= int(arr[0]) and int(arr[-1]) <= u_hi):
                raise InvalidKeySetError("universe_hint does not cover the keys")
            universe_hint = (u_lo, u_hi)
        self.universe_hint = universe_hint

    @classmethod
    def from_unsorted(
        cls, values: Iterable[int] | np.ndarray,
        universe_hint: tuple[int, int] | None = None,
    ) -> tuple["SortedKeySet", int]:
        """Sort, deduplicate and wrap ``values``; also report the number of
        duplicates removed."""
        raw = _u64_array(values)
        arr = sorted_unique(raw)
        arr.setflags(write=False)  # a fresh array: no copy needed
        return cls(arr, universe_hint=universe_hint), int(raw.size - arr.size)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self._arr.size)

    def __getitem__(self, i: int) -> int:
        return self.view[i]

    def __iter__(self):
        return iter(self.view)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SortedKeySet):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._arr, other._arr))

    def __repr__(self) -> str:
        return f"SortedKeySet(n={len(self)})"

    def __reduce__(self):
        # a memoryview cannot be pickled; the copy makes its own view
        return type(self), (self._arr, self.universe_hint)

    # -- views ---------------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Read-only uint64 view, sorted ascending."""
        return self._arr

    def as_list(self) -> list[int]:
        """The keys as a new list of ints, the caller's to change."""
        return self._arr.tolist()

    @property
    def lo(self) -> int:
        if not len(self):
            raise InvalidKeySetError("empty key set has no extremes")
        return int(self._arr[0])

    @property
    def hi(self) -> int:
        if not len(self):
            raise InvalidKeySetError("empty key set has no extremes")
        return int(self._arr[-1])

    # -- basic queries (bisect-backed plumbing, not the measured paths) ------

    def rank_of(self, x: int) -> tuple[int, bool]:
        """``(rank, found)`` of any int ``x``, also one outside the u64 range."""
        r = bisect_left(self.view, x)
        return r, r < len(self) and self.view[r] == x

    def predecessor_of(self, x: int) -> int | None:
        """Largest key strictly smaller than ``x``, or None."""
        r, _ = self.rank_of(x)
        return self[r - 1] if r > 0 else None

    def range_between(self, x: int, y: int) -> list[int]:
        """Keys in the closed interval ``[x, y]``: two rank searches on the
        view plus a slice of the array."""
        if y < x:
            return []
        view = self.view
        return self._arr[bisect_left(view, x):bisect_right(view, y)].tolist()


def gap_stats(keys: SortedKeySet | Sequence[int] | np.ndarray) -> GapStats:
    """Minimum and maximum consecutive gap of a sorted key set (n >= 2).

    Gaps are differences of adjacent keys, so they are invariant under a
    constant shift of the whole set.
    """
    arr = keys.array if isinstance(keys, SortedKeySet) else SortedKeySet(keys).array
    if arr.size < 2:
        raise InvalidKeySetError("gap statistics need at least two keys")
    d = np.diff(arr)
    return GapStats(g_min=int(d.min()), g_max=int(d.max()))


class AccessDistribution:
    """Query weights over the 2n+1 outcome atoms of a key set of size n.

    ``p[i]`` is the probability of querying key ``i`` (a hit); ``q[i]`` is
    the probability of a query falling in the open gap between keys
    ``i-1`` and ``i`` (``q[0]`` below the first key, ``q[n]`` above the
    last).  Weights must be nonnegative and sum to 1.
    """

    def __init__(self, p: Sequence[float] | np.ndarray, q: Sequence[float] | np.ndarray):
        self.p = np.asarray(p, dtype=np.float64)
        self.q = np.asarray(q, dtype=np.float64)
        if self.q.size != self.p.size + 1:
            raise DistributionError(
                f"expected len(q) == len(p) + 1, got {self.p.size} and {self.q.size}"
            )
        if (self.p < 0).any() or (self.q < 0).any():
            raise DistributionError("negative access weight")
        total = float(self.p.sum() + self.q.sum())
        if not abs(total - 1.0) <= 1e-9:  # a NaN weight fails here too
            raise DistributionError(f"weights sum to {total!r}, expected 1.0")

    @property
    def n(self) -> int:
        return int(self.p.size)

    def __repr__(self) -> str:
        return f"AccessDistribution(n={self.n})"


def entropy(dist: AccessDistribution | Iterable[float]) -> float:
    """Shannon entropy in bits of the combined (p, q) atom distribution.

    Zero-weight atoms contribute nothing.  For any distribution with ``m``
    nonzero atoms the value is at most ``log2(m)``.
    """
    if isinstance(dist, AccessDistribution):
        w = np.concatenate([dist.p, dist.q])
    else:
        w = np.asarray(list(dist), dtype=np.float64)
    w = w[w > 0]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log2(w)).sum())


def oracle_rank_search(keys: Sequence[int], x: int) -> SearchOutcome:
    """Ground truth for every dictionary: a plain linear scan.

    Deliberately the dumbest possible implementation so that nothing clever
    can be wrong in the reference answer.
    """
    n = len(keys)
    for i in range(n):
        v = keys[i]
        if v >= x:
            return SearchOutcome(i, v == x)
    return SearchOutcome(n, False)


# ---------------------------------------------------------------------------
# dictionary contracts


class SortedSetDictionary(ABC):
    """A sorted-set dictionary kind, built once over the windows of one
    sorted key sequence.

    ``Kind(keys, starts[, param])`` takes sorted distinct u64 ``keys`` as
    any sequence of ints, which it reads but never changes; every build in
    the package passes a ``SortedKeySet.view`` of the key set's buffer.
    ``starts`` are ascending ranks (first 0, last ``n``), any sequence of
    ints: a learned model passes a ``memoryview`` of its int64 rank table.
    Window ``j`` is ``[starts[j-1], starts[j])``.  No kind copies keys per
    window.
    ``search(x, lo, hi)`` answers a Python int ``x`` on one such window
    with the global rank, as a plain ``(rank, found)`` tuple.
    ``build(keys)`` is the plain dictionary, the kind over the single
    window ``[0, n)`` of the key set's view, and ``rank_search(x)`` admits
    any query (see the module docstring) and searches that window.

    This base holds the keys and gives ``len``, ``rank_search`` and the
    space sum; a kind defines its constructor, which calls this one, its
    ``search`` and, if it holds more than the keys, ``overhead_bytes``.
    Instances are safe for concurrent readers unless documented otherwise
    (the splay tree mutates on reads and needs exclusive access).
    """

    def __init__(self, keys: Sequence[int], starts: Sequence[int]):
        self._keys = keys

    @classmethod
    def build(cls, keys: SortedKeySet | Iterable[int], *args, **kwargs) -> "SortedSetDictionary":
        """The kind over the view of ``keys``, a key set or anything
        :class:`SortedKeySet` takes, with at least one key; the other
        arguments are the constructor's parameters."""
        if not isinstance(keys, SortedKeySet):
            keys = SortedKeySet(keys)
        if not len(keys):
            raise InvalidKeySetError("cannot build a dictionary over zero keys")
        return cls(keys.view, [0, len(keys)], *args, **kwargs)

    def __getstate__(self) -> dict:
        # a view cannot be pickled: pass its key set, whose view the copy reads
        state = self.__dict__.copy()
        if isinstance(state.get("_keys"), memoryview):
            state["_keys"] = SortedKeySet(state["_keys"].obj)
        return state

    def __setstate__(self, state: dict) -> None:
        if isinstance(state.get("_keys"), SortedKeySet):
            state["_keys"] = state["_keys"].view
        self.__dict__.update(state)

    @abstractmethod
    def search(self, x: int, lo: int, hi: int) -> tuple[int, bool]:
        """Rank of ``x`` within the window ``keys[lo:hi]``, one of the
        windows the kind was built over: in ``[lo, hi]``, and ``(lo, False)``
        for an empty window."""

    def rank_search(self, x: int) -> tuple[int, bool]:
        # _as_int inline: a call would cost a Python frame per query
        try:
            x = index(x)
        except TypeError:
            raise DictboostError(f"{x!r} is not an integer") from None
        return self.search(x, 0, len(self._keys))

    def __len__(self) -> int:
        return len(self._keys)

    def overhead_bytes(self) -> int:
        """Bytes held beyond one flat 8-byte-per-key array of the same keys."""
        return 0

    def space_bytes(self) -> int:
        """Total bytes of the arrays/nodes this structure holds."""
        return KEY_BYTES * len(self._keys) + self.overhead_bytes()
