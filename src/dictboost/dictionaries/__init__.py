"""The seven sorted-set dictionaries and their spec-string registry.

Registry ids (as accepted by ``--dicts`` and :func:`make_builder`):

======  ====================================  ==========================
id      class                                 parameter
======  ====================================  ==========================
bbs     BranchyBinarySearch                   -
bfs     UniformBinarySearch                   -
bfe     EytzingerSearch                       -
bft     BlockTreeSearch                       block size (``bft:8``)
is      InterpolationSearch                   -
css     CssTreeSearch                         fanout (``css:16``)
splay   SplayTreeDictionary                   -
======  ====================================  ==========================

:class:`IntervalModel` is what the learned models (equal-width bins,
epsilon segments) share: a model cuts the sorted key list into intervals
and names the interval of a query; the dictionary kind answers on that
window of the one shared key list.  The in-place kinds (``bbs``, ``bfs``,
``is``, the :data:`WINDOW_SEARCHES` table) search the window itself;
every other kind keeps one dictionary per interval
(:class:`IntervalDictionaries`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core import KEY_BYTES, DictboostError, SearchOutcome, SortedKeySet, SortedSetDictionary
from .css import CssTreeSearch
from .layouts import BlockTreeSearch, EytzingerSearch
from .sorted_array import BranchyBinarySearch, InterpolationSearch, UniformBinarySearch
from .splay import SplayTreeDictionary

__all__ = [
    "BranchyBinarySearch",
    "UniformBinarySearch",
    "EytzingerSearch",
    "BlockTreeSearch",
    "InterpolationSearch",
    "CssTreeSearch",
    "SplayTreeDictionary",
    "DICTIONARY_IDS",
    "DictionaryBuilder",
    "IntervalModel",
    "make_builder",
    "parse_dict_specs",
]

DictionaryBuilder = Callable[[Sequence[int]], SortedSetDictionary]
#: A spec string, or the ``(canonical id, builder)`` pair ``make_builder`` returns.
DictKind = str | tuple[str, DictionaryBuilder]

DICTIONARY_IDS = ("bbs", "bfs", "bfe", "bft", "is", "css", "splay")

#: The kinds that search a sorted key list in place: id -> the class whose
#: static ``search(keys, x, lo, hi)`` answers over the window ``keys[lo:hi]``.
WINDOW_SEARCHES = {
    "bbs": BranchyBinarySearch,
    "bfs": UniformBinarySearch,
    "is": InterpolationSearch,
}

_UNPARAMETERIZED = {**WINDOW_SEARCHES, "bfe": EytzingerSearch, "splay": SplayTreeDictionary}


def _param(spec: str, raw: str, default: int, minimum: int, what: str) -> int:
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise DictboostError(f"bad dictionary parameter in {spec!r}") from None
    if value < minimum:
        raise DictboostError(f"{what} in {spec!r} must be >= {minimum}")
    return value


def make_builder(spec: str) -> tuple[str, DictionaryBuilder]:
    """Turn a spec string like ``"bbs"`` or ``"bft:8"`` into a canonical id
    plus a ``build(keys)`` callable."""
    name, _, raw_param = spec.strip().partition(":")
    name = name.lower()
    if name in _UNPARAMETERIZED:
        if raw_param:
            raise DictboostError(f"dictionary kind {name!r} takes no parameter, got {spec!r}")
        return name, _UNPARAMETERIZED[name].build
    if name == "bft":
        block = _param(spec, raw_param, BlockTreeSearch.DEFAULT_BLOCK, 1, "block size")
        return f"bft:{block}", lambda keys: BlockTreeSearch.build(keys, block)
    if name == "css":
        fanout = _param(spec, raw_param, CssTreeSearch.DEFAULT_FANOUT, 2, "fanout")
        return f"css:{fanout}", lambda keys: CssTreeSearch.build(keys, fanout)
    raise DictboostError(
        f"unknown dictionary kind {spec!r}; valid ids: {', '.join(DICTIONARY_IDS)}"
    )


def parse_dict_specs(spec_list: str) -> list[tuple[str, DictionaryBuilder]]:
    """Parse a comma-separated ``--dicts`` value; order preserved."""
    out = []
    for part in spec_list.split(","):
        part = part.strip()
        if part:
            out.append(make_builder(part))
    if not out:
        raise DictboostError("no dictionaries selected")
    return out


class IntervalDictionaries:
    """One dictionary per non-empty interval of a shared sorted key list,
    for the kinds that keep a layout of their own.

    ``search`` has the signature of the in-place kinds' window search, so a
    model queries both the same way; an interval is looked up by its start
    rank, which no two non-empty intervals share.
    """

    def __init__(self, builder: DictionaryBuilder, keys: list[int], starts: Sequence[int]):
        self._by_start = {
            lo: builder(keys[lo:hi]) for lo, hi in zip(starts, starts[1:]) if lo < hi
        }

    def search(self, keys: Sequence[int], x: int, lo: int, hi: int) -> SearchOutcome:
        if lo == hi:
            return SearchOutcome(lo, False)
        r, found = self._by_start[lo].rank_search(x)
        return SearchOutcome(lo + r, found)

    def overhead_bytes(self) -> int:
        return sum(d.overhead_bytes() for d in self._by_start.values())


class IntervalModel:
    """A sorted key set cut into intervals at the ascending ranks
    ``starts`` (first 0, last ``n``), answered by one dictionary kind.

    A subclass cuts the keys, sets ``HEADER_BYTES`` (model bytes per
    interval) and names the interval of a query with ``interval(x)``: the
    ``j`` whose window ``keys[starts[j-1]:starts[j]]`` answers an in-range
    ``x``.  The kind decides how: an in-place kind searches the shared list
    itself and builds nothing; any other kind gets one dictionary per
    non-empty interval.  Queries outside ``[lo, hi]`` answer without routing.
    """

    HEADER_BYTES: int

    def __init__(self, keys: SortedKeySet, starts: list[int], dict_kind: DictKind):
        self.keys = keys
        self._ks = keys._list  # the key set's cached list, searched in place
        self._starts = starts
        self.dict_id, builder = make_builder(dict_kind) if isinstance(dict_kind, str) else dict_kind
        self._searcher = WINDOW_SEARCHES.get(self.dict_id) or IntervalDictionaries(
            builder, self._ks, starts
        )
        self._lo = keys.lo
        self._hi = keys.hi
        self._n = len(keys)

    @classmethod
    def build(cls, keys: SortedKeySet | Sequence[int], *args, **kwargs):
        """The model over ``keys``, a key set or sorted distinct keys; the
        other arguments are the constructor's."""
        if not isinstance(keys, SortedKeySet):
            keys = SortedKeySet(keys)
        return cls(keys, *args, **kwargs)

    def interval(self, x: int) -> int:
        """The 1-based interval ``j`` of an in-range ``x``."""
        raise NotImplementedError

    def rank_search(self, x: int) -> SearchOutcome:
        if x < self._lo:
            return SearchOutcome(0, False)
        if x > self._hi:
            return SearchOutcome(self._n, False)
        j = self.interval(x)
        return self._searcher.search(self._ks, x, self._starts[j - 1], self._starts[j])

    def __len__(self) -> int:
        return self._n

    @property
    def intervals(self) -> int:
        return len(self._starts) - 1

    def space_bytes(self) -> int:
        """Model overhead only: per-interval headers plus whatever
        per-interval dictionaries keep beyond one flat key array."""
        return self.HEADER_BYTES * self.intervals + self._searcher.overhead_bytes()

    def space_overhead_pct(self) -> float:
        return 100.0 * self.space_bytes() / (KEY_BYTES * self._n)
