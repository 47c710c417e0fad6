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

Inside a learned model, the in-place kinds (``bbs``, ``bfs``, ``is``, the
:data:`WINDOW_SEARCHES` table) search the window of one shared key list
that a query is routed to; every other kind keeps one dictionary per
interval (:class:`IntervalDictionaries`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core import DictboostError, SearchOutcome, SortedSetDictionary
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


def window_searcher(
    dict_kind: DictKind, keys: list[int], starts: Sequence[int]
) -> tuple[str, type[SortedSetDictionary] | IntervalDictionaries]:
    """Canonical id and window searcher for intervals that cut the sorted
    ``keys`` at the ascending ranks ``starts`` (first 0, last ``len(keys)``).

    The id decides: an in-place kind answers on the shared list itself and
    builds nothing; any other kind gets one dictionary per non-empty interval.
    """
    dict_id, builder = make_builder(dict_kind) if isinstance(dict_kind, str) else dict_kind
    searcher = WINDOW_SEARCHES.get(dict_id)
    return dict_id, searcher or IntervalDictionaries(builder, keys, starts)
