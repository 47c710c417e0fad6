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
epsilon segments) share: a model cuts the sorted keys into intervals and
names the interval of a query; one instance of the dictionary kind, built
over all the intervals as windows of the key set's ``view`` (a read-only
``memoryview`` of its u64 buffer), answers on that window.  A plain build
is the kind over the single window of the same view.

A kind subclasses :class:`~dictboost.core.SortedSetDictionary`, which
holds the keys and gives ``len``, ``rank_search`` and ``space_bytes``; the
kind defines its constructor, its ``search`` and, if it holds more than
the keys, ``overhead_bytes``.  The in-place kinds (``bbs``, ``bfs``,
``is``) hold the view only and define just their search; ``bfe`` and
``bft`` add one flat layout and rank list, ``css`` the separator levels
of the windows longer than its fanout, and ``splay`` one tree per window.
"""

from __future__ import annotations

from operator import index
from typing import Callable, Sequence

import numpy as np

from ..core import KEY_BYTES, DictboostError, SortedKeySet, SortedSetDictionary
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

_KINDS: dict[str, type[SortedSetDictionary]] = {
    "bbs": BranchyBinarySearch,
    "bfs": UniformBinarySearch,
    "bfe": EytzingerSearch,
    "bft": BlockTreeSearch,
    "is": InterpolationSearch,
    "css": CssTreeSearch,
    "splay": SplayTreeDictionary,
}
DICTIONARY_IDS = tuple(_KINDS)


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


def _kind(spec: str) -> tuple[str, type[SortedSetDictionary], tuple[int, ...]]:
    """A spec string like ``"bbs"`` or ``"bft:8"`` as its canonical id, the
    kind's class and the constructor parameters after ``(keys, starts)``."""
    name, _, raw_param = spec.strip().partition(":")
    name = name.lower()
    kind = _KINDS.get(name)
    if kind is None:
        raise DictboostError(
            f"unknown dictionary kind {spec!r}; valid ids: {', '.join(DICTIONARY_IDS)}"
        )
    if name == "bft":
        param = _param(spec, raw_param, BlockTreeSearch.DEFAULT_BLOCK, 1, "block size")
    elif name == "css":
        param = _param(spec, raw_param, CssTreeSearch.DEFAULT_FANOUT, 2, "fanout")
    elif raw_param:
        raise DictboostError(f"dictionary kind {name!r} takes no parameter, got {spec!r}")
    else:
        return name, kind, ()
    return f"{name}:{param}", kind, (param,)


def make_builder(spec: str) -> tuple[str, DictionaryBuilder]:
    """Turn a spec string like ``"bbs"`` or ``"bft:8"`` into a canonical id
    plus a ``build(keys)`` callable."""
    dict_id, kind, params = _kind(spec)
    return dict_id, lambda keys: kind.build(keys, *params)


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


class IntervalModel:
    """A sorted key set cut into intervals at the ascending ranks
    ``starts`` (first 0, last ``n``), answered by one dictionary kind.

    ``starts`` is kept as one array of the narrowest unsigned type that
    holds ``n`` (``np.min_scalar_type``: 2 bytes per interval boundary for
    up to 65,535 keys, 4 up to 2^32 - 1), read through a ``memoryview``
    as the key set's ``view`` reads the keys: indexing it gives a plain
    Python int, with no boxed int per interval held between queries.

    A subclass cuts the keys and names the interval of a query with
    ``interval(x)``: the ``j`` whose window ``keys[starts[j-1]:starts[j]]``
    answers the int ``x``.  Routing is total: a query below the keys goes
    to the first interval, which holds the smallest key and so answers
    rank 0, and one above them to the last, which holds the largest and
    answers ``n``.  The dictionary kind ``dict_kind``, a spec string, is
    built once over all those windows of the key set's ``view``, which was
    checked when the key set was made; no per-key object is made.

    ``space_bytes`` is measured, not charged per interval: the bytes of the
    buffers the model holds (the rank table, and whatever a subclass adds
    to it) plus the dictionary's ``overhead_bytes``.
    """

    def __init__(self, keys: SortedKeySet, starts: np.ndarray, dict_kind: str):
        self.keys = keys
        # every rank is in [0, n], so the narrowest type holding n holds them
        self._starts = memoryview(starts.astype(np.min_scalar_type(len(keys)), copy=False))
        self.dict_id, kind, params = _kind(dict_kind)
        self._dict = kind(keys.view, self._starts, *params)
        self._n = len(keys)

    @classmethod
    def build(cls, keys: SortedKeySet | Sequence[int], *args, **kwargs):
        """The model over ``keys``, a key set or sorted distinct keys; the
        other arguments are the constructor's."""
        if not isinstance(keys, SortedKeySet):
            keys = SortedKeySet(keys)
        return cls(keys, *args, **kwargs)

    def interval(self, x: int) -> int:
        """The 1-based interval ``j`` of any int ``x``."""
        raise NotImplementedError

    def __getstate__(self) -> dict:
        # the dictionary may hold the key set's view, and neither view can
        # be pickled: carry the rank array, and a copy builds its own
        # dictionary over the copied key set
        state = self.__dict__.copy()
        del state["_dict"]
        state["_starts"] = self._starts.obj
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._starts = memoryview(self._starts)
        _, kind, params = _kind(self.dict_id)
        self._dict = kind(self.keys.view, self._starts, *params)

    def rank_search(self, x: int) -> tuple[int, bool]:
        # core._as_int inline: a call would cost a Python frame per query
        try:
            x = index(x)
        except TypeError:
            raise DictboostError(f"{x!r} is not an integer") from None
        j = self.interval(x)
        return self._dict.search(x, self._starts[j - 1], self._starts[j])

    def __len__(self) -> int:
        return self._n

    @property
    def intervals(self) -> int:
        return len(self._starts) - 1

    def space_bytes(self) -> int:
        """Model overhead only: the rank table's bytes plus whatever the
        dictionary keeps beyond one flat key array."""
        return self._starts.nbytes + self._dict.overhead_bytes()

    def space_overhead_pct(self) -> float:
        return 100.0 * self.space_bytes() / (KEY_BYTES * self._n)
