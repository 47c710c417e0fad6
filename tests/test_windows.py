"""Window search: every dictionary kind is built once over all the windows
of one key sequence (a plain list or a key set's view) and answers a
model's query on its window; a model builds exactly one instance of its
kind, over the key set's view.

Every answer is checked against ``np.searchsorted`` (through ``bulk_rank``
or directly on the window), never against another search of this package.
"""

import copy
import pickle
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dictboost import binning
from dictboost.binning import BinGeometry, bin_starts, build_binning
from dictboost.core import MAX_KEY, DictboostError, SearchOutcome, SortedKeySet, sorted_unique
from dictboost.dictionaries import DICTIONARY_IDS, _KINDS, _kind, make_builder
from dictboost.dynamic import DynamicBinDict
from dictboost.segments import build_segments
from dictboost.workloads import gen_clustered, gen_uniform

from conftest import assert_matches_oracle, bulk_rank, mixed_queries, reachable_bytes


def _models(keys, kind):
    """Binned and segmented structures over ``keys`` for one dictionary kind."""
    n = len(keys)
    for k in sorted({1, 2, 3, max(1, n // 4), n}):
        yield f"binning k={k}", build_binning(keys, k, kind)
    for eps in (0, 1, 4, max(1, n // 2)):
        yield f"segments eps={eps}", build_segments(keys, eps, kind)


def _u64_extreme_keys():
    rng = np.random.default_rng(17)
    inner = rng.integers(1, MAX_KEY - 1, size=200, dtype=np.uint64)
    fixed = np.array([0, 1, 2, 2**63, MAX_KEY - 1, MAX_KEY], dtype=np.uint64)
    return SortedKeySet(np.unique(np.concatenate([fixed, inner])))


def _extreme_queries(keys):
    return mixed_queries(keys, 400, seed=18) + [0, 1, 3, 2**63 - 1, 2**63 + 1, MAX_KEY - 2,
                                                MAX_KEY - 1, MAX_KEY]


class TestAgainstSearchsorted:
    @pytest.mark.parametrize("kind", DICTIONARY_IDS)
    def test_keys_at_zero_and_max_u64(self, kind):
        """Every kind answers at the u64 edges, plain and through the
        models' one window search."""
        keys = _u64_extreme_keys()
        queries = _extreme_queries(keys)
        assert_matches_oracle(make_builder(kind)[1](keys.as_list()), keys, queries)
        for label, d in _models(keys, kind):
            assert d.dict_id.partition(":")[0] == kind, label
            assert_matches_oracle(d, keys, queries)

    @pytest.mark.parametrize("k", [1, 3, 64, 1000])
    def test_dynamic_keys_at_zero_and_max_u64(self, k):
        """The dynamic structure answers at the u64 edges, also after it
        loses both edge keys and takes them back."""
        keys = _u64_extreme_keys()
        queries = _extreme_queries(keys)
        d = DynamicBinDict(keys, k)
        assert_matches_oracle(d, keys, queries)
        assert d.delete(0) and d.delete(MAX_KEY)
        assert_matches_oracle(d, SortedKeySet(keys.array[1:-1]), queries)
        assert d.insert(MAX_KEY) and d.insert(0)
        assert_matches_oracle(d, keys, queries)
        assert list(d) == keys.as_list()

    @pytest.mark.parametrize("kind", DICTIONARY_IDS)
    def test_exact_boundary_fallback(self, kind, monkeypatch):
        """The exact-int path of the bin boundaries runs only when
        ``k * r >= 2**62``; as ``r < k <= n`` that needs over 2**31 keys, so
        the limit is lowered here to force it on a span of nearly 2**64."""
        keys = _u64_extreme_keys()
        fast = {k: bin_starts(keys, k).tolist() for k in (2, 3, 7, 64, len(keys))}
        monkeypatch.setattr(binning, "_U64_PRODUCT_LIMIT", 0)
        queries = _extreme_queries(keys)
        for k, want in fast.items():
            exact = bin_starts(keys, k).tolist()
            span = keys.hi - keys.lo
            by_formula = [0] + [
                int(np.searchsorted(keys.array, np.uint64(keys.lo + (b * span) // k), "right"))
                for b in range(1, k + 1)
            ]
            assert exact == want == by_formula, f"k={k}"
            assert_matches_oracle(build_binning(keys, k, kind), keys, queries)

    @pytest.mark.parametrize("kind", DICTIONARY_IDS)
    def test_numpy_integer_queries(self, kind):
        """An ``np.uint64`` or ``np.int64`` query gets the answer of the same
        Python int, binned, segmented and plain, on keys spread over the u64
        range: in numpy the bin arithmetic would wrap (uint64) or overflow
        (int64).  A binned model refuses a query that is not an integer."""
        rng = np.random.default_rng(23)
        keys = SortedKeySet(sorted_unique(rng.integers(0, MAX_KEY, 3000, np.uint64, endpoint=True)))
        queries = mixed_queries(keys, 700, seed=24)
        binned = build_binning(keys, 300, kind)
        builds = [("binned", binned), ("segmented", build_segments(keys, 16, kind)),
                  ("plain", make_builder(kind)[1](keys))]
        for typed in ([np.uint64(x) for x in queries],
                      [np.int64(x) for x in queries if x < 2**63]):
            ranks, found = bulk_rank(keys, [int(x) for x in typed])
            want = list(zip(ranks.tolist(), found.tolist()))
            for label, d in builds:
                assert [d.rank_search(x) for x in typed] == want, (label, type(typed[0]))
        with pytest.raises(DictboostError):
            binned.rank_search(float(keys[1500]) + 0.5)

    @pytest.mark.parametrize("kind", DICTIONARY_IDS)
    def test_clustered_keys_at_k_equals_n_leave_most_windows_empty(self, kind):
        keys = gen_clustered(3000, outlier_fraction=0.001, seed=4)
        d = build_binning(keys, len(keys), kind)
        assert d.empty_bins() / d.k > 0.9
        # every key, and the gap just above it, so that queries land in the
        # empty windows between the clusters too
        queries = mixed_queries(keys, 2000, seed=5) + [x + 1 for x in keys.as_list()[::7]]
        assert_matches_oracle(d, keys, queries)


WINDOW_KINDS = [*DICTIONARY_IDS, "bft:1", "bft:2", "bft:3", "css:2", "css:3"]


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_window_search_contract(kind):
    """Over every window of a small key sequence, a plain list and a key
    set's view alike, built as the kind over the windows ``[0, lo)``, the
    empty ``[lo, lo)``, ``[lo, hi)`` and ``[hi, n)``: an empty window gives
    (lo, False), the rank always lies in the window, and it equals
    searchsorted on the window, shifted by lo."""
    _, cls, params = _kind(kind)
    keys = [0, 3, 4, 9, 20, 21, 22, 40, 77, 78, 1000, MAX_KEY]
    n = len(keys)
    arr = np.array(keys, dtype=np.uint64)
    probes = sorted({0, 1, 2, 5, 10, 19, 23, 39, 41, 76, 79, 999, 1001, MAX_KEY - 1, MAX_KEY}
                    | set(keys))
    for seq in (keys, SortedKeySet(keys).view):
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                starts = [0, lo, lo, hi, n]
                d = cls(seq, starts, *params)
                assert d.search(5, lo, lo) == SearchOutcome(lo, False)
                for w_lo, w_hi in zip(starts, starts[1:]):
                    for x in probes:
                        got = d.search(x, w_lo, w_hi)
                        rank, _ = got
                        assert w_lo <= rank <= w_hi
                        want = w_lo + int(np.searchsorted(arr[w_lo:w_hi], np.uint64(x), side="left"))
                        assert got == (want, want < w_hi and keys[want] == x), (
                            type(seq).__name__, starts, w_lo, x)


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_edge_windows_answer_every_integer_outside_the_keys(kind):
    """Routing is total: a query below the keys goes to the first interval
    and one above them to the last, also past either end of the u64 range.
    Plain, binned (k = 1, n/10, n) and segmented (eps 0, 16), every probe,
    as a Python int and as each numpy integer type that holds it, gets
    searchsorted's answer (0 below the u64 range, n above it), and the
    splay trees that those probes splay stay sound."""
    rng = np.random.default_rng(31)
    keys = SortedKeySet(sorted_unique(rng.integers(1, 2**40, 1000, dtype=np.uint64)))
    n, lo, hi = len(keys), keys.lo, keys.hi
    probes = [-(2**70), -1, lo - 1, lo, hi, hi + 1, MAX_KEY, 2**64, 2**70]
    want = {x: (0, False) if x < 0 else (n, False) if x > MAX_KEY else
            (int(np.searchsorted(keys.array, np.uint64(x))), x in (lo, hi)) for x in probes}
    typed = [(x, x) for x in probes]
    typed += [(np.int64(x), x) for x in probes if -(2**63) <= x < 2**63]
    typed += [(np.uint64(x), x) for x in probes if 0 <= x <= MAX_KEY]
    builds = [("plain", make_builder(kind)[1](keys))]
    builds += [(f"binning k={k}", build_binning(keys, k, kind)) for k in (1, n // 10, n)]
    builds += [(f"segments eps={eps}", build_segments(keys, eps, kind)) for eps in (0, 16)]
    for label, d in builds:
        for q, x in typed:
            assert d.rank_search(q) == want[x], (label, type(q).__name__, x)
        if kind == "splay":
            tree = d if label == "plain" else d._dict
            assert tree.check_integrity() == keys.as_list(), label


def _overhead_words(kind, lens):
    """Words a kind holds beyond the keys, over windows of lengths ``lens``,
    counted from what it stores: a rank per key (``bfe``, ``bft``), four
    more words per tree node (``splay``), or the separator levels of the
    windows longer than the fanout (``css``), each ``ceil(below / f)``
    long."""
    name, _, param = kind.partition(":")
    if name in ("bfe", "bft"):
        return sum(lens)
    if name == "splay":
        return 4 * sum(lens)
    if name != "css":
        return 0
    f, words = int(param or 16), 0
    for m in lens:
        while m > f:
            m = -(-m // f)
            words += m
    return words


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_space_is_the_keys_plus_the_overhead(kind):
    """Plain and over windows (empty ones among them), a kind's length is
    the key count and its space is 8 bytes a key plus its overhead, which
    is what it stores beyond the keys."""
    _, cls, params = _kind(kind)
    keys = gen_clustered(600, outlier_fraction=0.01, seed=6)
    starts = bin_starts(keys, 40).tolist()
    for label, d, lens in [("plain", cls.build(keys, *params), [len(keys)]),
                           ("windows", cls(keys.view, starts, *params), np.diff(starts).tolist())]:
        assert len(d) == len(keys), label
        assert d.overhead_bytes() == 8 * _overhead_words(kind, lens), label
        assert d.space_bytes() == 8 * len(d) + d.overhead_bytes(), label


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_plain_rank_search_makes_no_len_call(kind, monkeypatch):
    """A plain query pays for its search only: ``rank_search`` takes the
    window's end from the keys, not from a Python ``__len__``."""
    _, cls, params = _kind(kind)
    keys = SortedKeySet([3, 9, 20, 21, 40, 77, 1000])
    d = cls.build(keys, *params)

    def no_len(self):
        raise AssertionError("rank_search called __len__")

    monkeypatch.setattr(cls, "__len__", no_len)
    queries = [0, 3, 10, 21, 500, 1000, 2000]
    ranks, found = bulk_rank(keys, queries)
    assert [d.rank_search(x) for x in queries] == list(zip(ranks.tolist(), found.tolist()))


def test_geometry_uppers_are_the_exact_boundaries():
    for lo, hi, k in [(0, MAX_KEY, 5), (7, 7, 1), (MAX_KEY, MAX_KEY, 1), (10, 1000, 999)]:
        span = hi - lo
        assert BinGeometry(lo, hi, k).uppers().tolist() == [
            lo + (b * span) // k for b in range(k + 1)
        ]


@pytest.fixture
def constructed(monkeypatch):
    """Counts dictionary instances by class name while a test runs."""
    counts = Counter()
    for cls in _KINDS.values():
        def counting(self, *args, _init=cls.__init__, **kwargs):
            counts[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_models_build_one_dictionary(constructed):
    """A model builds one instance of its kind over all its windows; an
    in-place kind holds the key set's own view and nothing else."""
    keys = SortedKeySet(np.unique(np.random.default_rng(3).integers(0, 10**6, 500)))
    for kind in DICTIONARY_IDS:
        for label, d in _models(keys, kind):
            assert sum(constructed.values()) == 1, f"{kind} {label}: {dict(constructed)}"
            assert type(d._dict).__name__ in constructed
            assert d.rank_search(keys[7]) == (7, True)
            if kind in ("bbs", "bfs", "is"):
                assert vars(d._dict) == {"_keys": keys.view}
                assert d._dict._keys is keys.view
            constructed.clear()


def test_every_search_path_returns_a_plain_tuple():
    """Every kind's ``search``, every model's ``rank_search`` (the edge
    windows' answers below and above the keys too) and ``DynamicBinDict``'s
    return exactly ``tuple``: a named tuple costs several times as much to
    build, on every query."""
    keys = SortedKeySet([3, 9, 20, 21, 40, 77, 1000])
    probes = [0, 3, 10, 21, 500, 1000, 2000]
    for kind in WINDOW_KINDS:
        _, cls, params = _kind(kind)
        d = cls(keys.view, [0, 2, 2, 7], *params)
        for lo, hi in [(0, 2), (2, 2), (2, 7)]:
            for x in probes:
                assert type(d.search(x, lo, hi)) is tuple, (kind, lo, hi, x)
        for label, m in _models(keys, kind):
            for x in probes:
                assert type(m.rank_search(x)) is tuple, (kind, label, x)
    dyn = DynamicBinDict(keys, 64)  # most bins empty
    for x in probes:
        assert type(dyn.rank_search(x)) is tuple, x
    for x in keys.as_list():
        assert dyn.delete(x)
    assert len(dyn) == 0
    for x in probes:
        assert type(dyn.rank_search(x)) is tuple, ("emptied", x)


@pytest.mark.parametrize("kind", DICTIONARY_IDS)
def test_models_pickle_and_copy(kind):
    """A key set's view cannot be pickled, so a pickled or copied model
    rebuilds its dictionary over the copied key set, and a plain build
    pickles the key set in place of its view; the copies answer every
    query as the original does and report the same space."""
    keys = SortedKeySet([0, 3, 9, 20, 21, 40, 77, 1000, MAX_KEY], universe_hint=(0, MAX_KEY))
    copied = pickle.loads(pickle.dumps(keys))
    assert copied == keys and copied.universe_hint == keys.universe_hint
    assert copied.view.readonly and list(copied.view) == keys.as_list()
    queries = _extreme_queries(keys)
    ranks, found = bulk_rank(keys, queries)
    want = list(zip(ranks.tolist(), found.tolist()))
    build = make_builder(kind)[1]
    plain = [("plain from a list", build(keys.as_list())), ("plain from a key set", build(keys))]
    for label, d in [*_models(keys, kind), *plain]:
        for c in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
            assert type(c) is type(d) and c.space_bytes() == d.space_bytes(), label
            assert [c.rank_search(x) for x in queries] == want, label
        assert [d.rank_search(x) for x in queries] == want, label


def test_models_hold_no_per_key_object(monkeypatch):
    """A binned model (k = n/10, uniform keys) and a segmented one (eps 16,
    clustered keys) take at most 16 bytes per key in all, the 8-byte key
    array included: a list of one int object per key alone would take
    over 40."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.timing import structure_bytes

    n = 100_000
    models = {
        "binning": build_binning(gen_uniform(n, 2**44, seed=11), n // 10, "bbs"),
        "segments": build_segments(
            gen_clustered(n, outlier_fraction=0.001, seed=12, spread=1000), 16, "bbs"),
    }
    for label, d in models.items():
        per_key = structure_bytes(d) / n
        assert per_key <= 16, f"{label}: {per_key:.1f} bytes per key"


@pytest.mark.parametrize("model, param", [("binning", 100_000), ("segments", 4), ("segments", 16)])
def test_space_bytes_is_what_a_walk_finds(model, param):
    """At 1M keys, a model's ``space_bytes()`` is within 5% of the bytes a
    ``sys.getsizeof`` walk reaches from it beyond those of its key set:
    binned at k = 100k over uniform keys, and segmented at eps 4 and 16
    over the ``clustered-segments`` key shape."""
    n = 1_000_000
    if model == "binning":
        d = build_binning(gen_uniform(n, 2**44, seed=13), param, "bbs")
    else:
        d = build_segments(gen_clustered(n, outlier_fraction=0.001, seed=13, spread=1000), param, "bbs")
    walked = reachable_bytes(d) - reachable_bytes(d.keys)
    assert abs(d.space_bytes() - walked) <= 0.05 * walked, (d.space_bytes(), walked)


@pytest.mark.parametrize("n", [200, 60_000, 70_000])
def test_rank_table_is_the_narrowest_unsigned_type(n):
    """Both models keep their rank table as ``np.min_scalar_type(n)``
    (uint8, uint16 and uint32 here), read as plain ints: over keys at
    both u64 ends, their answers at the extremes, at window edges and at
    sampled keys equal ``np.searchsorted``'s, also after a pickle and a
    ``deepcopy``.  ``bin_starts`` still returns int64, and the table owns
    its entries' width in bytes each, by ``sys.getsizeof``."""
    rng = np.random.default_rng(n)
    arr = np.unique(np.concatenate([
        np.array([0, 1, MAX_KEY - 1, MAX_KEY], dtype=np.uint64),
        rng.integers(2, MAX_KEY - 1, size=n - 4, dtype=np.uint64)]))
    assert arr.size == n
    keys = SortedKeySet(arr)
    width = np.min_scalar_type(n)
    assert bin_starts(keys, n // 10).dtype == np.int64
    models = {"binning": build_binning(keys, n // 10), "segments": build_segments(keys, 16)}
    for label, d in models.items():
        starts = np.asarray(d._starts)
        assert starts.dtype == width and starts[-1] == n, label
        assert type(d._starts[-1]) is int, label
        # window edges: the keys on either side of every boundary, sampled
        edges = np.unique(starts[1:-1])[:: max(1, len(starts) // 500)]
        ranks = np.unique(np.concatenate([edges, edges - 1, rng.integers(0, n, 500), [0, n - 1]]))
        inside = [int(arr[r]) + dx for r in ranks.tolist() for dx in (-1, 0, 1)]
        inside = [x for x in inside if 0 <= x <= MAX_KEY]
        want = np.searchsorted(arr, np.array(inside, dtype=np.uint64)).tolist()
        want = [(r, r < n and int(arr[r]) == x) for r, x in zip(want, inside)]
        want += [(0, False), (n, False), (n, False)]
        probes = inside + [-1, 2**64, 2**70]
        for c in (d, pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert np.asarray(c._starts).dtype == width, label
            assert [c.rank_search(x) for x in probes] == want, label
        table = d._starts.obj
        assert table.base is None, label
        assert sys.getsizeof(table) - sys.getsizeof(np.empty(0, width)) == len(starts) * width.itemsize
