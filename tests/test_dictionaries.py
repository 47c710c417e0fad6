"""The seven dictionaries: frozen layouts, step counts, oracle equivalence.

Layout goldens were derived by hand-simulating the fill orders (in-order
walk of the implicit tree shapes); everything behavioural goes through the
searchsorted oracle from conftest.
"""

import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictboost.binning import bin_index, build_binning
from dictboost.core import (
    DictboostError, InvalidKeySetError, SearchOutcome, SortedKeySet, gap_stats,
)
from dictboost.dictionaries import (
    DICTIONARY_IDS,
    BlockTreeSearch,
    CssTreeSearch,
    EytzingerSearch,
    SplayTreeDictionary,
    UniformBinarySearch,
    make_builder,
    parse_dict_specs,
)
from dictboost.dictionaries.splay import _Node
from dictboost.dynamic import DynamicBinDict
from dictboost.segments import build_segments
from dictboost.workloads import save_keys

from conftest import (
    TEN_KEYS, assert_matches_oracle, held_bytes, interesting_key_sets, mixed_queries,
)

ALL_SPECS = ["bbs", "bfs", "bfe", "bft:2", "bft:8", "is", "css:3", "css:16", "splay"]


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_ids_and_parameterized_kinds(self):
        assert make_builder("bbs")[0] == "bbs"
        assert make_builder("BFT")[0] == "bft:8"  # case-insensitive, default block
        assert make_builder("bft:4")[0] == "bft:4"
        assert make_builder("css")[0] == "css:16"
        assert make_builder("css:5")[1]([1, 2, 3])._fanout == 5

    def test_unknown_kind_lists_the_valid_ids(self):
        with pytest.raises(DictboostError) as exc:
            make_builder("btree")
        for kind in DICTIONARY_IDS:
            assert kind in str(exc.value)

    def test_bad_parameter_and_empty_list(self):
        with pytest.raises(DictboostError):
            make_builder("bft:small")
        with pytest.raises(DictboostError):
            parse_dict_specs(" , ,")

    @pytest.mark.parametrize("spec", ["bft:0", "bft:-3", "css:0", "css:1", "bbs:3", "splay:2"])
    def test_out_of_range_or_unwanted_parameter_fails_at_parse_time(self, spec):
        with pytest.raises(DictboostError) as exc:
            make_builder(spec)
        assert spec in str(exc.value)

    def test_smallest_valid_parameters(self):
        assert make_builder("bft:1")[0] == "bft:1"
        assert make_builder("css:2")[0] == "css:2"
        assert make_builder("bbs:")[0] == "bbs"

    def test_parse_preserves_order(self):
        ids = [kind for kind, _ in parse_dict_specs("splay, bbs ,bft:2")]
        assert ids == ["splay", "bbs", "bft:2"]


# ---------------------------------------------------------------------------
# shared contract


@pytest.mark.parametrize("spec", ALL_SPECS)
class TestEveryDictionary:
    def test_single_key(self, spec):
        d = make_builder(spec)[1]([42])
        assert len(d) == 1
        assert d.rank_search(41) == SearchOutcome(0, False)
        assert d.rank_search(42) == SearchOutcome(0, True)
        assert d.rank_search(43) == SearchOutcome(1, False)

    def test_matches_oracle_on_interesting_sets(self, spec):
        builder = make_builder(spec)[1]
        for sk in interesting_key_sets():
            d = builder(sk.as_list())
            assert len(d) == len(sk)
            assert_matches_oracle(d, sk, mixed_queries(sk, 300, seed=11))

    def test_matches_oracle_exhaustively_on_dense_window(self, spec):
        keys = [5, 6, 7, 50, 51, 90]
        d = make_builder(spec)[1](keys)
        assert_matches_oracle(d, keys, list(range(0, 100)))

    def test_overhead_never_negative(self, spec):
        d = make_builder(spec)[1](TEN_KEYS)
        assert d.overhead_bytes() >= 0
        assert d.space_bytes() >= 0

    def test_refuses_empty_build_except_splay(self, spec):
        """Every kind, splay included, refuses zero keys."""
        with pytest.raises(InvalidKeySetError):
            make_builder(spec)[1]([])


# One table of bad keys for every entry point that takes keys.  Values
# that are not integers in [0, 2**64) fail everywhere; an unsorted or
# duplicate sequence fails wherever sorted distinct keys are required.
NOT_U64_KEYS = [
    [5, 1, 3, 3, -2, 2**64], [1, 2.5, 3], [1.0, 2.0], [1, "2"], [None], [-1, 3], [1, 2**64],
    np.array([-1, 3]), np.array([1.5, 2.7]),
]
NOT_SORTED_KEYS = [[5, 1, 3], [1, 3, 3], [0, 2**64 - 1, 2**64 - 1]]

# entry point -> (call on keys and a scratch directory, needs sorted keys)
ENTRY_POINTS = {
    "SortedKeySet": (lambda keys, tmp: SortedKeySet(keys), True),
    "build_binning": (lambda keys, tmp: build_binning(keys, 1, "bbs"), True),
    "build_segments": (lambda keys, tmp: build_segments(keys, 4, "bbs"), True),
    "gap_stats": (lambda keys, tmp: gap_stats(keys), True),
    "DynamicBinDict": (lambda keys, tmp: DynamicBinDict(keys, 4), False),
    "save_keys": (lambda keys, tmp: save_keys(keys, tmp / "keys.u64"), False),
}


@pytest.mark.parametrize("kind", DICTIONARY_IDS)
def test_plain_build_checks_the_keys(kind):
    """A plain build takes only sorted distinct u64 integers; numpy integers
    count as integers."""
    build = make_builder(kind)[1]
    for bad in NOT_U64_KEYS + NOT_SORTED_KEYS:
        with pytest.raises(InvalidKeySetError):
            build(bad)
    d = build(np.array([0, 7, 2**64 - 1], dtype=np.uint64))
    assert d.rank_search(7) == (1, True)
    assert d.rank_search(2**64 - 1) == (2, True)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_checks_the_keys(entry, tmp_path):
    call, sorted_only = ENTRY_POINTS[entry]
    for bad in NOT_U64_KEYS + (NOT_SORTED_KEYS if sorted_only else []):
        with pytest.raises(InvalidKeySetError):
            call(bad, tmp_path)
    call([np.uint64(0), 7, 2**64 - 1], tmp_path)


# One table of bad queries for every structure that answers a query.  A
# query is a Python or numpy integer; anything else fails everywhere, an
# integral float and a digit string too.
NOT_INTEGER_QUERIES = [301.5, np.float64(3.0), "7", None, b"1"]

# structure -> its query call over a key set
QUERY_ENTRY_POINTS = {
    **{kind: (lambda keys, kind=kind: make_builder(kind)[1](keys).rank_search)
       for kind in DICTIONARY_IDS},
    "binned": lambda keys: build_binning(keys, 100, "bbs").rank_search,
    "segmented": lambda keys: build_segments(keys, 16, "bbs").rank_search,
    "DynamicBinDict": lambda keys: DynamicBinDict(keys, 64).rank_search,
    "bin_index": lambda keys: partial(bin_index, keys, 4),
}


@pytest.mark.parametrize("entry", QUERY_ENTRY_POINTS)
def test_every_structure_refuses_a_query_that_is_not_an_integer(entry):
    """Over the keys 0, 3, ..., 2997, each bad query raises
    ``DictboostError``, and a numpy integer gets the Python int's answer."""
    query = QUERY_ENTRY_POINTS[entry](SortedKeySet(range(0, 3000, 3)))
    for bad in NOT_INTEGER_QUERIES:
        with pytest.raises(DictboostError, match="not an integer"):
            query(bad)
    for x in (300, 301, 2997):
        assert query(np.int64(x)) == query(np.uint64(x)) == query(x), x


@pytest.mark.parametrize("kind", ["bbs", "bfs", "is", "css"])
def test_plain_build_reads_the_key_sets_view(kind):
    """A plain build from a key set searches that key set's buffer through
    a read-only view; a plain build from a list gets a key set of its own,
    so changing the list later changes nothing."""
    keys = SortedKeySet(TEN_KEYS)
    d = make_builder(kind)[1](keys)
    assert isinstance(d._keys, memoryview) and d._keys.readonly
    assert d._keys.obj is keys.array
    source = list(TEN_KEYS)
    d = make_builder(kind)[1](source)
    source[:] = range(len(source))
    assert_matches_oracle(d, TEN_KEYS, mixed_queries(SortedKeySet(TEN_KEYS), 100, seed=3))


@given(
    keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64, unique=True),
    probes=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32),
)
@settings(max_examples=120, deadline=None)
def test_all_kinds_agree_with_each_other(keys, probes):
    keys = sorted(keys)
    dicts = [make_builder(s)[1](keys) for s in ALL_SPECS]
    for x in probes + keys[::7]:
        outcomes = {tuple(d.rank_search(x)) for d in dicts}
        assert len(outcomes) == 1, f"x={x} split the field: {outcomes}"


# ---------------------------------------------------------------------------
# branch-free binary search


class _ProbeCountingList(list):
    """A key list that counts the reads a search makes of it."""

    probes = 0

    def __getitem__(self, i):
        self.probes += 1
        return super().__getitem__(i)


class TestUniformBinarySearch:
    def test_step_count_is_ceil_log2_n(self):
        """Every query must take exactly the same number of halvings:
        ceil(log2 n) probes, one for the final comparison, and one more
        for the found flag unless the rank is n."""
        for n in list(range(1, 40)) + [64, 100, 1000]:
            plain = list(range(0, 2 * n, 2))
            keys = _ProbeCountingList(plain)
            d = UniformBinarySearch(keys, [0, n])
            halvings = math.ceil(math.log2(n)) if n > 1 else 0
            for x in [-1, 0, 1, n, 2 * n - 2, 2 * n - 1, 2 * n + 5]:
                want = sum(v < x for v in plain)
                keys.probes = 0
                assert d.rank_search(x) == (want, x in plain), f"n={n} x={x}"
                assert keys.probes == halvings + 1 + (want < n), f"n={n} x={x}"


# ---------------------------------------------------------------------------
# layouts


class TestEytzinger:
    def test_frozen_layout_of_small_powers(self):
        """The layout is a read-only uint64 buffer in Eytzinger order, and
        the rank table beside it a uint8 buffer of each slot's rank."""
        for keys, layout in [
            ([1, 2, 3], [2, 1, 3]),
            (list(range(1, 8)), [4, 2, 6, 1, 3, 5, 7]),
            (list(range(1, 16)), [8, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15]),
        ]:
            d = EytzingerSearch.build(keys)
            assert d._layout.readonly and d._ranks.readonly
            assert np.asarray(d._layout).dtype == np.uint64
            assert np.asarray(d._ranks).dtype == np.uint8
            assert d._layout.tolist() == layout
            assert d._ranks.tolist() == [x - 1 for x in layout]

    def test_inorder_walk_recovers_sorted_keys(self):
        for n in [1, 2, 3, 6, 7, 12, 15, 31, 100]:
            keys = list(range(10, 10 + 3 * n, 3))
            d = EytzingerSearch.build(keys)
            assert [d._layout[i] for i in d.inorder_positions()] == keys

    def test_is_the_block_tree_at_block_one(self):
        for n in range(1, 71):
            keys = list(range(3, 3 + 7 * n, 7))
            e, b = EytzingerSearch.build(keys), BlockTreeSearch.build(keys, block=1)
            assert e._layout == b._layout, f"n={n}"
            assert e._ranks == b._ranks, f"n={n}"
            assert list(e.inorder_positions()) == list(b.inorder_positions()), f"n={n}"

    def test_rank_table_is_the_overhead(self):
        """The layout and the rank table are the overhead: 8 bytes a slot
        for the layout and 1 for the rank, a uint8 at 10 keys, beyond the
        key set's 8 bytes a key."""
        d = EytzingerSearch.build(TEN_KEYS)
        assert d.overhead_bytes() == held_bytes(d._layout.obj, d._ranks.obj) == 90
        assert d.space_bytes() == 80 + 90


class TestBlockTree:
    def test_inorder_walk_recovers_sorted_keys(self):
        for n in [1, 2, 5, 8, 9, 27, 64, 100]:
            for block in [1, 2, 3, 8]:
                keys = list(range(7, 7 + 5 * n, 5))
                d = BlockTreeSearch.build(keys, block=block)
                assert len(d._layout) == n, f"n={n} block={block}"
                walked = [d._layout[i] for i in d.inorder_positions()]
                assert walked == keys, f"n={n} block={block}"

    def test_block_must_be_positive(self):
        with pytest.raises(DictboostError):
            BlockTreeSearch.build([1, 2], block=0)

    def test_space_counts_padding_and_ranks(self):
        """No padding: a partial last block holds just its keys."""
        d = BlockTreeSearch.build([1, 2, 3], block=8)
        # layout [1, 2, 3] as uint64 and rank table [0, 1, 2] as uint8
        assert d._layout.tolist() == [1, 2, 3] and d._ranks.tolist() == [0, 1, 2]
        assert d.overhead_bytes() == held_bytes(d._layout.obj, d._ranks.obj) == 3 * 8 + 3
        assert d.space_bytes() == 8 * 3 + 27


class TestCssTree:
    def test_separator_levels_shrink_by_fanout(self):
        keys = list(range(0, 2 * 300, 2))
        d = CssTreeSearch.build(keys, fanout=4)
        sizes = [len(lv) for lv in d._levels[0]]
        assert sizes == [75, 19, 5, 2]
        # every separator is the max of its group in the level below
        below = keys
        for lv in d._levels[0]:
            assert lv == [max(below[i:i + 4]) for i in range(0, len(below), 4)]
            below = lv

    def test_small_set_needs_no_levels(self):
        d = CssTreeSearch.build(list(range(16)), fanout=16)
        assert d._levels == {}
        assert d.overhead_bytes() == sys.getsizeof({})  # the empty dict of levels

    def test_fanout_must_be_at_least_two(self):
        with pytest.raises(DictboostError):
            CssTreeSearch.build([1, 2, 3], fanout=1)


# ---------------------------------------------------------------------------
# splay tree


class TestSplayTree:
    def test_access_moves_the_key_to_the_root(self):
        d = SplayTreeDictionary.build(list(range(0, 100, 2)))
        d.rank_search(40)
        assert d._roots[0].key == 40
        d.rank_search(41)  # miss: the last touched node gets splayed
        assert d._roots[0].key in (40, 42)
        d.check_integrity()

    def test_balanced_build_then_queries_stay_consistent(self):
        keys = list(range(0, 4096, 4))
        d = SplayTreeDictionary.build(keys)
        assert_matches_oracle(d, keys, mixed_queries(np.asarray(keys, np.uint64), 500, seed=3))
        d.check_integrity()

    def test_node_space_accounting(self):
        """A node and its key's int per key, and the dict of the one
        window's root under its start rank 0."""
        d = SplayTreeDictionary.build([1, 2, 3])
        nodes = 3 * sys.getsizeof(_Node(0)) + sum(map(sys.getsizeof, [1, 2, 3]))
        roots = sys.getsizeof({0: None}) + sys.getsizeof(0)
        assert d.space_bytes() == 8 * 3 + nodes + roots
