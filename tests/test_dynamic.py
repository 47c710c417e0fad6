"""Dynamic binned dictionary: range widening, the three rebuild triggers,
conservative gap bounds and the amortized cost ledger.

Trigger isolation relies on two constructions used throughout:

* a set containing a gap of exactly 1 next to a bounded largest gap can
  never fire the ratio trigger under pure interior inserts (integer gaps
  cannot drop below 1, splitting cannot grow the maximum), so only the
  update-count rule fires;
* an equally spaced set starts at ratio 1, so midpoint inserts drive the
  ratio up and exercise the doubling rule.
"""

import importlib
import math
import random
import sys
from array import array
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from dictboost.binning import bin_index, bin_starts
from dictboost.core import MAX_KEY, DictboostError, InvalidKeySetError, SearchOutcome, SortedKeySet
from dictboost.dynamic import (
    _NO_GAP_MAX,
    _NO_GAP_MIN,
    DynamicBinDict,
    RankOutOfRangeError,
    RebuildTrigger,
    _Fenwick,
    build_dynamic,
)

from conftest import TEN_KEYS, bulk_rank, reachable_bytes

EMPTY_ARRAY_BYTES = sys.getsizeof(array("Q"))



def _u64_extremes():
    """Both u64 ends, 2**63 and 30 random keys between."""
    rng = random.Random(23)
    inner = {rng.randrange(3, MAX_KEY - 1) for _ in range(30)}
    return sorted({0, 1, 2, 2**63, MAX_KEY - 1, MAX_KEY} | inner)


U64_EXTREMES = _u64_extremes()


def fresh_interior_keys(present, count, lo, hi, seed):
    """``count`` keys strictly inside (lo, hi) and absent from ``present``."""
    rng = random.Random(seed)
    taken = set(present)
    out = []
    while len(out) < count:
        x = rng.randrange(lo + 1, hi)
        if x not in taken:
            taken.add(x)
            out.append(x)
    return out


def bin_sizes(d):
    """Keys per bin, counted by walking each bin's array."""
    return [sum(1 for _ in keys) if keys is not None else 0 for keys in d._bins]


def assert_fresh_bins(d, mirror):
    """Every non-empty bin is exact-size, 8 bytes a key and no spare slot,
    and the bins in order hold the mirror's keys."""
    for b, keys in enumerate(d._bins):
        if keys:
            assert sys.getsizeof(keys) - EMPTY_ARRAY_BYTES == 8 * len(keys), f"bin {b}: {len(keys)} keys"
    assert [x for keys in d._bins if keys is not None for x in keys] == mirror


def has_slack(d):
    return any(sys.getsizeof(keys) - EMPTY_ARRAY_BYTES > 8 * len(keys) for keys in d._bins if keys)


def assert_keys_in_their_bins(d):
    """Every key sits in the bin the geometry's ``bin_of`` names, and the
    Fenwick tree counts each bin's keys."""
    for b, held in enumerate(d._bins):
        keys = list(held) if held is not None else []
        assert all(d._geometry.bin_of(x) - 1 == b for x in keys), f"bin {b}: {keys}"
        assert d._fenwick.prefix(b + 1) - d._fenwick.prefix(b) == len(keys)
    assert d._fenwick.prefix(d.k) == len(d)


class TestConstruction:
    def test_range_widening_of_the_running_example(self):
        # gap ratio 421/12; extension = ceil(892 * 421/12) = 31295
        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=8)
        assert d.delta_hat == Fraction(421, 12)
        assert d.range_lo == 47 - 31295 == -31248
        assert d.range_hi == 939 + 31295 == 32234
        assert d.initial_delta_hat == Fraction(421, 12)

    def test_needs_two_keys_and_positive_k(self):
        with pytest.raises(DictboostError):
            DynamicBinDict(SortedKeySet([1]), k=4)
        with pytest.raises(DictboostError):
            DynamicBinDict(SortedKeySet([1, 2]), k=0)

    def test_build_dynamic_accepts_plain_iterables(self):
        d = build_dynamic([30, 10, 20], k=2)
        assert list(d) == [10, 20, 30]

    @pytest.mark.parametrize("keys, reason", [
        ([-5, 3], "must lie in"),
        ([1, 2**64], "must lie in"),
        (["a", "b"], "must be integers"),
        ([1.5, 3], "must be integers"),
        ([1, 1, 2], "must be distinct"),
    ], ids=["negative", "above-u64", "strings", "float", "duplicate"])
    @pytest.mark.parametrize("build", [DynamicBinDict, build_dynamic])
    def test_bad_plain_iterables_raise_invalid_key_set(self, build, keys, reason):
        with pytest.raises(InvalidKeySetError, match=reason):
            build(keys, 2)


class TestBinCut:
    @pytest.mark.parametrize("k", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("keys", [
        TEN_KEYS,
        [0, 1],
        [0, MAX_KEY],
        [0, 1, 2, 3, 4, 1000],
        list(range(0, 64 * 20, 64)),
        [5, 6, 2**63, MAX_KEY - 1, MAX_KEY],
    ], ids=["ten", "pair", "u64-hull", "dense-run", "even", "u64-extremes"])
    def test_every_key_in_the_bin_bin_of_names_after_a_build(self, keys, k):
        d = DynamicBinDict(keys, k)
        assert list(d) == sorted(keys)
        assert_keys_in_their_bins(d)

    def test_every_key_in_the_bin_bin_of_names_after_each_rebuild(self):
        d = DynamicBinDict([0, 1] + list(range(10, 101, 10)), k=8)
        for x in fresh_interior_keys(list(d), 6, 10, 100, seed=1):
            d.insert(x)
        assert d.ledger.events[-1].trigger is RebuildTrigger.UPDATE_COUNT
        assert_keys_in_their_bins(d)

        d = DynamicBinDict([0, 10, 11, 21], k=4)
        d.delete(11)
        assert d.ledger.events[-1].trigger is RebuildTrigger.DELTA_GROWTH
        assert_keys_in_their_bins(d)

        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=8)
        d.insert(MAX_KEY)
        assert d.ledger.events[-1].trigger is RebuildTrigger.OUT_OF_RANGE
        assert_keys_in_their_bins(d)


class TestSharedBinCut:
    """The dynamic bins are the static model's bins of the key hull: for
    k <= n they hold the windows ``bin_starts`` cuts, and the geometry's
    ``bin_of`` is ``bin_index`` inside the hull and the nearest edge bin
    outside it."""

    KEY_SETS = pytest.mark.parametrize(
        "keys", [TEN_KEYS, U64_EXTREMES], ids=["ten", "u64-extremes"]
    )
    BIN_COUNTS = pytest.mark.parametrize("k", [1, 3, 7, "n"])

    @staticmethod
    def _build(keys, k):
        sk, k = SortedKeySet(keys), len(keys) if k == "n" else k
        return sk, k, DynamicBinDict(sk, k)

    @KEY_SETS
    @BIN_COUNTS
    def test_bins_hold_the_bin_starts_windows(self, keys, k):
        sk, k, d = self._build(keys, k)
        starts = bin_starts(sk, k).tolist()
        assert [list(held) if held is not None else [] for held in d._bins] == [
            keys[starts[b]:starts[b + 1]] for b in range(k)
        ]
        assert_keys_in_their_bins(d)

    @KEY_SETS
    @BIN_COUNTS
    def test_bin_of_is_bin_index_inside_the_hull(self, keys, k):
        sk, k, d = self._build(keys, k)
        lo, hi = keys[0], keys[-1]
        if hi - lo < 10_000:
            probes = range(lo, hi + 1)
        else:
            rng = random.Random(29)
            probes = {lo, hi, *(rng.randrange(lo, hi) for _ in range(2000))}
            probes.update(y + dy for y in keys for dy in (-1, 0, 1))
            edges = [lo + (b * (hi - lo)) // k for b in range(k + 1)]
            probes.update(e + de for e in edges for de in (-1, 0, 1))
            probes = sorted(x for x in probes if lo <= x <= hi)
        for x in probes:
            assert d._geometry.bin_of(x) == bin_index(sk, k, x), x

    @KEY_SETS
    @BIN_COUNTS
    def test_bin_of_clamps_outside_the_hull_to_the_edge_bins(self, keys, k):
        sk, k, d = self._build(keys, k)
        lo, hi = keys[0], keys[-1]
        assert d.range_lo < lo and hi < d.range_hi
        for x in {d.range_lo, d.range_lo + 1, (d.range_lo + lo) // 2, lo - 1}:
            assert d._geometry.bin_of(x) - 1 == 0, x
        for x in {hi + 1, (hi + d.range_hi) // 2, d.range_hi - 1, d.range_hi}:
            assert d._geometry.bin_of(x) - 1 == k - 1, x



class TestHullGeometry:
    @pytest.mark.parametrize("k", [2, 3, 7, 64, 256, 1000])
    def test_evenly_spaced_keys_put_one_key_in_each_bin(self, k):
        keys = list(range(0, 64 * k, 64))
        d = DynamicBinDict(keys, k)
        assert [list(held) for held in d._bins] == [[x] for x in keys]
        assert d.occupancy() == (k, 1)

    @pytest.mark.parametrize("x, edge", [
        (939 + 421, 7),  # above the hull; a gap of 421 keeps the ratio at delta_hat
        (1000, 7),
        (0, 0),  # below the hull's low end 47
        (35, 0),  # a gap of 12 keeps the smallest gap
    ])
    def test_margin_key_goes_to_the_edge_bin_without_a_rebuild(self, x, edge):
        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=8)
        assert d.range_lo < x < TEN_KEYS[0] or TEN_KEYS[-1] < x < d.range_hi
        assert d._geometry.bin_of(x) - 1 == edge
        assert d.insert(x) is True
        assert d.ledger.count() == 0
        assert x in list(d._bins[edge])
        assert_keys_in_their_bins(d)
        mirror = sorted(TEN_KEYS + [x])
        probes = {d.range_lo, d.range_hi, 0, 2**20}
        probes.update(y + dy for y in mirror for dy in (-1, 0, 1))
        for y in sorted(p for p in probes if p >= 0):
            pos = bisect_left(mirror, y)
            want = (pos, pos < len(mirror) and mirror[pos] == y)
            assert d.rank_search(y) == want, y
        assert [d.select(j) for j in range(len(d))] == mirror
        assert d.delete(x) is True
        assert list(d) == TEN_KEYS

    def test_bin_map_is_monotone_across_the_widened_range(self):
        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=8)
        xs = sorted({d.range_lo, d.range_hi, *range(d.range_lo, d.range_hi + 1, 97),
                     *(y + dy for y in TEN_KEYS for dy in (-1, 0, 1))})
        bins = [d._geometry.bin_of(x) - 1 for x in xs]
        assert bins == sorted(bins)
        assert bins[0] == 0 and bins[-1] == d.k - 1

    def test_dynamic_mixed_shape_keeps_half_the_bins_occupied(self):
        """20k uniform keys in [0, 2^40) and k = 256, the shape the
        dynamic benchmark runs: at least k/2 bins hold keys at the build
        and after every rebuild of a 1:1:2 stream."""
        from dictboost import gen_uniform
        from dictboost.streams import OP_DELETE, OP_INSERT, gen_uniform_stream

        k = 256
        keys = gen_uniform(20_000, 2**40, seed=11)
        stream = gen_uniform_stream(keys, 100_000, (1.0, 1.0, 2.0), seed=12)
        d = DynamicBinDict(keys, k)
        occupied = [sum(1 for c in bin_sizes(d) if c)]
        for op, x in stream.ops:
            before = d.ledger.count()
            if op == OP_INSERT:
                d.insert(x)
            elif op == OP_DELETE:
                d.delete(x)
            if d.ledger.count() != before:
                occupied.append(sum(1 for c in bin_sizes(d) if c))
        assert d.ledger.count(RebuildTrigger.UPDATE_COUNT) >= 2
        assert len(occupied) == d.ledger.count() + 1
        assert min(occupied) >= k // 2, occupied

    def test_occupancy_counts_non_empty_bins_and_the_largest(self):
        d = DynamicBinDict([0, 1, 2, 3, 4, 1000], k=4)
        sizes = bin_sizes(d)
        assert sizes == [5, 0, 0, 1]
        assert d.occupancy() == (2, 5)
        d = DynamicBinDict(list(range(0, 64 * 8, 64)), k=8)
        assert d.delete(0) and d.ledger.count() == 0  # an edge delete merges no gap
        assert d._bins[0] is not None and bin_sizes(d)[0] == 0
        assert d.occupancy() == (7, 1)


class TestFenwick:
    @staticmethod
    def check(counts):
        fw = _Fenwick(counts)
        by_adds = _Fenwick([0] * len(counts))  # the fill as one add per bin
        for i, c in enumerate(counts):
            by_adds.add(i, c)
        assert fw._tree == by_adds._tree
        prefix = [0, *accumulate(counts)]
        assert [fw.prefix(i) for i in range(len(counts) + 1)] == prefix
        for j in range(prefix[-1]):
            b = bisect_right(prefix, j) - 1
            assert fw.select(j) == (b, j - prefix[b])

    @pytest.mark.parametrize("seed", range(5))
    def test_prefix_and_select_match_accumulate(self, seed):
        import random

        rng = random.Random(seed)
        for k in [1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 100, 255, 256, 257, 300]:
            self.check([rng.randrange(4) for _ in range(k)])
            # mostly empty: a few non-empty bins among many
            sparse = [0] * k
            for _ in range(rng.randrange(1, 4)):
                sparse[rng.randrange(k)] += rng.randrange(1, 6)
            self.check(sparse)
            self.check([0] * k)

    def test_adds_after_the_fill(self):
        import random

        rng = random.Random(7)
        counts = [0] * 300
        counts[5], counts[299] = 3, 1
        fw = _Fenwick(counts)
        for _ in range(500):
            i = rng.randrange(300)
            delta = rng.choice([1, -1]) if counts[i] else 1
            counts[i] += delta
            fw.add(i, delta)
        assert fw._tree == _Fenwick(counts)._tree
        self.check(counts)

    def test_fill_accepts_a_numpy_array(self):
        counts = [0, 2, 0, 0, 5, 1, 0]
        assert _Fenwick(np.array(counts, dtype=np.int64))._tree == _Fenwick(counts)._tree


class TestQueries:
    def test_search_insert_search(self):
        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=8)
        assert d.rank_search(700) == SearchOutcome(8, False)
        assert d.insert(700) is True
        assert d.rank_search(700) == SearchOutcome(8, True)
        assert d.rank_search(701) == SearchOutcome(9, False)
        assert len(d) == 11

    def test_reads_leave_the_bins_unchanged(self):
        """Reads answer like a bisect mirror and leave every bin's contents
        as they were, in one bin and in several."""
        keys = list(range(0, 1000, 10))
        for k in (1, 7):
            d = DynamicBinDict(SortedKeySet(keys), k=k)
            before = [None if b is None else list(b) for b in d._bins]
            for x in (30, 980, 500, 30, 975, 975, 0, 990, -1, 5000):
                pos = bisect_left(keys, x)
                assert d.rank_search(x) == (pos, pos < len(keys) and keys[pos] == x), x
            assert [d.select(j) for j in range(len(keys))] == keys
            assert [None if b is None else list(b) for b in d._bins] == before
            assert list(d) == keys

    def test_select_tracks_sorted_contents(self):
        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=4)
        d.insert(200)
        d.delete(819)
        want = sorted(set(TEN_KEYS) - {819} | {200})
        assert [d.select(j) for j in range(len(d))] == want
        assert list(d) == want
        with pytest.raises(IndexError):
            d.select(len(d))

    def test_rank_search_agrees_with_oracle_during_churn(self):
        import random

        rng = random.Random(99)
        d = DynamicBinDict(SortedKeySet([0, 10**6]), k=16)
        mirror = [0, 10**6]
        for _ in range(2000):
            x = rng.randrange(0, 10**6 + 1)
            r = rng.random()
            if r < 0.5:
                changed = d.insert(x)
                assert changed == (x not in mirror)
                if changed:
                    mirror.append(x)
                    mirror.sort()
            elif r < 0.75 and len(mirror) > 2:
                victim = mirror[rng.randrange(len(mirror))]
                assert d.delete(victim) is True
                mirror.remove(victim)
            else:
                ranks, found = bulk_rank(np.asarray(mirror, np.uint64), [x])
                assert d.rank_search(x) == (int(ranks[0]), bool(found[0]))
        assert list(d) == mirror


class TestPackedBins:
    """Each non-empty bin is a sorted ``array('Q')``: 8 bytes a key, and
    the u64 range check on insert guards what the array can hold."""

    @pytest.mark.parametrize("n, k", [(20_000, 256), (500, 4096)], ids=["dynamic-mixed", "k-above-n"])
    def test_space_is_eight_bytes_a_key_and_a_fixed_cost_per_bin(self, n, k):
        """A ``sys.getsizeof`` walk over everything the structure refers
        to, after the build and after a stream of rebuilds, reaches
        no more than 8 bytes a key and 256 bytes a bin."""
        from dictboost import gen_uniform
        from dictboost.streams import OP_DELETE, OP_INSERT, gen_uniform_stream

        keys = gen_uniform(n, 2**40, seed=11)
        d = DynamicBinDict(keys, k)
        assert reachable_bytes(d) <= 8 * len(d) + 256 * k
        for op, x in gen_uniform_stream(keys, 3 * n // 2, seed=3).ops:
            if op == OP_INSERT:
                d.insert(x)
            elif op == OP_DELETE:
                d.delete(x)
        assert d.ledger.count() >= 2
        assert {type(b) for b in d._bins} <= {array, type(None)}
        assert {b.typecode for b in d._bins if b is not None} == {"Q"}
        assert reachable_bytes(d) <= 8 * len(d) + 256 * k

    @pytest.mark.parametrize("k", [1, 4, 64])
    def test_u64_ends_in_packed_bins(self, k):
        d = DynamicBinDict([10, 20, 2**40], k)
        mirror = [10, 20, 2**40]
        for x in (0, MAX_KEY):
            assert d.insert(x) is True
            insort(mirror, x)
        assert list(d) == mirror and [d.select(j) for j in range(len(d))] == mirror
        for x in (-1, 0, 1, 10, MAX_KEY - 1, MAX_KEY, 2**64, 2**70):
            pos = bisect_left(mirror, x)
            assert d.rank_search(x) == (pos, pos < len(mirror) and mirror[pos] == x), x
        updates = d.total_updates
        for x in (-1, 2**64):
            with pytest.raises(DictboostError, match="not an integer in the u64 range"):
                d.insert(x)
            assert list(d) == mirror and len(d) == len(mirror)
            assert d.total_updates == updates

    @pytest.mark.parametrize("x", [2**60 + 3, 2**60 - 2, MAX_KEY])
    def test_an_out_of_range_key_lands_in_order_past_float_precision(self, x):
        """Keys 1 apart at 2^60 share one float64, so placing the rebuild's
        extra key by a float search would put ``2^60 + 3`` first."""
        d = DynamicBinDict([2**60, 2**60 + 1], k=2)
        assert not d.range_lo <= x <= d.range_hi
        assert d.insert(x) is True
        assert d.ledger.count(RebuildTrigger.OUT_OF_RANGE) == 1
        assert list(d) == sorted([2**60, 2**60 + 1, x])
        assert_keys_in_their_bins(d)

    def test_a_strided_key_set_builds_and_searches(self):
        """A read-only strided array is kept as it is by ``SortedKeySet``;
        the build fills the bins from it all the same."""
        arr = np.arange(0, 3000, 7, dtype=np.uint64)[::3]
        arr.setflags(write=False)
        sk = SortedKeySet(arr)
        assert not sk.view.contiguous
        keys = arr.tolist()
        for k in (1, 17, 1000):
            d = DynamicBinDict(sk, k)
            assert list(d) == keys
            assert_keys_in_their_bins(d)
            for x in range(-1, 3010):
                pos = bisect_left(keys, x)
                assert d.rank_search(x) == (pos, pos < len(keys) and keys[pos] == x), x
            assert d.insert(1) and d.delete(keys[-1])
            assert list(d) == [keys[0], 1, *keys[1:-1]]

    def test_a_drained_structure_rebuilds_empty_and_fills_again(self):
        d = DynamicBinDict([5, 9], k=4)
        assert d.delete(5) and d.delete(9)
        assert d.ledger.count() == 2 and d.ledger.events[-1].elements_touched == 0
        assert len(d) == 0 and list(d) == [] and d.rank_search(7) == (0, False)
        assert d.insert(7) and d.insert(3)
        assert list(d) == [3, 7] and d.rank_search(7) == (1, True)

    def test_an_emptied_structure_answers_rank_0(self):
        """Deleting every key rebuilds down to 0 keys, where the bins are
        cut over the hull ``[0, 0]``: every query, also one outside the u64
        range, answers ``(0, False)``, ``select`` has no rank to give, and
        a later insert answers as a bisect mirror does."""
        keys = [3, 9, 20, 21, 40, 77, 1000]
        d = DynamicBinDict(keys, k=64)
        for x in keys:
            assert d.delete(x)
        assert [e.elements_touched for e in d.ledger.events] == [4, 2, 1, 0]
        for x in (-1, 0, 5, MAX_KEY, 2**70):
            assert d.rank_search(x) == (0, False), x
        with pytest.raises(RankOutOfRangeError):
            d.select(0)
        mirror = [500]
        assert d.insert(500)
        for x in (-1, 0, 499, 500, 501, MAX_KEY, 2**70):
            r = bisect_left(mirror, x)
            assert d.rank_search(x) == (r, r < len(mirror) and mirror[r] == x), x


class TestExactSizeBins:
    """A build or rebuild copies the sorted keys once into one packed
    array and cuts each non-empty bin as a slice of it: an exact-size
    copy, so a fresh bin holds no growth slack."""

    def test_a_build_cuts_exact_size_bins(self):
        from dictboost import gen_uniform

        keys = gen_uniform(20_000, 2**40, seed=11)  # the dynamic-mixed shape
        for k in (1, 256, 4096):
            assert_fresh_bins(DynamicBinDict(keys, k), keys.as_list())
        strided = np.arange(0, 3000, 7, dtype=np.uint64)[::3]
        strided.setflags(write=False)
        assert_fresh_bins(DynamicBinDict(SortedKeySet(strided), 17), strided.tolist())

    def test_an_update_count_rebuild_trims_the_grown_bins(self):
        # gaps {1, 9, 10}: the ratio bound stays at 10, so only update-count fires
        mirror = [0, 1] + list(range(10, 1001, 10))
        d = DynamicBinDict(SortedKeySet(mirror), k=8)
        fills = fresh_interior_keys(mirror, len(mirror) // 2, lo=10, hi=1000, seed=5)
        for x in fills:
            assert d.insert(x)
            insort(mirror, x)
            if not d.ledger.count():
                assert has_slack(d)  # an insert grows its bin with spare slots
        assert [e.trigger for e in d.ledger.events] == [RebuildTrigger.UPDATE_COUNT]
        assert_fresh_bins(d, mirror)

    def test_a_gap_ratio_rebuild_cuts_exact_size_bins(self):
        # equal spacing 64 -> ratio 1; inserting one midpoint makes it 2
        mirror = list(range(0, 64 * 20, 64))
        d = DynamicBinDict(SortedKeySet(mirror), k=8)
        assert d.insert(32)
        insort(mirror, 32)
        assert [e.trigger for e in d.ledger.events] == [RebuildTrigger.DELTA_GROWTH]
        assert_fresh_bins(d, mirror)

    @pytest.mark.parametrize("x", [0, 10**12, MAX_KEY])
    def test_an_out_of_range_rebuild_cuts_exact_size_bins(self, x):
        # gaps {1, 9, 10}: the two inserts below fire neither other trigger
        lo = 10**6
        mirror = [lo, lo + 1] + list(range(lo + 10, lo + 1000, 10))
        d = DynamicBinDict(SortedKeySet(mirror), k=8)
        for y in (lo + 505, lo + 507):
            assert d.insert(y)
            insort(mirror, y)
        assert d.ledger.count() == 0 and has_slack(d)
        assert d.insert(x)
        insort(mirror, x)
        assert [e.trigger for e in d.ledger.events] == [RebuildTrigger.OUT_OF_RANGE]
        assert_fresh_bins(d, mirror)

    def test_a_drained_structure_refills_with_exact_size_bins(self):
        mirror = list(range(100, 1100, 10))
        d = DynamicBinDict(SortedKeySet(mirror), k=16)
        rng = random.Random(8)
        for x in rng.sample(mirror, len(mirror)):
            rebuilds = d.ledger.count()
            assert d.delete(x)
            mirror.remove(x)
            if d.ledger.count() > rebuilds:
                assert_fresh_bins(d, mirror)
        assert len(d) == 0 and all(keys is None for keys in d._bins)
        drained = d.ledger.count()
        for x in fresh_interior_keys([], 300, lo=0, hi=10**6, seed=9):
            rebuilds = d.ledger.count()
            assert d.insert(x)
            insort(mirror, x)
            if d.ledger.count() > rebuilds:
                assert_fresh_bins(d, mirror)
        refills = d.ledger.events[drained:]
        assert len(refills) >= 3 and refills[0].trigger is RebuildTrigger.OUT_OF_RANGE
        assert_keys_in_their_bins(d)
        assert list(d) == mirror


class TestSelectErrors:
    """``select`` admits its rank as ``insert``, ``delete`` and
    ``rank_search`` admit a key, and refuses a rank outside ``[0, len)``
    with an error that is both a ``DictboostError`` and an ``IndexError``."""

    @pytest.mark.parametrize("j", [1.0, 1.5, "1", None], ids=["float", "fraction", "str", "none"])
    def test_a_non_integer_rank_raises(self, j):
        d = DynamicBinDict([1, 2, 4, 8], k=2)
        with pytest.raises(DictboostError, match="not an integer") as raised:
            d.select(j)
        assert not isinstance(raised.value, TypeError)

    @pytest.mark.parametrize("j", [-1, 4, np.int64(-1), np.int64(4), 2**64],
                             ids=["minus-one", "len", "np-minus-one", "np-len", "u64-end"])
    def test_an_out_of_range_rank_raises_one_class(self, j):
        d = DynamicBinDict([1, 2, 4, 8], k=2)
        with pytest.raises(RankOutOfRangeError, match="out of range") as raised:
            d.select(j)
        assert isinstance(raised.value, DictboostError) and isinstance(raised.value, IndexError)

    def test_numpy_ranks_select_like_ints(self):
        d = DynamicBinDict([1, 2, 4, 8], k=2)
        for j in range(len(d)):
            for typed in (np.int64(j), np.uint64(j), np.int32(j)):
                got = d.select(typed)
                assert got == d.select(j) == [1, 2, 4, 8][j] and type(got) is int


class TestProbeTypes:
    """A numpy integer probe answers like the same Python int; below the
    hull its ``uint64`` arithmetic would wrap into a high bin."""

    def test_numpy_probe_below_the_hull_gets_rank_zero(self):
        base = 10**12
        d = DynamicBinDict([base, base + 10, base + 30, base + 1000], k=4)
        x = base - 500
        assert d.range_lo < x
        assert d.rank_search(x) == SearchOutcome(0, False)
        assert d.rank_search(np.uint64(x)) == SearchOutcome(0, False)

    @staticmethod
    def _below_the_hull(seed):
        rng = random.Random(seed)
        base = 10**12
        keys = sorted(rng.sample(range(base, base + 2**30), 2000))
        d = DynamicBinDict(keys, k=1024)
        assert d.range_lo < 0
        probes = sorted(rng.sample(range(0, base), 300))
        return keys, d, probes

    def test_numpy_probes_below_the_hull_rank_search_like_ints(self):
        keys, d, probes = self._below_the_hull(seed=41)
        for x in probes:
            assert d.rank_search(np.uint64(x)) == d.rank_search(x) == (0, False), x
        for x in keys[:50]:
            assert d.rank_search(np.uint64(x - 1)) == d.rank_search(x - 1)
            assert d.rank_search(np.uint64(x)) == d.rank_search(x)
        assert list(d) == keys

    def test_numpy_probes_below_the_hull_delete_like_ints(self):
        """Keys inserted into the margin below the hull, each by a gap of
        at least half the largest and at most the largest, so that no
        rebuild moves the hull under them; each is deleted again through a
        ``uint64`` probe.  The gaps are wider than ``span / k``, where a
        wrapped bin formula lands in the top bin."""
        keys, d, _ = self._below_the_hull(seed=43)
        g_max = d.gap_bounds[1]
        lo = keys[0]
        assert g_max // 2 > (keys[-1] - lo) // d.k
        margin = random.Random(47).sample(range(lo - g_max, lo - g_max // 2), 300)
        for x in margin:
            assert d.delete(np.uint64(x)) is False
            assert d.insert(x) is True
            assert d.rank_search(np.uint64(x)) == (0, True), x
            assert d.delete(np.uint64(x)) is True, x
            assert d.delete(np.uint64(x)) is False
        assert d.ledger.count() == 0 and d.total_updates == 600
        assert list(d) == keys
        assert {type(y) for y in d} == {int}

    @pytest.mark.parametrize("probe", [2.5, np.float64(3.0), "7", None, Fraction(3, 1)],
                             ids=["float", "np-float", "str", "none", "fraction"])
    def test_non_integral_probes_raise(self, probe):
        d = DynamicBinDict([1, 2, 4, 8], k=2)
        for op in (d.rank_search, d.delete, d.insert):
            with pytest.raises(DictboostError, match="not an integer"):
                op(probe)
        assert list(d) == [1, 2, 4, 8] and d.total_updates == 0


class TestUpdateCountTrigger:
    def test_exactly_one_rebuild_per_half_n_window(self):
        # gaps {1, 9, 10}: ratio bound stays at 10, so only update-count fires
        base = [0, 1] + list(range(10, 101, 10))
        d = DynamicBinDict(SortedKeySet(base), k=8)
        assert d.delta_hat == Fraction(10, 1)
        for window in range(4):
            n0 = d.n_at_rebuild
            before = d.ledger.count()
            need = max(1, n0 // 2)
            fills = fresh_interior_keys(list(d), need, lo=10, hi=100, seed=window)
            for i, x in enumerate(fills):
                assert d.insert(x)
                if i < need - 1:
                    assert d.ledger.count() == before, "rebuilt too early"
            assert d.ledger.count() == before + 1
            assert d.ledger.events[-1].trigger is RebuildTrigger.UPDATE_COUNT
            assert d.ledger.events[-1].elements_touched == len(d)
            assert d.updates_since_rebuild == 0

    def test_noop_inserts_do_not_advance_the_counter(self):
        base = [0, 1] + list(range(10, 101, 10))
        d = DynamicBinDict(SortedKeySet(base), k=4)
        for _ in range(50):
            assert d.insert(50) is False
        assert d.total_updates == 0
        assert d.ledger.count() == 0

    def test_deletes_count_as_updates(self):
        # a dense run next to one huge gap: merging run members never gets
        # anywhere near the 89-wide gap, so the ratio rule stays quiet
        base = [0, 1] + list(range(100, 112))
        d = DynamicBinDict(SortedKeySet(base), k=4)  # n=14, threshold 7
        victims = [101, 102, 103, 104, 105, 106, 107]
        for i, v in enumerate(victims):
            assert d.delete(v) is True
            assert d.ledger.count() == (1 if i == len(victims) - 1 else 0)
        assert d.ledger.events[0].trigger is RebuildTrigger.UPDATE_COUNT
        assert list(d) == [0, 1, 100, 108, 109, 110, 111]


class TestDeltaGrowthTrigger:
    def test_gap_merge_on_delete_fires_the_ratio_rule(self):
        # gaps {10, 1, 10}: deleting 11 merges to a gap of 11 > delta_hat 10
        d = DynamicBinDict(SortedKeySet([0, 10, 11, 21]), k=4)
        assert d.delta_hat == Fraction(10, 1)
        assert d.delete(11) is True
        assert d.ledger.count(RebuildTrigger.DELTA_GROWTH) == 1
        # doubling floor: new estimate is max(exact 11/10, 2 * 10) = 20
        assert d.delta_hat == Fraction(20, 1)
        assert d.delta_max == 20.0
        assert list(d) == [0, 10, 21]

    def test_midpoint_insert_fires_after_halving_the_min_gap(self):
        # equal spacing 64 -> ratio 1; inserting one midpoint makes it 2
        base = list(range(0, 64 * 20, 64))
        d = DynamicBinDict(SortedKeySet(base), k=8)
        assert d.delta_hat == Fraction(1, 1)
        assert d.insert(32) is True
        assert d.ledger.count(RebuildTrigger.DELTA_GROWTH) == 1
        assert d.delta_hat >= Fraction(2, 1)

    def test_doubling_keeps_rebuild_count_logarithmic(self):
        """Drive the ratio from 1 to 1024 by midpoint halving; the ledger
        must stay within log2(delta_max / delta_0) + 1 ratio rebuilds."""
        base = list(range(0, 1024 * 17, 1024))
        d = DynamicBinDict(SortedKeySet(base), k=8)
        gaps = [(base[i], base[i + 1]) for i in range(len(base) - 1)]
        present = set(base)
        while gaps:
            a, b = gaps.pop()
            if b - a <= 1:
                continue
            mid = a + (b - a) // 2
            if mid not in present:
                d.insert(mid)
                present.add(mid)
            gaps.extend([(a, mid), (mid, b)])
        report = d.amortized_report()
        assert report.delta_max >= 2.0
        allowed = math.log2(report.delta_max / float(d.initial_delta_hat)) + 1
        assert report.rebuilds_delta_growth <= allowed
        assert sorted(present) == list(d)


class TestOutOfRangeTrigger:
    def test_far_insert_rebuilds_immediately(self):
        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=8)
        far = d.range_hi + 10**6
        assert d.insert(far) is True
        assert d.ledger.count(RebuildTrigger.OUT_OF_RANGE) == 1
        assert len(d) == 11
        assert d.select(10) == far
        assert d.range_hi >= far
        assert d.rank_search(far) == SearchOutcome(10, True)

    def test_out_of_range_delete_is_a_noop(self):
        d = DynamicBinDict(SortedKeySet(TEN_KEYS), k=8)
        assert d.delete(d.range_hi + 5) is False
        assert d.total_updates == 0
        assert d.ledger.count() == 0

    def test_keys_outside_u64_are_rejected(self):
        d = DynamicBinDict(SortedKeySet([10, 20]), k=2)
        with pytest.raises(DictboostError):
            d.insert(-1)
        with pytest.raises(DictboostError):
            d.insert(2**64)

    def test_insert_of_a_non_integer_is_rejected(self):
        d = DynamicBinDict([1, 2, 4], k=2)
        assert d.range_lo < 2.5 < d.range_hi
        with pytest.raises(DictboostError):
            d.insert(2.5)
        assert list(d) == [1, 2, 4] and d.total_updates == 0

    def test_insert_of_a_numpy_integer_stores_a_python_int(self):
        d = DynamicBinDict([100, 200, 400], k=4)
        assert d.insert(np.uint64(90))
        assert d.ledger.count(RebuildTrigger.UPDATE_COUNT) == 1
        # gaps 10..200 give delta_hat 20; the span 310 widens by 6200 a side
        assert (d.range_lo, d.range_hi) == (90 - 6200, 400 + 6200)
        assert d.insert(50) and d.ledger.count() == 1
        assert list(d) == [50, 90, 100, 200, 400]
        assert {type(x) for x in d} == {int}


class TestGapBounds:
    def test_bounds_are_conservative_envelopes(self):
        """The tracked (g_min, g_max) pair may be loose but must always
        bracket the true extremes."""
        import random

        rng = random.Random(31)
        d = DynamicBinDict(SortedKeySet([0, 2**20]), k=16)
        mirror = [0, 2**20]
        for _ in range(800):
            x = rng.randrange(0, 2**20 + 1)
            if rng.random() < 0.6:
                if d.insert(x) and x not in mirror:
                    mirror.append(x)
                    mirror.sort()
            elif len(mirror) > 2:
                victim = mirror[rng.randrange(len(mirror))]
                d.delete(victim)
                mirror.remove(victim)
            if len(mirror) >= 2:
                diffs = [b - a for a, b in zip(mirror, mirror[1:])]
                lo_bound, hi_bound = d.gap_bounds
                assert lo_bound <= min(diffs)
                assert hi_bound >= max(diffs)

    def test_amortized_report_is_consistent_with_the_ledger(self):
        d = DynamicBinDict(SortedKeySet([0, 1] + list(range(10, 101, 10))), k=4)
        for x in fresh_interior_keys(list(d), 40, 10, 100, seed=2):
            d.insert(x)
        rep = d.amortized_report()
        assert rep.total_updates == 40
        assert rep.elements_touched == d.ledger.total_touched
        assert rep.touches_per_update == pytest.approx(rep.elements_touched / 40)
        assert (
            rep.rebuilds_update_count
            + rep.rebuilds_delta_growth
            + rep.rebuilds_out_of_range
            == d.ledger.count()
        )
        assert rep.delta_max >= float(d.initial_delta_hat)


class TestBenchmarkStream:
    def test_the_dynamic_mixed_stream_replays_without_a_wrong_answer(self, monkeypatch):
        """The benchmark's gated ``dynamic-mixed`` stream at its default
        seed (20k keys, 256 bins, 150k ops), replayed once through the
        library and checked against the workload's own bisect mirror
        (``mirror_replay``, run by ``_prepare``)."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        dm = importlib.import_module("perfbench.dynamic_mixed")
        inp = dm._prepare(0)
        d = dm._setup(inp)
        answers = [op(x) for op, x in zip(dm._bound_ops(d, inp), inp.keys)]
        assert len(answers) == len(inp.expected) == dm.N_OPS
        assert dm.count_wrong(answers, inp.expected) == 0
        assert d.ledger.count(RebuildTrigger.UPDATE_COUNT) >= dm.MIN_UPDATE_COUNT_REBUILDS
        assert d.ledger.count(RebuildTrigger.OUT_OF_RANGE) == 0


_EDGE_KEYS = st.one_of(
    st.sampled_from([0, 1, 2**63, MAX_KEY - 1, MAX_KEY]),
    st.integers(0, 2000),
    st.integers(0, MAX_KEY),
)


class DynamicAgainstMirror(RuleBasedStateMachine):
    """Random inserts, deletes, rank searches and selections against a
    sorted list kept with ``bisect``.  Keys come from the u64 edges, from
    outside the widened range and from the middle of the smallest gap, and
    a drain rule deletes every key so that the structure runs empty and is
    filled again."""

    @initialize(keys=st.lists(_EDGE_KEYS, min_size=2, max_size=10, unique=True),
                k=st.sampled_from([1, 2, 5, 64]))
    def build(self, keys, k):
        self.mirror = sorted(keys)
        self.d = DynamicBinDict(keys, k)
        self._reset_gap_bounds()

    # the documented gap-bound rule, kept beside the structure's own
    def _reset_gap_bounds(self):
        """What a build or rebuild sets: the exact extremes, or the
        placeholders while fewer than two keys exist."""
        gaps = [b - a for a, b in zip(self.mirror, self.mirror[1:])]
        self.bounds = (min(gaps), max(gaps)) if gaps else (_NO_GAP_MIN, _NO_GAP_MAX)

    def _note_gaps(self, *gaps):
        g_min, g_max = self.bounds
        self.bounds = min([g_min, *gaps]), max([g_max, *gaps])

    def _insert(self, x):
        pos = bisect_left(self.mirror, x)
        absent = pos == len(self.mirror) or self.mirror[pos] != x
        rebuilds = self.d.ledger.count()
        assert self.d.insert(x) is absent
        if absent:
            self.mirror.insert(pos, x)
            # an insert notes the gaps to the new key's neighbours
            near = self.mirror[max(pos - 1, 0):pos + 2]
            self._note_gaps(*(b - a for a, b in zip(near, near[1:])))
        if self.d.ledger.count() != rebuilds:
            self._reset_gap_bounds()

    def _delete(self, x):
        pos = bisect_left(self.mirror, x)
        present = pos < len(self.mirror) and self.mirror[pos] == x
        rebuilds = self.d.ledger.count()
        assert self.d.delete(x) is present
        if present:
            del self.mirror[pos]
            # a delete between two keys notes the merged gap
            if 0 < pos < len(self.mirror):
                self._note_gaps(self.mirror[pos] - self.mirror[pos - 1])
        if self.d.ledger.count() != rebuilds:
            self._reset_gap_bounds()

    @rule(x=_EDGE_KEYS)
    def insert(self, x):
        self._insert(x)

    @rule(above=st.booleans(), offset=st.integers(1, 2**40))
    def insert_out_of_range(self, above, offset):
        x = self.d.range_hi + offset if above else self.d.range_lo - offset
        self._insert(min(max(x, 0), MAX_KEY))

    @precondition(lambda self: self.mirror)
    @rule(above=st.booleans(), data=st.data())
    def insert_in_margin(self, above, data):
        """A key strictly between the hull and the widened range's edge:
        inside the range, so no out-of-range rebuild, but past the bins'
        cut, so the geometry's ``bin_of`` clamps it into an edge bin."""
        if above:
            lo, hi = self.mirror[-1] + 1, min(self.d.range_hi, MAX_KEY)
        else:
            lo, hi = max(self.d.range_lo, 0), self.mirror[0] - 1
        if lo <= hi:
            self._insert(data.draw(st.integers(lo, hi)))

    @precondition(lambda self: len(self.mirror) >= 2)
    @rule()
    def insert_smallest_gap_midpoint(self):
        gaps = [(b - a, a) for a, b in zip(self.mirror, self.mirror[1:]) if b - a > 1]
        if gaps:
            width, a = min(gaps)
            self._insert(a + width // 2)

    @precondition(lambda self: len(self.mirror) >= 2 and self.d.k > 1)
    @rule(data=st.data())
    def insert_at_a_bin_edge(self, data):
        """The last key one bin can hold or the first of the next: one
        neighbour lies in another bin, so the gap it makes is noted
        through a Fenwick selection."""
        uppers = self.d._geometry.uppers().tolist()
        edge = uppers[data.draw(st.integers(1, self.d.k - 1))]
        self._insert(edge + data.draw(st.integers(0, 1)))

    @rule(x=_EDGE_KEYS)
    def delete(self, x):
        self._delete(x)

    @precondition(lambda self: self.mirror)
    @rule(data=st.data())
    def delete_present(self, data):
        self._delete(data.draw(st.sampled_from(self.mirror)))

    @precondition(lambda self: self.mirror)
    @rule()
    def drain(self):
        for x in list(self.mirror):
            self._delete(x)
        assert len(self.d) == 0

    @rule(x=_EDGE_KEYS)
    def rank_search(self, x):
        pos = bisect_left(self.mirror, x)
        want = (pos, pos < len(self.mirror) and self.mirror[pos] == x)
        assert self.d.rank_search(x) == want

    @rule(data=st.data())
    def select(self, data):
        j = data.draw(st.integers(0, len(self.mirror)))
        if j == len(self.mirror):
            with pytest.raises(IndexError):
                self.d.select(j)
        else:
            assert self.d.select(j) == self.mirror[j]

    @invariant()
    def same_keys_in_their_bins(self):
        assert len(self.d) == len(self.mirror)
        assert list(self.d) == self.mirror
        assert_keys_in_their_bins(self.d)

    @invariant()
    def gap_bounds_follow_the_documented_rule(self):
        assert self.d.gap_bounds == self.bounds

    @invariant()
    def gap_bounds_bracket_the_true_extremes(self):
        if len(self.mirror) >= 2:
            gaps = [b - a for a, b in zip(self.mirror, self.mirror[1:])]
            g_min, g_max = self.d.gap_bounds
            assert g_min <= min(gaps) and g_max >= max(gaps)


TestDynamicAgainstMirror = DynamicAgainstMirror.TestCase
TestDynamicAgainstMirror.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
