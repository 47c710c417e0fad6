"""Core protocol: SearchOutcome semantics, SortedKeySet, gap stats, entropy.

The one load-bearing test here is the cross-validation of the two oracles
(linear scan vs searchsorted); every other module's equivalence tests lean
on ``bulk_rank`` being right.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictboost.binning import build_binning
from dictboost.core import (
    AccessDistribution,
    DistributionError,
    InvalidKeySetError,
    MAX_KEY,
    SearchOutcome,
    SortedKeySet,
    entropy,
    gap_stats,
    sorted_unique,
)
from dictboost.segments import build_segments

from conftest import TEN_KEYS, bulk_rank, mixed_queries, oracle_rank_search


class TestRankProtocol:
    def test_linear_scan_frozen_cases(self):
        keys = [10, 20, 30]
        assert oracle_rank_search(keys, 5) == SearchOutcome(0, False)
        assert oracle_rank_search(keys, 10) == SearchOutcome(0, True)
        assert oracle_rank_search(keys, 15) == SearchOutcome(1, False)
        assert oracle_rank_search(keys, 30) == SearchOutcome(2, True)
        assert oracle_rank_search(keys, 31) == SearchOutcome(3, False)
        assert oracle_rank_search([], 7) == SearchOutcome(0, False)

    def test_found_iff_key_at_rank_equals_query(self):
        keys = TEN_KEYS
        for x in range(40, 950):
            r, found = oracle_rank_search(keys, x)
            if found:
                assert keys[r] == x
            else:
                assert r == len(keys) or keys[r] > x
            if r > 0:
                assert keys[r - 1] < x  # predecessor sits one rank below

    def test_the_two_oracles_agree(self):
        """linear scan vs searchsorted, exhaustively on a small window and
        on random sparse sets; everything else trusts bulk_rank."""
        keys = SortedKeySet(TEN_KEYS)
        window = list(range(0, 1000))
        ranks, found = bulk_rank(keys, window)
        for x, r, f in zip(window, ranks, found):
            assert oracle_rank_search(TEN_KEYS, x) == (r, f)

        rng = np.random.default_rng(7)
        ks = np.unique(rng.integers(0, 2**50, size=200, dtype=np.uint64))
        sk = SortedKeySet(ks)
        qs = mixed_queries(sk, 500, seed=8)
        ranks, found = bulk_rank(sk, qs)
        lst = [int(v) for v in ks]
        for x, r, f in zip(qs, ranks, found):
            assert oracle_rank_search(lst, x) == (int(r), bool(f))

    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40, unique=True),
        probes=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_oracles_agree_on_arbitrary_sets(self, keys, probes):
        keys = sorted(keys)
        sk = SortedKeySet(keys)
        probes = probes + keys[:3]
        ranks, found = bulk_rank(sk, probes)
        for x, r, f in zip(probes, ranks, found):
            assert oracle_rank_search(keys, x) == (int(r), bool(f))


class TestSortedKeySet:
    def test_rejects_unsorted_and_duplicates(self):
        with pytest.raises(InvalidKeySetError):
            SortedKeySet([3, 2, 1])
        with pytest.raises(InvalidKeySetError):
            SortedKeySet([1, 1, 2])
        with pytest.raises(InvalidKeySetError):
            SortedKeySet([[1, 2], [3, 4]])

    @pytest.mark.parametrize("bad", [
        [-1, 3],
        [1, 2**64],
        [1.5, 2.7],
        [1.0, 2.0],
        np.array([-1, 3]),
        np.array([1.5, 2.7]),
    ])
    def test_rejects_values_that_are_not_u64_integers(self, bad):
        with pytest.raises(InvalidKeySetError):
            SortedKeySet(bad)
        with pytest.raises(InvalidKeySetError):
            SortedKeySet.from_unsorted(bad)

    def test_accepts_every_u64_integer_input(self):
        assert SortedKeySet([1, 2**63, MAX_KEY]).as_list() == [1, 2**63, MAX_KEY]
        assert SortedKeySet(np.array([1, 5], dtype=np.int32)).as_list() == [1, 5]
        assert SortedKeySet([np.uint64(3), 4]).as_list() == [3, 4]

    def test_read_only_u64_array_is_taken_without_a_copy(self):
        raw = np.array([2, 7, 9], dtype=np.uint64)
        raw.setflags(write=False)
        assert SortedKeySet(raw).array is raw

    def test_callers_writable_array_stays_writable_and_apart(self):
        raw = np.array([2, 7, 9], dtype=np.uint64)
        sk = SortedKeySet(raw)
        assert raw.flags.writeable
        raw[0] = 1
        raw[2] = 100
        assert sk.as_list() == [2, 7, 9]
        assert not sk.array.flags.writeable
        raw = np.array([9, 2, 9], dtype=np.uint64)
        sk, dupes = SortedKeySet.from_unsorted(raw)
        raw[0] = 0
        assert sk.as_list() == [2, 9]
        assert dupes == 1

    @pytest.mark.parametrize("values", [
        [],
        [MAX_KEY],
        [0, 0, 0],
        [5, 3, 5, 1, 3, 3],
        [MAX_KEY, 0, MAX_KEY, 2**63, 0, 1, MAX_KEY - 1, 2**63],
    ])
    def test_sorted_unique_equals_np_unique(self, values):
        arr = np.array(values, dtype=np.uint64)
        got = sorted_unique(arr)
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.unique(arr))

    def test_sorted_unique_equals_np_unique_on_many_duplicates(self):
        rng = np.random.default_rng(4)
        arr = np.concatenate([rng.integers(0, 500, 5000, dtype=np.uint64),
                              np.array([0, MAX_KEY, MAX_KEY, 0], dtype=np.uint64),
                              rng.integers(MAX_KEY - 300, MAX_KEY, 2000, dtype=np.uint64,
                                           endpoint=True)])
        assert np.array_equal(sorted_unique(arr), np.unique(arr))

    def test_from_unsorted_dedups_and_counts(self):
        sk, dupes = SortedKeySet.from_unsorted([5, 3, 5, 1, 3, 3])
        assert sk.as_list() == [1, 3, 5]
        assert dupes == 3

    def test_universe_hint_must_cover_keys(self):
        sk = SortedKeySet([10, 20], universe_hint=(0, 100))
        assert sk.universe_hint == (0, 100)
        with pytest.raises(InvalidKeySetError):
            SortedKeySet([10, 20], universe_hint=(11, 100))
        with pytest.raises(InvalidKeySetError):
            SortedKeySet([10, 20], universe_hint=(0, 19))

    def test_empty_set_behaviour(self):
        sk = SortedKeySet([])
        assert len(sk) == 0
        with pytest.raises(InvalidKeySetError):
            sk.lo
        with pytest.raises(InvalidKeySetError):
            sk.hi

    def test_array_view_is_read_only(self):
        sk = SortedKeySet([1, 2, 3])
        with pytest.raises(ValueError):
            sk.array[0] = 9

    def test_as_list_returns_an_independent_copy(self):
        """Callers mutate the returned list (streams keep it as a mirror);
        that must never leak back into the set."""
        sk = SortedKeySet([1, 2, 3])
        lst = sk.as_list()
        lst.append(99)
        del lst[0]
        assert sk.as_list() == [1, 2, 3]
        assert len(sk) == 3

    def test_u64_extremes_round_trip(self):
        sk = SortedKeySet([0, MAX_KEY])
        assert sk.lo == 0 and sk.hi == MAX_KEY


class TestKeySetView:
    """``SortedKeySet.view``, the read-only memoryview the learned models
    search, over every kind of input the key set accepts."""

    @staticmethod
    def _strided():
        arr = np.arange(0, 3000, 7, dtype=np.uint64)[::3]
        arr.setflags(write=False)
        return arr

    def test_view_reads_the_keys_as_plain_ints_for_every_input(self):
        strided = self._strided()
        writable = np.array([2, 9, 30], dtype=np.uint64)
        inputs = [
            TEN_KEYS,
            [0, MAX_KEY],
            np.array([1, 5], dtype=np.int32),
            [np.uint64(3), 4],
            writable,
            strided,
            SortedKeySet.from_unsorted([9, 1, 9, 4])[0].array,
        ]
        for keys in inputs:
            sk = SortedKeySet(keys)
            want = [int(v) for v in np.asarray(keys, dtype=np.uint64)]
            assert len(sk.view) == len(sk) == len(want)
            assert all(type(v) is int for v in sk.view)
            assert list(sk.view) == list(sk) == sk.as_list() == want
            assert sk.view is sk.view  # one view per key set
            assert sk.view.readonly

    def test_strided_read_only_array_is_searched_without_a_copy(self):
        """Such an array is kept as it is, so the view is not contiguous;
        a binned and a segmented model over it still equal searchsorted."""
        arr = self._strided()
        sk = SortedKeySet(arr)
        assert sk.array is arr
        assert not sk.view.contiguous
        queries = list(range(3010))
        ranks, found = bulk_rank(sk, queries)
        for d in (build_binning(sk, 17, "bbs"), build_segments(sk, 2, "bbs")):
            assert d.keys is sk
            got = [d.rank_search(x) for x in queries]
            assert got == list(zip(ranks.tolist(), found.tolist()))

    def test_u64_extremes_through_the_view(self):
        sk = SortedKeySet([0, 1, 2**63, MAX_KEY])
        assert sk.view[0] == 0 and sk.view[-1] == MAX_KEY

    def test_empty_set(self):
        sk = SortedKeySet([])
        assert sk.as_list() == [] and list(sk) == [] and len(sk.view) == 0

    def test_the_view_cannot_be_written(self):
        sk = SortedKeySet(TEN_KEYS)
        with pytest.raises(TypeError):
            sk.view[0] = 1
        with pytest.raises(TypeError):
            sk.view[2:4] = bytes(16)
        assert sk.as_list() == TEN_KEYS


class TestGapStats:
    def test_running_example_extremes(self):
        gs = gap_stats(SortedKeySet(TEN_KEYS))
        assert gs.g_min == 12
        assert gs.g_max == 421
        assert gs.delta == pytest.approx(421 / 12)

    def test_shift_invariance(self):
        base = [3, 10, 50]
        shifted = [v + 10**9 for v in base]
        assert gap_stats(base) == gap_stats(shifted)

    def test_needs_two_keys(self):
        with pytest.raises(InvalidKeySetError):
            gap_stats([42])

    def test_equal_spacing_gives_delta_one(self):
        gs = gap_stats(list(range(0, 100, 7)))
        assert gs.g_min == gs.g_max == 7
        assert gs.delta == 1.0

    @given(st.lists(st.integers(0, MAX_KEY), min_size=2, max_size=64, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_extremes_equal_python_min_and_max_of_the_gaps(self, keys):
        keys.sort()
        gaps = [b - a for a, b in zip(keys, keys[1:])]
        gs = gap_stats(keys)
        assert (gs.g_min, gs.g_max) == (min(gaps), max(gaps))
        assert gap_stats(SortedKeySet(keys)) == gs


class TestAccessDistribution:
    def test_validates_shapes_and_mass(self):
        AccessDistribution([0.5], [0.25, 0.25])
        with pytest.raises(DistributionError):
            AccessDistribution([0.5, 0.5], [0.0])
        with pytest.raises(DistributionError):
            AccessDistribution([-0.1, 1.0], [0.05, 0.0, 0.05])
        with pytest.raises(DistributionError):
            AccessDistribution([0.5], [0.25, 0.05])

    @pytest.mark.parametrize("p, q", [
        ([float("nan")], [0.5, 0.5]),
        ([0.5], [float("nan"), 0.5]),
        ([float("inf")], [0.0, 0.0]),
    ])
    def test_non_finite_weights_are_rejected(self, p, q):
        with pytest.raises(DistributionError, match="weights sum to"):
            AccessDistribution(p, q)

    def test_entropy_of_uniform_atoms(self):
        # 8 equal atoms -> exactly 3 bits, zero atoms contribute nothing
        p = [1 / 8] * 4
        q = [1 / 8] * 4 + [0.0]
        assert entropy(AccessDistribution(p, q)) == pytest.approx(3.0)

    def test_entropy_of_point_mass_is_zero(self):
        assert entropy(AccessDistribution([1.0], [0.0, 0.0])) == 0.0
        assert entropy([]) == 0.0

    def test_entropy_bounded_by_log_of_support(self):
        rng = np.random.default_rng(3)
        w = rng.random(17)
        w /= w.sum()
        assert entropy(w) <= np.log2(17) + 1e-12
