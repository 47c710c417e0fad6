"""Equal-width binning: boundary arithmetic, routing, occupancy, space.

The frozen example: k = 4 bins over the running 10-key set (span 892,
width 223) puts 3 keys in bin 1, 5 in bin 2, none in bin 3 and 2 in bin 4;
x = 700 routes to the empty bin 3 and must come back with the cumulative
start rank 8, not found.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictboost.binning import (
    BinnedDictionary,
    bin_index,
    bin_occupancy,
    bin_starts,
    build_binning,
    pct_to_k,
)
from dictboost.core import DictboostError, MAX_KEY, SearchOutcome, SortedKeySet

from conftest import TEN_KEYS, assert_matches_oracle, bulk_rank, held_bytes, mixed_queries, reachable_bytes


class TestBinIndex:
    def test_frozen_example_bins(self):
        sk = SortedKeySet(TEN_KEYS)
        want = {47: 1, 105: 1, 140: 1, 289: 2, 316: 2, 358: 2, 386: 2, 398: 2,
                819: 4, 939: 4}
        for x, b in want.items():
            assert bin_index(sk, 4, x) == b
        assert bin_index(sk, 4, 700) == 3  # the empty bin

    def test_bin_boundaries_are_right_closed(self):
        sk = SortedKeySet(TEN_KEYS)  # span 892, k=4 -> width 223
        assert bin_index(sk, 4, 47) == 1
        assert bin_index(sk, 4, 270) == 1
        assert bin_index(sk, 4, 271) == 2
        assert bin_index(sk, 4, 493) == 2
        assert bin_index(sk, 4, 494) == 3
        assert bin_index(sk, 4, 939) == 4

    def test_out_of_range_raises(self):
        sk = SortedKeySet(TEN_KEYS)
        with pytest.raises(DictboostError):
            bin_index(sk, 4, 46)
        with pytest.raises(DictboostError):
            bin_index(sk, 4, 940)

    def test_single_key_set_has_one_bin(self):
        sk = SortedKeySet([7])
        assert bin_index(sk, 1, 7) == 1


class TestBinStarts:
    def test_frozen_example_cumulative_ranks(self):
        sk = SortedKeySet(TEN_KEYS)
        assert bin_starts(sk, 4).tolist() == [0, 3, 8, 8, 10]
        assert bin_occupancy(sk, 4).tolist() == [3, 5, 0, 2]

    def test_partition_invariants(self):
        rng = np.random.default_rng(2)
        keys = SortedKeySet(np.unique(rng.integers(0, 10**9, 500, dtype=np.uint64)))
        for k in [1, 2, 3, 7, 100, len(keys)]:
            starts = bin_starts(keys, k)
            assert starts[0] == 0 and starts[-1] == len(keys)
            assert (np.diff(starts) >= 0).all()
            assert len(starts) == k + 1

    def test_starts_agree_with_bin_index(self):
        """starts must place every key in exactly the bin bin_index says."""
        rng = np.random.default_rng(4)
        keys = SortedKeySet(np.unique(rng.integers(0, 5000, 80, dtype=np.uint64)))
        for k in [1, 3, 10, len(keys)]:
            starts = bin_starts(keys, k)
            for rank, x in enumerate(keys.as_list()):
                b = bin_index(keys, k, x)
                assert starts[b - 1] <= rank < starts[b]

    def test_k_bounds_enforced(self):
        sk = SortedKeySet(TEN_KEYS)
        with pytest.raises(DictboostError):
            bin_starts(sk, 0)
        with pytest.raises(DictboostError):
            bin_starts(sk, 11)
        with pytest.raises(DictboostError):
            bin_starts(SortedKeySet([]), 1)

    def test_u64_extreme_span_matches_python_int_formula(self):
        """The vectorized upper-boundary arithmetic must agree with exact
        integer math even when the span is nearly 2**64."""
        keys = SortedKeySet([0, 3, 2**63, MAX_KEY - 1, MAX_KEY])
        for k in [1, 2, 3, 4, 5]:
            starts = bin_starts(keys, k)
            lo, hi = keys.lo, keys.hi
            span = hi - lo
            arr = keys.as_list()
            expect = [0] + [
                sum(1 for v in arr if v <= lo + (b * span) // k) for b in range(1, k + 1)
            ]
            assert starts.tolist() == expect, f"k={k}"


class TestBinnedDictionary:
    def test_frozen_example_routes_to_empty_bin(self):
        d = build_binning(SortedKeySet(TEN_KEYS), 4)
        assert d.route(700) == 3
        assert d.rank_search(700) == SearchOutcome(8, False)
        assert d.empty_bins() == 1
        assert d.max_bin_load() == 5

    def test_below_and_above_range_short_circuit(self):
        d = build_binning(SortedKeySet(TEN_KEYS), 4)
        assert d.rank_search(0) == SearchOutcome(0, False)
        assert d.rank_search(46) == SearchOutcome(0, False)
        assert d.rank_search(10**9) == SearchOutcome(10, False)

    def test_k_equal_one_answers_like_the_inner_dictionary(self):
        from dictboost.dictionaries import make_builder

        sk = SortedKeySet(TEN_KEYS)
        wrapped = build_binning(sk, 1, "bfs")
        inner = make_builder("bfs")[1](TEN_KEYS)
        for x in range(0, 1000):
            assert wrapped.rank_search(x) == inner.rank_search(x)

    @pytest.mark.parametrize("dict_kind", ["bbs", "bfs", "bfe", "bft:4", "is", "css:4", "splay"])
    def test_matches_oracle_with_every_inner_kind(self, dict_kind):
        rng = np.random.default_rng(9)
        keys = SortedKeySet(np.unique(rng.integers(0, 3000, 120, dtype=np.uint64)))
        for k in [1, 2, 5, 37, len(keys)]:
            d = build_binning(keys, k, dict_kind)
            assert_matches_oracle(d, keys, list(range(0, 3100, 3)))

    def test_exhaustive_small_window(self):
        keys = SortedKeySet([10, 11, 12, 40, 41, 55])
        for k in range(1, 7):
            d = build_binning(keys, k)
            assert_matches_oracle(d, keys, list(range(0, 70)))

    def test_deterministic_load_bound(self):
        """Per-bin load can never exceed one key per g_min inside a bin
        width, plus the boundary key: ceil(span/k) // g_min + 1."""
        rng = np.random.default_rng(12)
        for trial in range(20):
            raw = np.unique(rng.integers(0, 10**7, 300, dtype=np.uint64))
            keys = SortedKeySet(raw)
            gaps = np.diff(raw)
            g_min = int(gaps.min())
            span = keys.hi - keys.lo
            for k in [2, 10, 50, len(keys)]:
                width = -(-span // k)
                bound = width // g_min + 1
                d = build_binning(keys, k)
                assert d.max_bin_load() <= bound

    def test_clustered_sets_leave_most_bins_empty(self):
        from dictboost.workloads import gen_clustered

        keys = gen_clustered(2000, outlier_fraction=0.001, seed=1)
        d = build_binning(keys, len(keys))
        assert d.empty_bins() / d.k > 0.9
        assert_matches_oracle(d, keys, mixed_queries(keys, 500, seed=2))

    def test_space_is_the_rank_table_plus_inner_overhead(self):
        sk = SortedKeySet(TEN_KEYS)
        plain = build_binning(sk, 4, "bbs")
        table = held_bytes(plain._starts.obj)  # 5 boundaries, one byte each at n = 10
        assert table == 5
        assert plain.space_bytes() == table  # bbs inners carry nothing extra
        fat = build_binning(sk, 4, "bfe")  # the inner adds its layout and rank lists
        assert fat.space_bytes() == held_bytes(fat._starts.obj, fat._dict._layout, fat._dict._ranks)
        assert plain.space_overhead_pct() == pytest.approx(100.0 * 5 / 80)

    def test_rank_table_is_its_narrowest_entries_per_boundary(self):
        """Beyond its key array, a binned model at k = n/10 reaches no more
        than its rank table entries, 2 bytes each at 20k keys, and a fixed
        few objects, by a ``sys.getsizeof`` walk over everything it refers
        to."""
        keys = SortedKeySet(np.unique(np.random.default_rng(41).integers(0, 2**44, 20_000, dtype=np.uint64)))
        k = len(keys) // 10
        d = build_binning(keys, k)
        assert np.min_scalar_type(len(keys)).itemsize == 2
        assert reachable_bytes(d) - keys.array.nbytes <= 2 * (k + 1) + 4096

    def test_route_is_order_preserving(self):
        sk = SortedKeySet(TEN_KEYS)
        d = build_binning(sk, 7)
        bins = [d.route(x) for x in range(47, 940)]
        assert bins == sorted(bins)
        assert set(bins) <= set(range(1, 8))


class TestPctToK:
    def test_grid_endpoints(self):
        assert pct_to_k(1000, 0.0) == 1
        assert pct_to_k(1000, 100.0) == 1000
        assert pct_to_k(1000, 10.0) == 100
        assert pct_to_k(3, 50.0) == 2
        assert pct_to_k(1, 100.0) == 1

    def test_never_leaves_valid_range(self):
        for n in [1, 2, 7, 1000]:
            for pct in [0.0, 0.001, 33.3, 99.9, 100.0]:
                assert 1 <= pct_to_k(n, pct) <= n


@given(
    keys=st.lists(st.integers(0, 400), min_size=1, max_size=60, unique=True),
    k_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=120, deadline=None)
def test_binned_rank_search_matches_oracle_everywhere(keys, k_frac):
    keys = sorted(keys)
    sk = SortedKeySet(keys)
    k = max(1, min(len(keys), round(k_frac * len(keys))))
    d = BinnedDictionary.build(sk, k)
    probes = list(range(-1, 403))
    ranks, found = bulk_rank(sk, [max(0, p) for p in probes])
    for p, r, f in zip(probes, ranks, found):
        if p < 0:
            assert d.rank_search(p) == SearchOutcome(0, False)
        else:
            assert d.rank_search(p) == (int(r), bool(f))
