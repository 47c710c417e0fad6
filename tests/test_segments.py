"""Epsilon-bounded segmentation: the residual guarantee is the whole point.

Every test that matters checks |floor-predicted rank - true rank| <= eps
for every member key, because that bound is what downstream final-search
windows rely on.  Routing correctness is checked against the oracle
separately since queries never consult the predictions.
"""

import bisect
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictboost import segments
from dictboost.core import MAX_KEY, DictboostError, SearchOutcome, SortedKeySet
from dictboost.segments import Segment, SegmentedDictionary, _fit_segments, build_segments
from dictboost.workloads import gen_clustered, gen_uniform

from conftest import TEN_KEYS, assert_matches_oracle, bulk_rank, held_bytes, mixed_queries, reachable_bytes


def residuals(d: SegmentedDictionary) -> list[int]:
    ks = d.keys.as_list()
    return [abs(seg.predict_rank(ks[j]) - j)
            for seg in d.segments
            for j in range(seg.start_rank, seg.end_rank)]


def reference_fit(ks: list[int], eps: int) -> list[Segment]:
    """The one-key-at-a-time greedy loop, kept as the mirror the chunked
    ``_fit_segments`` must equal float for float."""
    n = len(ks)
    segs: list[Segment] = []
    i = 0
    while i < n:
        x0 = ks[i]
        slope_lo, slope_hi = -math.inf, math.inf
        j = i + 1
        while j < n:
            d = ks[j] - x0
            lo = max(slope_lo, (j - eps - i) / d)
            hi = min(slope_hi, (j + eps - i) / d)
            if lo > hi:
                break
            slope_lo, slope_hi = lo, hi
            j += 1
        slope = 0.0 if j == i + 1 else (slope_lo + slope_hi) / 2.0
        end = j
        for v in range(i + 1, j):
            if abs(math.floor(slope * (ks[v] - x0)) + i - v) > eps:
                end = v
                break
        segs.append(Segment(x0, slope, i, end))
        i = end
    return segs


def bits(segs: list[Segment]) -> list[tuple]:
    """Segments with the slope as its exact bit pattern (``==`` alone
    would let 0.0 and -0.0 pass for each other)."""
    return [(s.first_key, s.slope.hex(), s.start_rank, s.end_rank) for s in segs]


def u64_extreme_keys(seed: int) -> np.ndarray:
    """Keys at 0 and 2**64 - 1, a sprinkle over the whole range, and
    jittered runs whose steps reach 2**50, so that segments span more than
    2**53 (where a float64 no longer holds every distance)."""
    rng = np.random.default_rng(seed)
    parts = [np.array([0, MAX_KEY], dtype=np.uint64),
             rng.integers(0, MAX_KEY, 200, dtype=np.uint64, endpoint=True)]
    for step, count in [(1, 900), (2**20, 700), (2**50, 4000)]:
        start = int(rng.integers(0, MAX_KEY - 2 * step * count, dtype=np.uint64))
        jitter = rng.integers(0, step // 4 + 1, count, dtype=np.uint64)
        parts.append(np.uint64(start) + np.arange(count, dtype=np.uint64) * np.uint64(step) + jitter)
    parts.append(np.uint64(MAX_KEY - 5000) + np.arange(0, 5000, 3, dtype=np.uint64))
    return np.unique(np.concatenate(parts))


def fit_key_sets() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(31)
    return {
        "uniform": np.unique(rng.integers(0, 2**44, 20_000, dtype=np.uint64)),
        "clustered": np.unique(np.concatenate([
            rng.integers(0, 4 * 10**9, 20, dtype=np.uint64),
            rng.integers(2 * 10**9, 2 * 10**9 + 80_000, 20_000, dtype=np.uint64),
        ])),
        "u64-extremes-1": u64_extreme_keys(1),
        "u64-extremes-2": u64_extreme_keys(2),
        # at eps = 0 the slope 1/49 rounds down, floor(slope * 49) == 0, and
        # the re-verification cuts every long segment at its first member
        "collinear-49": np.arange(1, 700, dtype=np.uint64) * 49,
    }


def swing_keys(seed: int) -> np.ndarray:
    """Evenly spaced runs, which fit one long segment at any eps, each
    followed by a scatter with log-uniform gaps up to 2**36, which cuts
    short segments: the fit meets long after short and short after long
    at eps 0 to 256."""
    rng = np.random.default_rng(seed)
    parts, x = [], 0
    for run in [12_000, 40, 6_000, 3, 9_000, 700, 2, 4_000]:
        parts.append(x + int(rng.integers(1, 4)) * np.arange(run, dtype=np.uint64))
        gaps = 2 ** rng.uniform(0, 36, int(rng.integers(5, 400)))
        parts.append(int(parts[-1][-1]) + np.cumsum(1 + gaps.astype(np.uint64)))
        x = int(parts[-1][-1]) + int(rng.integers(1, 2**30))
    return np.concatenate(parts)


class TestEpsilonGuarantee:
    @pytest.mark.parametrize("eps", [0, 1, 2, 8, 64])
    def test_every_member_within_eps(self, eps):
        rng = np.random.default_rng(eps + 1)
        shapes = [
            np.unique(rng.integers(0, 2**40, 800, dtype=np.uint64)),
            np.arange(0, 8000, 10, dtype=np.uint64),
            np.unique(np.concatenate([
                rng.integers(0, 500, 400, dtype=np.uint64),
                rng.integers(10**9, 10**9 + 10**7, 400, dtype=np.uint64),
            ])),
        ]
        for raw in shapes + [u64_extreme_keys(eps)]:
            d = build_segments(SortedKeySet(raw), eps)
            assert max(residuals(d)) <= eps
            assert d.max_residual() == max(residuals(d))

    def test_prediction_is_the_verified_formula(self):
        """``predict_rank`` evaluates, key for key, the formula the fit
        verified: floor(slope * (key - first_key)) + start_rank."""
        keys = gen_uniform(2000, 2**44, seed=0)
        for eps in [1, 4]:
            d = build_segments(keys, eps)
            for seg in d.segments:
                for j in range(seg.start_rank, seg.end_rank):
                    x = keys[j]
                    want = math.floor(seg.slope * (x - seg.first_key)) + seg.start_rank
                    assert seg.predict_rank(x) == d.predict_rank(x) == want, f"eps={eps} j={j}"
            assert d.max_residual() == max(residuals(d)) <= eps

    def test_eps_zero_predicts_exact_ranks(self):
        d = build_segments(SortedKeySet(TEN_KEYS), 0)
        ks = d.keys.as_list()
        for j, x in enumerate(ks):
            assert d.predict_rank(x) == j

    def test_prediction_uses_the_segment_queries_route_to(self):
        """Off the keys, the prediction is the owning segment's: the first
        segment below every key, the last one above them (the router
        ``rank_search`` uses, not a wrapped index)."""
        keys = [100, 101, 102, 103, 1000, 5000, 5001, 5002, 90000, 90010]
        d = build_segments(SortedKeySet(keys), 0)
        assert d.segment_count > 1
        lo, hi = keys[0], keys[-1]
        for x in [0, lo - 1, lo, hi, hi + 1, MAX_KEY]:
            owner = max([0] + [i for i, s in enumerate(d.segments) if s.first_key <= x])
            assert d.interval(x) - 1 == owner
            assert d.predict_rank(x) == d.segments[d.interval(x) - 1].predict_rank(x), x

    def test_collinear_keys_need_one_segment(self):
        d = build_segments(SortedKeySet(range(100, 1700, 16)), 0)
        assert d.segment_count == 1
        assert d.routing_steps() == 0

    def test_segment_count_nonincreasing_in_eps(self):
        rng = np.random.default_rng(20)
        keys = SortedKeySet(np.unique(rng.integers(0, 2**38, 3000, dtype=np.uint64)))
        counts = [build_segments(keys, e).segment_count for e in [0, 1, 2, 4, 8, 16, 64, 256]]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] >= 1

    def test_wide_eps_collapses_uniform_data_to_one_segment(self):
        keys = SortedKeySet(np.arange(0, 4000, 4, dtype=np.uint64) + 1)
        d = build_segments(keys, len(keys) // 2)
        assert d.segment_count == 1


class TestChunkedFit:
    """The chunked fit against the one-key-at-a-time mirror."""

    @pytest.mark.parametrize("name", list(fit_key_sets()))
    @pytest.mark.parametrize("eps", [0, 1, 4, 16, 256])
    def test_equals_the_scalar_loop(self, name, eps):
        raw = fit_key_sets()[name]
        want = bits(reference_fit(raw.tolist(), eps))
        assert bits(_fit_segments(raw, eps)) == want
        assert bits(_fit_segments(raw.tolist(), eps)) == want
        assert bits(_fit_segments(SortedKeySet(raw), eps)) == want

    def test_long_segments_cross_several_chunks(self):
        raw = fit_key_sets()["uniform"]
        longest = max(len(s) for s in _fit_segments(raw, 256))
        # past the scalar head and three doubling chunks (1x, 2x and 4x)
        assert longest > segments._SCALAR_HEAD + 7 * segments._FIRST_CHUNK

    @pytest.mark.parametrize("head, chunk", [(1, 1), (2, 3), (5, 2)])
    def test_chunk_boundaries_do_not_matter(self, head, chunk):
        raw = np.unique(np.concatenate([fit_key_sets()["uniform"][:3000], u64_extreme_keys(3)[-3000:]]))
        with mock.patch.multiple(segments, _SCALAR_HEAD=head, _FIRST_CHUNK=chunk):
            for eps in [0, 4, 64]:
                assert bits(_fit_segments(raw, eps)) == bits(reference_fit(raw.tolist(), eps))

    @pytest.mark.parametrize("head, chunk", [(32, 256), (1, 1), (2, 3), (5, 2)])
    def test_first_chunk_sized_by_the_last_segment(self, head, chunk):
        """The first numpy chunk grows with the previous segment and the
        scalar head is skipped after a long one; neither moves a float."""
        raw = swing_keys(8)
        long = 2 * 256  # half of it passes the default first chunk
        with mock.patch.multiple(segments, _SCALAR_HEAD=head, _FIRST_CHUNK=chunk):
            for eps in [0, 4, 16, 256]:
                segs = _fit_segments(raw, eps)
                lens = [len(s) for s in segs]
                assert any(a > long and b < a // 10 for a, b in zip(lens, lens[1:]))
                assert any(a < b // 10 and b > long for a, b in zip(lens, lens[1:]))
                assert bits(segs) == bits(reference_fit(raw.tolist(), eps))

    def test_collinear_keys_fit_in_linear_work(self):
        """On ``49 * j`` keys at eps 0 the cone is the one slope 1/49 rounded
        down, which misses the next key: one segment per key, each found
        without growing the cone to the end of the keys."""
        n = 1500
        raw = np.arange(1, n + 1, dtype=np.uint64) * 49
        counted = [0]

        def counting(fn, candidates):
            def wrapper(*args):
                out = fn(*args)
                counted[0] += candidates(args, out)
                return out
            return wrapper

        grown = counting(segments._shrink_chunks, lambda a, out: max(out[0] - a[2], 0))
        checked = counting(segments._first_miss, lambda a, out: a[2] - a[1] - 1)
        with mock.patch.multiple(segments, _shrink_chunks=grown, _first_miss=checked):
            segs = _fit_segments(raw, 0)
        assert bits(segs) == bits(reference_fit(raw.tolist(), 0))
        assert len(segs) == n
        assert counted[0] <= (segments._SCALAR_HEAD + segments._FIRST_CHUNK) * n

    def test_eps_past_float_precision_stays_exact(self):
        raw = fit_key_sets()["u64-extremes-1"]
        for eps in [2**53, 3**40]:
            assert bits(_fit_segments(raw, eps)) == bits(reference_fit(raw.tolist(), eps))


def benchmark_keys(seed: int) -> np.ndarray:
    """The ``clustered-segments`` benchmark's key shape at 50k keys."""
    return gen_clustered(50_000, 0.001, seed, spread=1000).array


class TestLeanFit:
    """The chunk and re-verification work of the fit, mostly on the
    benchmark's key shape: most segments close in their first chunk, and a
    slope strictly inside its interval is not re-verified."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("eps", [4, 16, 64])
    def test_benchmark_shape_equals_the_scalar_loop(self, seed, eps):
        raw = benchmark_keys(seed)
        assert bits(_fit_segments(SortedKeySet(raw), eps)) == bits(reference_fit(raw.tolist(), eps))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_few_chunks_and_no_re_verification(self, seed):
        """At eps 16 the segments run ~900 keys.  A first chunk 1.5 times
        the last segment closes most of them in one chunk (half the last
        segment, then doubling, took ~2.1 chunks a segment), and every
        slope falls strictly inside its interval, where no member can miss:
        no segment is re-verified (each was, in one more numpy pass over
        its keys)."""
        raw = benchmark_keys(seed)
        chunks, candidates, verified = [0], [0], [0]
        bounds, first_miss = segments._Scratch.bounds, segments._first_miss

        def counting_bounds(fit, i, j, b, lo, hi):
            chunks[0] += 1
            candidates[0] += b - j
            return bounds(fit, i, j, b, lo, hi)

        def counting_miss(*args):
            verified[0] += 1
            return first_miss(*args)

        with mock.patch.object(segments._Scratch, "bounds", counting_bounds), \
                mock.patch.object(segments, "_first_miss", counting_miss):
            segs = _fit_segments(raw, 16)
        assert bits(segs) == bits(reference_fit(raw.tolist(), 16))
        assert chunks[0] <= 1.4 * len(segs)
        assert candidates[0] <= 2.25 * len(raw)
        assert verified[0] == 0

    @pytest.mark.parametrize("seed", [1, 3])
    def test_a_short_segment_after_a_long_one_is_verified_whole(self, seed):
        """numpy grows the segment after a long one; when it closes short,
        the scalar re-verification still starts at its first member."""
        raw = swing_keys(seed)
        segs = _fit_segments(raw, 0)
        lens = [len(s) for s in segs]
        assert any(a > 2 * segments._FIRST_CHUNK and b <= segments._SCALAR_HEAD
                   for a, b in zip(lens, lens[1:]))
        assert bits(segs) == bits(reference_fit(raw.tolist(), 0))


class TestSegmentStructure:
    def test_segments_partition_the_rank_space(self):
        rng = np.random.default_rng(6)
        keys = SortedKeySet(np.unique(rng.integers(0, 10**8, 1200, dtype=np.uint64)))
        for eps in [0, 3, 17]:
            d = build_segments(keys, eps)
            segs = d.segments
            assert segs[0].start_rank == 0
            assert segs[-1].end_rank == len(keys)
            for a, b in zip(segs, segs[1:]):
                assert a.end_rank == b.start_rank
                assert a.first_key < b.first_key
            # anchor invariant: prediction at the first key is its own rank
            ks = keys.as_list()
            for seg in segs:
                assert seg.predict_rank(ks[seg.start_rank]) == seg.start_rank

    def test_route_picks_the_covering_segment(self):
        keys = SortedKeySet(TEN_KEYS)
        d = build_segments(keys, 1)
        firsts = [s.first_key for s in d.segments]
        for x in range(47, 940):
            idx = d.route(x)
            assert firsts[idx] <= x
            if idx + 1 < len(firsts):
                assert x < firsts[idx + 1]

    def test_space_accounting(self):
        """The model's bytes are its three buffers, as a walk finds them:
        the rank table, the slopes and the first-key list with its ints."""
        keys = SortedKeySet(TEN_KEYS)
        d = build_segments(keys, 1, "bbs")
        held = held_bytes(d._starts.obj, d._slopes, d._firsts)
        assert d.space_bytes() == held
        assert d.space_overhead_pct() == pytest.approx(100.0 * held / (8 * len(keys)))

    def test_model_is_a_few_bytes_a_segment(self):
        """Beyond its key array, a segmented model on 20k clustered keys
        reaches no more than 60 bytes a segment (a list slot and its int, a
        float64 slope and a 2-byte rank entry come to about 46) and a fixed
        few objects, by a ``sys.getsizeof`` walk over everything it refers
        to; an object per segment would not fit."""
        keys = gen_clustered(20_000, 0.001, seed=3, spread=1000)
        d = build_segments(keys, 1)
        assert d.segment_count > 1000
        assert reachable_bytes(d) - keys.array.nbytes <= 60 * d.segment_count + 4096

    def test_eps_must_be_nonnegative_and_keys_nonempty(self):
        with pytest.raises(DictboostError):
            build_segments(SortedKeySet(TEN_KEYS), -1)
        with pytest.raises(DictboostError):
            build_segments(SortedKeySet([]), 1)


def gap_probes(ks: list[int]) -> list[int]:
    """Every key, and in each gap between two keys its ends and middle."""
    out = list(ks)
    for a, b in zip(ks, ks[1:]):
        out += [v for v in {a + 1, (a + b) // 2, b - 1} if a < v < b]
    return out


class TestArrayModel:
    """The model holds its segments as arrays; the ``Segment`` records of
    ``_fit_segments`` are the oracle it must answer like."""

    U64_KEYS = [0, 1, 2**53 - 1, 2**53 + 1, 2**63, 2**64 - 2, 2**64 - 1]

    @pytest.mark.parametrize("eps", [0, 1, 4])
    def test_prediction_is_the_owning_segments(self, eps):
        """At every key and every gap, below the first key and above the
        last, ``predict_rank`` is ``Segment.predict_rank`` of the segment
        whose first key is the last one at or below the query (the first
        segment below every key)."""
        for keys in [gen_uniform(2000, 2**44, seed=4), gen_clustered(2000, 0.001, seed=4),
                     SortedKeySet(self.U64_KEYS)]:
            ks = keys.as_list()
            segs = _fit_segments(keys, eps)
            firsts = [s.first_key for s in segs]
            d = build_segments(keys, eps)
            for x in gap_probes(ks) + [0, ks[0] - 1, ks[-1] + 1, 2**64]:
                owner = max(bisect.bisect_right(firsts, x) - 1, 0)
                assert d.predict_rank(x) == segs[owner].predict_rank(x), (eps, x)

    @pytest.mark.parametrize("eps", [0, 1, 2, 3, 8])
    def test_u64_extremes_against_a_bisect_mirror(self, eps):
        """Keys at both ends of the u64 range and astride 2**53: segments
        span more than 2**53, so the fit's scalar path runs, and the model
        still answers as ``bisect_left`` over the list and stays within eps."""
        ks = self.U64_KEYS
        d = build_segments(SortedKeySet(ks), eps)
        assert d.max_residual() <= eps
        probes = [-1] + gap_probes(ks) + [2**64]
        for x in probes:
            assert d.rank_search(x) == (bisect.bisect_left(ks, x), x in ks), (eps, x)
        if eps >= 2:
            assert any(ks[s.end_rank - 1] - s.first_key > 2**53 for s in d.segments)

    @pytest.mark.parametrize("eps", [0, 1, 16])
    def test_segments_are_the_fit(self, eps):
        for raw in [benchmark_keys(0)[:20_000], u64_extreme_keys(5)]:
            keys = SortedKeySet(raw)
            d = build_segments(keys, eps)
            assert bits(d.segments) == bits(_fit_segments(keys, eps))
            assert d.segments == _fit_segments(raw, eps)
            assert d.segment_count == len(d.segments) == d.intervals

    def test_pickled_copy_answers_alike(self):
        keys = SortedKeySet(u64_extreme_keys(6))
        for eps in [0, 16]:
            d = build_segments(keys, eps)
            c = pickle.loads(pickle.dumps(d))
            assert bits(c.segments) == bits(d.segments)
            probes = mixed_queries(keys, 600, seed=eps) + [0, MAX_KEY]
            ranks, found = bulk_rank(keys, probes)
            want = list(zip(ranks.tolist(), found.tolist()))
            assert [c.rank_search(x) for x in probes] == want
            assert [c.predict_rank(x) for x in probes] == [d.predict_rank(x) for x in probes]
            assert c.max_residual() == d.max_residual() <= eps


class TestSegmentedQueries:
    @pytest.mark.parametrize("eps", [0, 1, 5, 1000])
    def test_matches_oracle(self, eps):
        rng = np.random.default_rng(eps)
        keys = SortedKeySet(np.unique(rng.integers(0, 40000, 600, dtype=np.uint64)))
        d = build_segments(keys, eps)
        assert_matches_oracle(d, keys, mixed_queries(keys, 800, seed=5))

    def test_out_of_range_queries(self):
        d = build_segments(SortedKeySet(TEN_KEYS), 2)
        assert d.rank_search(0) == SearchOutcome(0, False)
        assert d.rank_search(46) == SearchOutcome(0, False)
        assert d.rank_search(940) == SearchOutcome(10, False)

    def test_exhaustive_small_window(self):
        keys = SortedKeySet([3, 4, 5, 200, 201, 202, 1000])
        for eps in range(0, 5):
            d = build_segments(keys, eps)
            assert_matches_oracle(d, keys, list(range(0, 1010)))

    @pytest.mark.parametrize("dict_kind", ["bbs", "bfs", "bfe", "bft:4", "is", "css:4", "splay"])
    def test_inner_dictionary_choice_is_transparent(self, dict_kind):
        keys = SortedKeySet(np.arange(1, 3000, 7, dtype=np.uint64) ** 2)
        d = build_segments(keys, 4, dict_kind)
        assert_matches_oracle(d, keys, mixed_queries(keys, 400, seed=13))


@given(
    keys=st.lists(st.integers(0, 10**6), min_size=1, max_size=80, unique=True),
    eps=st.integers(0, 40),
)
@settings(max_examples=120, deadline=None)
def test_guarantee_and_queries_hold_for_arbitrary_sets(keys, eps):
    sk = SortedKeySet(sorted(keys))
    d = build_segments(sk, eps)
    assert d.max_residual() <= eps
    probes = sorted(keys)[::5] + [0, 10**6, keys[0] + 1]
    ranks, found = bulk_rank(sk, probes)
    for x, r, f in zip(probes, ranks, found):
        assert d.rank_search(int(x)) == (int(r), bool(f))


@given(
    keys=st.lists(st.integers(0, MAX_KEY), min_size=1, max_size=300, unique=True),
    eps=st.integers(0, 64),
    chunking=st.sampled_from([(32, 256), (1, 1), (3, 2)]),
)
@settings(max_examples=150, deadline=None)
def test_fit_partitions_and_bounds_full_range_keys(keys, eps, chunking):
    ks = sorted(keys)
    head, chunk = chunking
    with mock.patch.multiple(segments, _SCALAR_HEAD=head, _FIRST_CHUNK=chunk):
        segs = _fit_segments(np.array(ks, dtype=np.uint64), eps)
    assert bits(segs) == bits(reference_fit(ks, eps))
    assert segs[0].start_rank == 0 and segs[-1].end_rank == len(ks)
    for a, b in zip(segs, segs[1:]):
        assert a.end_rank == b.start_rank
    for seg in segs:
        assert seg.end_rank > seg.start_rank
        assert seg.first_key == ks[seg.start_rank]
        for j in range(seg.start_rank, seg.end_rank):
            assert abs(seg.predict_rank(ks[j]) - j) <= eps
        if len(seg) > 1:
            assert seg.slope > 0
