"""Stream generators and the lockstep oracle replay.

The replay is itself a test harness, so these tests mostly check that it
is trustworthy: that it catches a structure that lies (via monkeypatched
mutators), that clean runs replay to the end, and that the rebuild
cadence visible through checkpoints matches the trigger policy.
"""

import math
from bisect import bisect_left, insort

import numpy as np
import pytest

from dictboost.core import MAX_KEY, DictboostError, SortedKeySet
from dictboost.dynamic import DynamicBinDict
from dictboost.streams import (
    OP_DELETE,
    OP_INSERT,
    OP_SEARCH,
    StreamDivergenceError,
    UpdateStream,
    gen_adversarial_stream,
    gen_hot_range_stream,
    gen_uniform_stream,
    replay_stream,
)
from dictboost.workloads import gen_clustered, gen_uniform

from conftest import TEN_KEYS


def manual_stream(ops):
    return UpdateStream(ops=tuple(ops), generator="manual")


def reference_adversarial_stream(initial, n_ops, seed=0):
    """The first gap-shrinker: it measures every gap of the whole mirror
    on every op (int64, so keys below 2**63 only)."""
    mirror = initial.as_list()
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        gaps = np.diff(np.asarray(mirror, dtype=np.int64))
        open_idx = np.nonzero(gaps > 1)[0]
        if open_idx.size == 0:
            ops.append((OP_SEARCH, int(rng.integers(mirror[0], mirror[-1] + 1))))
            continue
        i = int(open_idx[np.argmin(gaps[open_idx])])
        a, b = mirror[i], mirror[i + 1]
        key = a + (b - a) // 2
        insort(mirror, key)
        ops.append((OP_INSERT, key))
    return ops


class TestUniformStream:
    def test_deterministic_per_seed(self):
        initial = SortedKeySet(TEN_KEYS)
        a = gen_uniform_stream(initial, 500, seed=3)
        b = gen_uniform_stream(initial, 500, seed=3)
        c = gen_uniform_stream(initial, 500, seed=4)
        assert a.ops == b.ops
        assert a.ops != c.ops
        assert len(a) == 500
        assert a.generator == "uniform"

    def test_mix_weights_shape_the_op_counts(self):
        initial = gen_uniform(50, 10**6, seed=5)
        stream = gen_uniform_stream(initial, 2000, mix=(1.0, 1.0, 2.0), seed=6)
        kinds = [op for op, _ in stream.ops]
        assert set(kinds) <= {OP_INSERT, OP_DELETE, OP_SEARCH}
        frac = {k: kinds.count(k) / len(kinds) for k in set(kinds)}
        assert 0.4 < frac[OP_SEARCH] < 0.6
        assert 0.18 < frac[OP_DELETE] < 0.32

    def test_deletes_always_target_present_keys(self):
        initial = SortedKeySet(TEN_KEYS, universe_hint=(0, 2000))
        stream = gen_uniform_stream(initial, 800, seed=7)
        mirror = list(TEN_KEYS)
        for op, key in stream.ops:
            if op == OP_DELETE:
                pos = bisect_left(mirror, key)
                assert pos < len(mirror) and mirror[pos] == key
                del mirror[pos]
            elif op == OP_INSERT:
                assert 0 <= key <= 2000  # universe hint is honored
                pos = bisect_left(mirror, key)
                if pos == len(mirror) or mirror[pos] != key:
                    mirror.insert(pos, key)
            else:
                assert 0 <= key <= 2000

    def test_validation(self):
        initial = SortedKeySet(TEN_KEYS)
        with pytest.raises(DictboostError):
            gen_uniform_stream(initial, -1)
        with pytest.raises(DictboostError):
            gen_uniform_stream(initial, 10, mix=(0.0, 0.0, 0.0))
        with pytest.raises(DictboostError):
            gen_uniform_stream(initial, 10, mix=(1.0, -0.5, 1.0))
        with pytest.raises(DictboostError):
            gen_uniform_stream(SortedKeySet([5]), 10)
        assert gen_uniform_stream(initial, 0).ops == ()


def hot_range_setup(n=2000, k=16, width=2**20, seed=5):
    """``n`` uniform keys in [0, 2^40) and a hot range of ``width`` keys
    amid bin 5 of ``k``, the one bin its fresh build routes it to."""
    initial = gen_uniform(n, 2**40, seed=seed)
    lo, hi = initial.lo, initial.hi
    hot_lo = lo + (hi - lo) * 11 // (2 * k)
    geometry = DynamicBinDict(initial, k)._geometry
    assert geometry.bin_of(hot_lo) == geometry.bin_of(hot_lo + width - 1) == 6
    return initial, hot_lo


class TestHotRangeStream:
    def test_inserts_and_searches_stay_in_the_hot_range(self):
        initial, hot_lo = hot_range_setup()
        stream = gen_hot_range_stream(initial, hot_lo, seed=3)
        assert stream.generator == "hot_range"
        inserts = [x for op, x in stream.ops if op == OP_INSERT]
        searches = [x for op, x in stream.ops if op == OP_SEARCH]
        assert len(inserts) == len(initial) // 2 - 1
        assert stream.ops[-1][0] == OP_INSERT
        assert searches and all(hot_lo <= x < hot_lo + 2**20 for x in inserts + searches)
        assert stream == gen_hot_range_stream(initial, hot_lo, seed=3)
        assert stream != gen_hot_range_stream(initial, hot_lo, seed=4)

    def test_deletes_always_target_present_keys(self):
        initial, hot_lo = hot_range_setup(n=300)
        stream = gen_hot_range_stream(initial, hot_lo, mix=(1, 3, 1), seed=2)
        present = set(initial.as_list())
        deletes = 0
        for op, x in stream.ops:
            if op == OP_INSERT:
                present.add(x)
            elif op == OP_DELETE:
                assert x in present
                present.remove(x)
                deletes += 1
        assert deletes > 100 and len(present) >= 2

    def test_a_range_at_the_top_of_u64(self):
        initial = SortedKeySet([0, 2**63, MAX_KEY - 2**10])
        stream = gen_hot_range_stream(initial, MAX_KEY - 2**10 + 1, width=2**10, seed=1)
        assert all(MAX_KEY - 2**10 < x <= MAX_KEY for _, x in stream.ops)
        replay_stream(initial, 4, stream)

    @pytest.mark.parametrize("hot_lo, width, mix", [
        (-1, 16, (1, 1, 2)),
        (MAX_KEY - 14, 16, (1, 1, 2)),
        (0, 0, (1, 1, 2)),
        (0, 16, (0, 1, 2)),
        (0, 16, (1, -1, 2)),
    ], ids=["below-u64", "past-u64", "no-width", "no-inserts", "negative-weight"])
    def test_validation(self, hot_lo, width, mix):
        with pytest.raises(DictboostError):
            gen_hot_range_stream(SortedKeySet(TEN_KEYS), hot_lo, width, mix)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_replays_against_the_oracle_with_a_long_bin(self, seed):
        """2k keys, k = 16: the hot bin grows past five times a uniform
        bin's load, its keys shift on every update, and the gap-ratio
        rebuilds recut bins that are packed arrays; every answer and the
        final contents match the sorted-list oracle."""
        initial, hot_lo = hot_range_setup()
        stream = gen_hot_range_stream(initial, hot_lo, seed=seed)
        result = replay_stream(initial, 16, stream)
        assert result.report.rebuilds_delta_growth >= 1
        assert result.report.rebuilds_out_of_range == 0
        assert result.occupancy[1] >= 5 * len(initial) // 16


class TestAdversarialStream:
    def test_fills_the_hull_then_searches(self):
        initial = SortedKeySet([0, 16])
        stream = gen_adversarial_stream(initial, 20, seed=1)
        inserts = [key for op, key in stream.ops if op == OP_INSERT]
        searches = [key for op, key in stream.ops if op == OP_SEARCH]
        # 15 interior slots, then the generator runs out of open gaps
        assert sorted(inserts) == list(range(1, 16))
        assert len(searches) == 5
        assert all(op == OP_INSERT for op, _ in stream.ops[:15])
        assert all(0 <= key <= 16 for key in searches)

    def test_each_insert_halves_a_smallest_open_gap(self):
        initial = SortedKeySet([i * 1024 for i in range(5)])
        stream = gen_adversarial_stream(initial, 60, seed=2)
        mirror = initial.as_list()
        for op, key in stream.ops:
            if op != OP_INSERT:
                continue
            pos = bisect_left(mirror, key)
            assert mirror[pos] != key, "inserted an existing key"
            a, b = mirror[pos - 1], mirror[pos]
            open_gaps = [y - x for x, y in zip(mirror, mirror[1:]) if y - x > 1]
            assert b - a == min(open_gaps)
            assert key == a + (b - a) // 2
            insort(mirror, key)

    @pytest.mark.parametrize("keys, n_ops", [
        ([0, 16], 20),
        ([0, 1, 2, 3, 10], 30),
        ([i * 1024 for i in range(65)], 3000),
        ([0, 1, 3, 7, 15, 31, 63, 127, 255, 1000, 1001, 5000], 2500),
        (gen_uniform(300, 10**7, seed=3).as_list(), 2000),
        (gen_clustered(400, outlier_fraction=0.01, seed=4).as_list(), 1500),
        ([2**62, 2**62 + 2**20, 2**63 - 2**40, 2**63 - 1], 400),
    ], ids=["hull-16", "one-open-gap", "spaced-1024", "doubling", "uniform", "clustered",
            "below-2^63"])
    def test_same_stream_as_the_full_scan_generator(self, keys, n_ops):
        initial = SortedKeySet(keys)
        for seed in (0, 5):
            got = gen_adversarial_stream(initial, n_ops, seed=seed).ops
            assert list(got) == reference_adversarial_stream(initial, n_ops, seed=seed)

    def test_keys_at_the_top_of_u64(self):
        initial = SortedKeySet([0, 2**63, MAX_KEY - 3, MAX_KEY])
        stream = gen_adversarial_stream(initial, 200, seed=6)
        mirror = initial.as_list()
        for op, key in stream.ops[:120]:  # the smallest gap first, then the next
            assert op == OP_INSERT
            pos = bisect_left(mirror, key)
            open_gaps = [y - x for x, y in zip(mirror, mirror[1:]) if y - x > 1]
            assert mirror[pos] - mirror[pos - 1] == min(open_gaps)
            insort(mirror, key)
        assert mirror[-4:] == [MAX_KEY - 3, MAX_KEY - 2, MAX_KEY - 1, MAX_KEY]
        tight = SortedKeySet([MAX_KEY - 3, MAX_KEY])
        ops = gen_adversarial_stream(tight, 40, seed=7).ops
        assert ops[:2] == ((OP_INSERT, MAX_KEY - 2), (OP_INSERT, MAX_KEY - 1))
        assert {op for op, _ in ops[2:]} == {OP_SEARCH}
        assert {key for _, key in ops[2:]} <= set(range(MAX_KEY - 3, MAX_KEY + 1))
        assert MAX_KEY in {key for _, key in ops[2:]}

    def test_insert_prefix_is_seed_independent(self):
        initial = SortedKeySet([0, 64])
        a = gen_adversarial_stream(initial, 40, seed=10)
        b = gen_adversarial_stream(initial, 40, seed=11)
        a_ins = [x for x in a.ops if x[0] == OP_INSERT]
        assert a_ins == [x for x in b.ops if x[0] == OP_INSERT]


class TestReplay:
    @pytest.mark.parametrize("k", [1, 8, 111])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_uniform_streams_replay_clean(self, k, seed):
        initial = gen_uniform(300, 10**7, seed=20 + seed)
        stream = gen_uniform_stream(initial, 1500, seed=seed)
        result = replay_stream(initial, k, stream)
        assert result.ops_applied == 1500
        assert result.checkpoints[-1].ops_done == 1500
        done = [cp.ops_done for cp in result.checkpoints]
        assert done == sorted(done)
        for cp in result.checkpoints:
            assert cp.n >= 2
            assert cp.delta_hat >= 1.0
            assert cp.touches_per_update >= 0.0
        # rebuild counters never go backwards
        for a, b in zip(result.checkpoints, result.checkpoints[1:]):
            assert b.rebuilds_update_count >= a.rebuilds_update_count
            assert b.rebuilds_delta_growth >= a.rebuilds_delta_growth
            assert b.rebuilds_out_of_range >= a.rebuilds_out_of_range

    def test_checkpoint_cadence(self):
        initial = SortedKeySet([0, 1000], universe_hint=(0, 1000))
        stream = gen_uniform_stream(initial, 20, mix=(1, 0, 1), seed=4)
        explicit = replay_stream(initial, 4, stream, checkpoint_every=7)
        assert [cp.ops_done for cp in explicit.checkpoints] == [7, 14, 20]
        default = replay_stream(initial, 4, stream)
        assert [cp.ops_done for cp in default.checkpoints] == list(range(2, 21, 2))

    @pytest.mark.parametrize("every", [0, -3])
    def test_checkpoint_every_below_one_is_rejected(self, every):
        initial = SortedKeySet([0, 1000])
        stream = gen_uniform_stream(initial, 20, mix=(1, 0, 1), seed=4)
        with pytest.raises(DictboostError, match=f"checkpoint_every must be >= 1, got {every}"):
            replay_stream(initial, 4, stream, checkpoint_every=every)

    def test_pure_searches_cost_nothing(self):
        initial = SortedKeySet(TEN_KEYS)
        stream = manual_stream((OP_SEARCH, x) for x in range(0, 1000, 17))
        result = replay_stream(initial, 5, stream)
        last = result.checkpoints[-1]
        assert last.n == 10
        assert last.elements_touched == 0
        assert last.touches_per_update == 0.0
        assert result.report.total_updates == 0
        assert result.report.rebuilds_update_count == 0
        assert result.report.rebuilds_delta_growth == 0
        assert result.report.rebuilds_out_of_range == 0

    def test_update_count_rebuilds_land_on_window_boundaries(self):
        """Insert-only stream of fresh interior keys over a base that pins
        the smallest gap at 1: the ratio trigger can never fire, so the
        ledger should show one rebuild per half-size window, at exactly
        ops 6, 15 and 28 (windows of 12//2, 18//2 and 27//2 updates)."""
        base = [0, 1] + list(range(10, 101, 10))
        fresh = [x for x in range(2, 100) if x % 10 != 0][:28]
        stream = manual_stream((OP_INSERT, x) for x in fresh)
        result = replay_stream(SortedKeySet(base), 6, stream, checkpoint_every=1)
        assert result.report.rebuilds_update_count == 3
        assert result.report.rebuilds_delta_growth == 0
        assert result.report.rebuilds_out_of_range == 0
        landed = []
        prev = 0
        for cp in result.checkpoints:
            if cp.rebuilds_update_count > prev:
                landed.append(cp.ops_done)
                prev = cp.rebuilds_update_count
        assert landed == [6, 15, 28]

    def test_adversarial_ratio_rebuilds_telescope(self):
        """Gap halving drives the ratio from 1 toward 1024; each ratio
        rebuild at least doubles the threshold, so their total count is
        bounded by log2 of the highest threshold ever set."""
        initial = SortedKeySet([i * 1024 for i in range(17)])
        stream = gen_adversarial_stream(initial, 2000, seed=9)
        result = replay_stream(initial, 64, stream)
        rep = result.report
        assert rep.rebuilds_delta_growth >= 1
        assert rep.delta_max >= 2.0
        assert rep.rebuilds_delta_growth <= math.log2(rep.delta_max) + 1

    def test_replay_catches_a_lying_insert(self, monkeypatch):
        real_insert = DynamicBinDict.insert

        def lying(self, key):
            real_insert(self, key)
            return True  # claims success even for duplicates

        monkeypatch.setattr(DynamicBinDict, "insert", lying)
        stream = manual_stream([(OP_INSERT, 5), (OP_INSERT, 5)])
        with pytest.raises(StreamDivergenceError, match=r"op 1"):
            replay_stream(SortedKeySet([0, 100]), 2, stream)

    def test_replay_catches_silently_dropped_inserts(self, monkeypatch):
        monkeypatch.setattr(DynamicBinDict, "insert", lambda self, key: True)
        stream = manual_stream([(OP_INSERT, 5)])
        with pytest.raises(StreamDivergenceError, match="final contents"):
            replay_stream(SortedKeySet([0, 100]), 2, stream)

    def test_unknown_op_rejected(self):
        stream = manual_stream([("frobnicate", 1)])
        with pytest.raises(DictboostError, match="frobnicate"):
            replay_stream(SortedKeySet([0, 100]), 2, stream)
