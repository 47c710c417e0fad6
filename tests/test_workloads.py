"""Key files, generators, query workloads and the CDF-matched subsampler.

The KS statistic gets cross-checked against scipy's implementation; the
subsampler's pick is recomputed trial by trial from the same seed spawn to
prove the reported best really is the smallest KL among accepted trials.
"""

import math

import numpy as np
import pytest
from scipy import stats

from dictboost.core import MAX_KEY, InvalidKeySetError, SortedKeySet
from dictboost.workloads import (
    AllTrialsRejectedError,
    KeyFileError,
    LoadResult,
    WorkloadError,
    estimate_pdf,
    gen_clustered,
    gen_queries,
    gen_uniform,
    kl_divergence,
    ks_critical,
    ks_statistic,
    load_keys,
    save_keys,
    subsample_matching_cdf,
)

from conftest import TEN_KEYS


class TestKeyFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "keys.u64"
        save_keys(TEN_KEYS, path)
        loaded = load_keys(path)
        assert isinstance(loaded, LoadResult)
        assert loaded.keys.as_list() == TEN_KEYS
        assert loaded.duplicates_removed == 0

    def test_unsorted_input_with_duplicates_is_normalized(self, tmp_path):
        path = tmp_path / "keys.u64"
        save_keys(np.array([5, 3, 5, 5, 1], dtype=np.uint64), path)
        loaded = load_keys(path)
        assert loaded.keys.as_list() == [1, 3, 5]
        assert loaded.duplicates_removed == 2

    def test_truncated_payload_reports_both_byte_counts(self, tmp_path):
        path = tmp_path / "broken.u64"
        save_keys(TEN_KEYS, path)
        data = path.read_bytes()
        path.write_bytes(data[: 8 + 3 * 8])  # header says 10, payload holds 3
        with pytest.raises(KeyFileError) as exc:
            load_keys(path)
        msg = str(exc.value)
        assert "88" in msg  # expected file size for 10 keys
        assert "24" in msg  # actual payload bytes

    def test_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "stub.u64"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(KeyFileError):
            load_keys(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((KeyFileError, OSError)):
            load_keys(tmp_path / "absent.u64")

    def test_plain_sequence_round_trips_and_bad_keys_are_refused(self, tmp_path):
        path = tmp_path / "keys.u64"
        save_keys([MAX_KEY, 0, np.uint64(7), 7], path)
        loaded = load_keys(path)
        assert loaded.keys.as_list() == [0, 7, MAX_KEY]
        assert loaded.duplicates_removed == 1
        for bad in ([1.7], [-1], [2**64]):
            with pytest.raises(InvalidKeySetError):
                save_keys(bad, path)
            assert load_keys(path).keys.as_list() == [0, 7, MAX_KEY], bad

    def test_empty_key_set_round_trips(self, tmp_path):
        path = tmp_path / "none.u64"
        save_keys([], path)
        assert len(load_keys(path).keys) == 0


class TestGenerators:
    def test_uniform_basic_contract(self):
        keys = gen_uniform(1000, 2**44, seed=1)
        arr = keys.array
        assert arr.size == 1000
        assert (np.diff(arr) > 0).all()
        assert int(arr[-1]) < 2**44
        assert keys.universe_hint == (0, 2**44 - 1)

    def test_uniform_is_deterministic_per_seed(self):
        a = gen_uniform(500, 10**9, seed=7)
        b = gen_uniform(500, 10**9, seed=7)
        c = gen_uniform(500, 10**9, seed=8)
        assert a == b
        assert a != c

    def test_uniform_saturated_universe_is_the_full_range(self):
        keys = gen_uniform(10, 10, seed=3)
        assert keys.as_list() == list(range(10))

    def test_uniform_dense_regime_still_distinct(self):
        keys = gen_uniform(4000, 5000, seed=9)
        assert len(keys) == 4000
        assert keys.hi < 5000

    def test_uniform_rejects_impossible_requests(self):
        with pytest.raises(WorkloadError):
            gen_uniform(11, 10, seed=0)
        with pytest.raises(WorkloadError):
            gen_uniform(0, 10, seed=0)

    def test_clustered_pins_extremes_and_stays_in_band(self):
        keys = gen_clustered(2000, outlier_fraction=0.001, seed=4)
        width = 4 * 2000 * 1000
        assert keys.lo == 0
        assert keys.hi == width - 1
        assert keys.universe_hint == (0, width - 1)
        # all but the outliers sit inside the central band
        band_lo = (width - 4 * 2000) // 2
        inside = [v for v in keys.as_list() if band_lo <= v < band_lo + 4 * 2000]
        assert len(inside) >= 2000 - 4

    def test_clustered_with_zero_outliers(self):
        keys = gen_clustered(100, outlier_fraction=0.0, seed=5)
        band_lo = (4 * 100 * 1000 - 400) // 2
        assert all(band_lo <= v < band_lo + 400 for v in keys.as_list())

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_generators_equal_the_np_unique_loops(self, seed):
        """The sort-and-mask dedup draws the same keys as the loops it
        replaced, which deduplicated with ``np.unique``; the sparse shapes
        collide often, so the loops run several rounds."""
        for n, universe in [(3000, 2**44), (3000, 8 * 3000 + 1), (4000, 5000)]:
            assert np.array_equal(
                gen_uniform(n, universe, seed).array, _np_unique_uniform(n, universe, seed)
            )
        for n, frac, spread in [(3000, 0.001, 1000), (500, 0.0, 1000), (800, 0.5, 1)]:
            assert np.array_equal(
                gen_clustered(n, frac, seed, spread).array,
                _np_unique_clustered(n, frac, seed, spread),
            )

    def test_clustered_validation(self):
        with pytest.raises(WorkloadError):
            gen_clustered(1, 0.1, seed=0)
        with pytest.raises(WorkloadError):
            gen_clustered(10, 1.5, seed=0)
        with pytest.raises(WorkloadError):
            gen_clustered(10, 0.1, seed=0, spread=0)

    def test_universe_ends_at_the_u64_range(self):
        """A universe of exactly 2**64 keys is drawn from; one more is a
        typed error rather than numpy's."""
        keys = gen_uniform(10, 2**64, seed=3)
        assert len(keys) == 10 and keys.universe_hint == (0, MAX_KEY)
        with pytest.raises(WorkloadError):
            gen_uniform(10, 2**64 + 1, seed=3)
        # width 4 * n * spread
        keys = gen_clustered(16, 0.25, seed=3, spread=2**58)
        assert keys.hi == MAX_KEY and keys.universe_hint == (0, MAX_KEY)
        with pytest.raises(WorkloadError):
            gen_clustered(16, 0.25, seed=3, spread=2**58 + 1)


def _np_unique_uniform(n, universe, seed):
    """The draw loop of ``gen_uniform`` as it was written with ``np.unique``."""
    rng = np.random.default_rng(seed)
    if universe <= 8 * n:
        return np.sort(rng.permutation(universe)[:n].astype(np.uint64))
    pool = np.empty(0, dtype=np.uint64)
    while pool.size < n:
        need = n - pool.size
        draw = rng.integers(0, universe, size=need + need // 8 + 16, dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, draw]))
    return np.sort(rng.permutation(pool)[:n])


def _np_unique_clustered(n, outlier_fraction, seed, spread):
    """The draw loop of ``gen_clustered`` as it was written with ``np.unique``."""
    band_width = 4 * n
    width = band_width * spread
    band_lo = (width - band_width) // 2
    n_out = min(n, max(2, round(n * outlier_fraction))) if outlier_fraction > 0 else 0
    rng = np.random.default_rng(seed)
    parts = []
    if n_out:
        pinned = np.array([0, width - 1], dtype=np.uint64)
        extra = rng.integers(0, width, size=n_out - 2, dtype=np.uint64)
        parts.append(np.concatenate([pinned, extra]))
    pool = np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.uint64)
    while pool.size < n:
        need = n - pool.size
        draw = rng.integers(band_lo, band_lo + band_width, size=need + need // 8 + 16,
                            dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, draw]))
    return np.sort(rng.permutation(pool)[:n]) if pool.size > n else pool


class TestQueryWorkloads:
    def test_hit_fraction_extremes(self):
        keys = gen_uniform(500, 10**8, seed=2)
        all_hits = gen_queries(keys, 200, hit_fraction=1.0, seed=1)
        assert all_hits.labels.all()
        assert all_hits.realized_hit_fraction == 1.0
        no_hits = gen_queries(keys, 200, hit_fraction=0.0, seed=1)
        assert not no_hits.labels.any()

    def test_labels_are_truthful(self):
        keys = gen_uniform(300, 10**7, seed=6)
        wl = gen_queries(keys, 400, hit_fraction=0.5, seed=3)
        members = set(keys.as_list())
        for x, lab in zip(wl.queries, wl.labels):
            assert (x in members) == bool(lab)

    def test_realized_fraction_close_to_requested(self):
        keys = gen_uniform(1000, 2**40, seed=11)
        wl = gen_queries(keys, 10000, hit_fraction=0.5, seed=4)
        assert wl.realized_hit_fraction == pytest.approx(0.5, abs=0.01)
        assert len(wl) == 10000

    def test_deterministic_per_seed(self):
        keys = gen_uniform(100, 10**6, seed=1)
        a = gen_queries(keys, 50, 0.5, seed=9)
        b = gen_queries(keys, 50, 0.5, seed=9)
        assert a.queries == b.queries
        assert (a.labels == b.labels).all()

    def test_saturated_universe_cannot_provide_misses(self):
        keys = SortedKeySet(list(range(10)), universe_hint=(0, 9))
        with pytest.raises(WorkloadError):
            gen_queries(keys, 10, hit_fraction=0.5, seed=0)
        hits_only = gen_queries(keys, 10, hit_fraction=1.0, seed=0)
        assert hits_only.labels.all()

    def test_validation(self):
        keys = gen_uniform(10, 1000, seed=0)
        with pytest.raises(WorkloadError):
            gen_queries(keys, -1, 0.5, seed=0)
        with pytest.raises(WorkloadError):
            gen_queries(keys, 10, 1.5, seed=0)
        with pytest.raises(WorkloadError):
            gen_queries(SortedKeySet([]), 10, 0.5, seed=0)


class TestDistributionTools:
    def test_ks_statistic_frozen_cases(self):
        a = np.array([1, 2, 3, 4], dtype=np.uint64)
        assert ks_statistic(a, a) == 0.0
        b = np.array([100, 200, 300], dtype=np.uint64)
        assert ks_statistic(a, b) == 1.0

    def test_ks_statistic_matches_scipy(self):
        rng = np.random.default_rng(13)
        for m, n in [(50, 80), (200, 200), (37, 1000)]:
            a = rng.integers(0, 10**6, m)
            b = rng.integers(0, 10**6, n)
            want = stats.ks_2samp(a, b, method="asymp").statistic
            assert ks_statistic(a, b) == pytest.approx(want, abs=1e-12)

    def test_ks_critical_formula(self):
        # c(0.05) = sqrt(-ln(0.025)/2) = 1.3581, times sqrt((m+n)/(m n))
        got = ks_critical(100, 400, alpha=0.05)
        assert got == pytest.approx(1.3581015 * math.sqrt(500 / 40000), rel=1e-6)
        assert ks_critical(10, 10, 0.01) > ks_critical(10, 10, 0.10)

    def test_estimate_pdf_is_a_smoothed_density(self):
        pdf = estimate_pdf(np.array([5.0] * 100), bins=10, lo=0, hi=100)
        assert pdf.sum() == pytest.approx(1.0)
        assert (pdf > 0).all()
        assert pdf[0] == pdf.max()

    def test_kl_divergence_properties(self):
        p = np.array([0.5, 0.3, 0.2])
        assert kl_divergence(p, p) == 0.0
        q = np.array([0.6, 0.3, 0.1])
        assert kl_divergence(p, q) > 0
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))
        with pytest.raises(WorkloadError):
            kl_divergence(p, np.array([0.5, 0.5]))


class TestSubsampler:
    def test_accepts_and_returns_a_true_subset(self):
        keys = gen_uniform(20000, 2**40, seed=21)
        sample, report = subsample_matching_cdf(keys, target_n=500, trials=20, seed=5)
        assert len(sample) == 500
        members = set(keys.as_list())
        assert all(v in members for v in sample.as_list())
        assert report.accepted >= 19  # honest subsamples essentially never reject
        assert report.best_ks <= report.ks_critical

    def test_reported_best_is_the_minimum_kl_among_accepted(self):
        """Re-run the trial loop from the same seed spawn and verify the
        selection: smallest KL among KS-accepted trials, trial index and
        all."""
        keys = gen_uniform(8000, 2**38, seed=30)
        target, trials, seed = 300, 25, 77
        sample, report = subsample_matching_cdf(keys, target, trials, seed)

        source = keys.array
        bins = math.ceil(math.sqrt(len(keys)))
        source_pdf = estimate_pdf(source, bins, keys.lo, keys.hi)
        crit = ks_critical(target, len(keys), 0.05 / trials)
        assert report.ks_critical == pytest.approx(crit)

        best = None
        accepted = 0
        for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
            rng = np.random.default_rng(child)
            idx = rng.choice(len(keys), size=target, replace=False)
            trial_sample = np.sort(source[idx])
            d = ks_statistic(trial_sample, source)
            if d > crit:
                continue
            accepted += 1
            kl = kl_divergence(
                estimate_pdf(trial_sample, bins, keys.lo, keys.hi), source_pdf
            )
            if best is None or kl < best[0]:
                best = (kl, t, trial_sample)
        assert accepted == report.accepted
        assert best is not None
        assert report.best_kl == pytest.approx(best[0], abs=1e-15)
        assert report.best_trial == best[1]
        assert sample.as_list() == [int(v) for v in best[2]]

    def test_all_rejected_raises_with_diagnostics(self, monkeypatch):
        import dictboost.workloads as wl

        keys = gen_uniform(2000, 2**30, seed=2)
        monkeypatch.setattr(wl, "ks_statistic", lambda a, b: 1.0)
        with pytest.raises(AllTrialsRejectedError) as exc:
            wl.subsample_matching_cdf(keys, 100, trials=5, seed=1)
        assert exc.value.best_ks == 1.0
        assert exc.value.ks_critical < 1.0
        assert "5" in str(exc.value)

    def test_target_size_validation(self):
        keys = gen_uniform(100, 10**6, seed=1)
        with pytest.raises(WorkloadError):
            subsample_matching_cdf(keys, 0, trials=5, seed=0)
        with pytest.raises(WorkloadError):
            subsample_matching_cdf(keys, 101, trials=5, seed=0)
        with pytest.raises(WorkloadError):
            subsample_matching_cdf(keys, 10, trials=0, seed=0)
