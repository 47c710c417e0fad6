"""Dataset and query-workload tooling for the benchmark harness.

Key files are flat little-endian binary: an 8-byte u64 count followed by
that many 8-byte u64 keys.  The loader tolerates unsorted input with
duplicates (it sorts, dedups and reports how many it dropped) but rejects
truncated files loudly.

Generators cover the two shapes the benchmarks care about: near-uniform
key sets (gap ratio around ln n) and clustered sets whose few extreme
outliers stretch the key range until almost every equal-width bin is
empty.  Query workloads mix present and absent keys at a requested rate
in one pre-shuffled sequence, so measured structures see an identical
query order.

For distribution-matched downsampling, candidate subsamples are screened
with a two-sample Kolmogorov-Smirnov test at the 5% asymptotic level and
ranked by the KL divergence of their histogram density against the
source's; the winner is the accepted candidate with the smallest KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import MAX_KEY, DictboostError, SortedKeySet, _u64_array, sorted_unique

HEADER_BYTES = 8
KEY_DTYPE = np.dtype("<u8")


class KeyFileError(DictboostError):
    """Malformed key file (bad header, truncated payload)."""


class WorkloadError(DictboostError):
    """Impossible workload request (saturated universe, bad parameters)."""


class AllTrialsRejectedError(WorkloadError):
    """Every subsample trial failed the KS screen; carries diagnostics."""

    def __init__(self, message: str, best_ks: float, ks_critical: float):
        super().__init__(message)
        self.best_ks = best_ks
        self.ks_critical = ks_critical


# ---------------------------------------------------------------------------
# key file IO


def save_keys(keys: SortedKeySet | Sequence[int] | np.ndarray, path: str | Path) -> None:
    """Write u64 ``keys`` in any order (the loader sorts and dedups)."""
    arr = keys.array if isinstance(keys, SortedKeySet) else _u64_array(keys)
    with open(path, "wb") as fh:
        fh.write(np.uint64(arr.size).astype(KEY_DTYPE).tobytes())
        fh.write(arr.astype(KEY_DTYPE).tobytes())


class LoadResult(NamedTuple):
    keys: SortedKeySet
    duplicates_removed: int


def load_keys(path: str | Path) -> LoadResult:
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_BYTES:
        raise KeyFileError(
            f"{path}: header needs {HEADER_BYTES} bytes, file has {len(raw)}"
        )
    count = int(np.frombuffer(raw, dtype=KEY_DTYPE, count=1)[0])
    expected = HEADER_BYTES + 8 * count
    payload = len(raw) - HEADER_BYTES
    if len(raw) != expected:
        raise KeyFileError(
            f"{path}: count header says {count} keys so the file should be "
            f"{expected} bytes, but the payload is {payload} bytes"
        )
    values = np.frombuffer(raw, dtype=KEY_DTYPE, offset=HEADER_BYTES)
    keys, dupes = SortedKeySet.from_unsorted(values)
    return LoadResult(keys, dupes)


# ---------------------------------------------------------------------------
# generators


def _draw_distinct(
    rng: np.random.Generator, pool: np.ndarray, n: int, lo: int, hi: int
) -> np.ndarray:
    """The sorted distinct ``pool`` topped up with keys drawn uniformly from
    ``[lo, hi)`` until it holds at least ``n``."""
    while pool.size < n:
        need = n - pool.size
        draw = rng.integers(lo, hi, size=need + need // 8 + 16, dtype=np.uint64)
        pool = sorted_unique(np.concatenate([pool, draw]))
    return pool


def gen_uniform(n: int, universe: int, seed: int) -> SortedKeySet:
    """n distinct keys uniform over [0, universe), deterministic per seed."""
    if n < 1:
        raise WorkloadError(f"need n >= 1, got {n}")
    if universe < n:
        raise WorkloadError(f"universe {universe} cannot hold {n} distinct keys")
    if universe > MAX_KEY + 1:
        raise WorkloadError(f"universe {universe} exceeds the 2**64 u64 keys")
    rng = np.random.default_rng(seed)
    if universe <= 8 * n:
        # dense regime: a partial permutation is cheaper than rejection
        chosen = rng.permutation(universe)[:n].astype(np.uint64)
        return SortedKeySet(np.sort(chosen), universe_hint=(0, universe - 1))
    pool = _draw_distinct(rng, np.empty(0, dtype=np.uint64), n, 0, universe)
    chosen = rng.permutation(pool)[:n]
    return SortedKeySet(np.sort(chosen), universe_hint=(0, universe - 1))


def gen_clustered(
    n: int, outlier_fraction: float, seed: int, spread: int = 1000
) -> SortedKeySet:
    """A dense band of keys plus a few outliers pinned to the extremes.

    The band is ~4 keys wide per key and sits mid-universe; the universe is
    ``spread`` times wider than the band, so equal-width binning at k = n
    leaves all but ~1/spread of the bins empty.
    """
    if n < 2:
        raise WorkloadError(f"need n >= 2, got {n}")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise WorkloadError(f"outlier_fraction must be in [0, 1], got {outlier_fraction}")
    if spread < 1:
        raise WorkloadError(f"spread must be >= 1, got {spread}")
    band_width = 4 * n
    width = band_width * spread
    if width > MAX_KEY + 1:
        raise WorkloadError(f"universe width 4*n*spread = {width} exceeds the 2**64 u64 keys")
    band_lo = (width - band_width) // 2
    n_out = min(n, max(2, round(n * outlier_fraction))) if outlier_fraction > 0 else 0
    rng = np.random.default_rng(seed)
    pool = np.empty(0, dtype=np.uint64)
    if n_out:
        pinned = np.array([0, width - 1], dtype=np.uint64)
        extra = rng.integers(0, width, size=n_out - 2, dtype=np.uint64)
        pool = sorted_unique(np.concatenate([pinned, extra]))
    pool = _draw_distinct(rng, pool, n, band_lo, band_lo + band_width)
    chosen = np.sort(rng.permutation(pool)[:n]) if pool.size > n else pool
    return SortedKeySet(chosen, universe_hint=(0, width - 1))


# ---------------------------------------------------------------------------
# query workloads


@dataclass
class QueryWorkload:
    """A pre-shuffled query sequence with ground-truth membership labels."""

    queries: list
    labels: np.ndarray

    @cached_property
    def array(self) -> np.ndarray:
        return np.asarray(self.queries, dtype=np.uint64)

    @property
    def realized_hit_fraction(self) -> float:
        return float(self.labels.mean()) if len(self.queries) else 0.0

    def __len__(self) -> int:
        return len(self.queries)


def gen_queries(
    keys: SortedKeySet, m: int, hit_fraction: float, seed: int
) -> QueryWorkload:
    """m queries, ``hit_fraction`` of them present keys drawn with
    replacement, the rest absent keys rejection-sampled from the universe."""
    if not 0.0 <= hit_fraction <= 1.0:
        raise WorkloadError(f"hit_fraction must be in [0, 1], got {hit_fraction}")
    if m < 0:
        raise WorkloadError(f"need m >= 0, got {m}")
    if len(keys) == 0:
        raise WorkloadError("cannot query an empty key set")
    n_hit = round(m * hit_fraction)
    n_miss = m - n_hit
    u_lo, u_hi = keys.universe_hint if keys.universe_hint else (keys.lo, keys.hi)
    universe_size = u_hi - u_lo + 1
    if n_miss > 0 and universe_size <= len(keys):
        raise WorkloadError(
            "universe is saturated by the key set; no absent keys exist"
        )
    rng = np.random.default_rng(seed)
    arr = keys.array
    hits = rng.choice(arr, size=n_hit, replace=True) if n_hit else np.empty(0, dtype=np.uint64)
    misses = np.empty(0, dtype=np.uint64)
    stall = 0
    while misses.size < n_miss:
        need = n_miss - misses.size
        draw = rng.integers(u_lo, u_hi + 1, size=need + need // 4 + 16, dtype=np.uint64)
        pos = np.searchsorted(arr, draw)
        member = (pos < arr.size) & (arr[np.minimum(pos, arr.size - 1)] == draw)
        fresh = draw[~member]
        misses = np.concatenate([misses, fresh[:need]])
        stall = stall + 1 if fresh.size == 0 else 0
        if stall > 1000:
            raise WorkloadError("absent-key rejection sampling stalled")
    values = np.concatenate([hits, misses])
    labels = np.concatenate([np.ones(n_hit, bool), np.zeros(n_miss, bool)])
    order = rng.permutation(m)
    values, labels = values[order], labels[order]
    # recheck labels against actual membership; generation must be consistent
    pos = np.searchsorted(arr, values)
    actual = (pos < arr.size) & (arr[np.minimum(pos, arr.size - 1)] == values)
    if not np.array_equal(actual, labels):
        raise AssertionError("query labels disagree with membership")
    return QueryWorkload(queries=values.tolist(), labels=labels)


# ---------------------------------------------------------------------------
# distribution matching


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup|F_a - F_b| (exact)."""
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    if a.size == 0 or b.size == 0:
        raise WorkloadError("KS statistic needs nonempty samples")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_critical(m: int, n: int, alpha: float = 0.05) -> float:
    """Asymptotic two-sample acceptance threshold c(alpha)*sqrt((m+n)/(m*n))."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((m + n) / (m * n))


def estimate_pdf(values: np.ndarray, bins: int, lo: int, hi: int) -> np.ndarray:
    """Histogram density with add-one smoothing so KL never divides by zero."""
    counts, _ = np.histogram(np.asarray(values, dtype=np.float64), bins=bins, range=(lo, hi))
    smoothed = counts.astype(np.float64) + 1.0
    return smoothed / smoothed.sum()


def kl_divergence(pdf_a: np.ndarray, pdf_b: np.ndarray) -> float:
    """KL(a || b) in nats over matching histogram supports."""
    pa = np.asarray(pdf_a, dtype=np.float64)
    pb = np.asarray(pdf_b, dtype=np.float64)
    if pa.shape != pb.shape:
        raise WorkloadError("pdf shapes differ")
    mask = pa > 0
    return float((pa[mask] * np.log(pa[mask] / pb[mask])).sum())


@dataclass(frozen=True)
class SubsampleReport:
    trials: int
    accepted: int
    ks_critical: float
    best_trial: int
    best_ks: float
    best_kl: float

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials if self.trials else 0.0


SUBSAMPLE_ALPHA = 0.05  # familywise KS screening level of subsample_matching_cdf


def subsample_matching_cdf(
    keys: SortedKeySet, target_n: int, trials: int, seed: int
) -> tuple[SortedKeySet, SubsampleReport]:
    """Draw ``trials`` uniform subsamples of size ``target_n``, keep those
    the KS test cannot distinguish from the source, and return the accepted
    one with the smallest histogram-KL divergence.

    ``SUBSAMPLE_ALPHA`` is the familywise screening level: each trial is
    tested at SUBSAMPLE_ALPHA/trials (Bonferroni), so the expected number
    of honest subsamples rejected across the whole batch stays below it.
    A flat per-trial 0.05 would throw away ~5% of perfectly good
    subsamples, which is noise, not signal, when the candidates are
    literal subsets of the source.
    """
    n = len(keys)
    if not 1 <= target_n <= n:
        raise WorkloadError(f"target size {target_n} outside [1, {n}]")
    if trials < 1:
        raise WorkloadError(f"need trials >= 1, got {trials}")
    source = keys.array
    crit = ks_critical(target_n, n, SUBSAMPLE_ALPHA / trials)
    bins = math.ceil(math.sqrt(n))
    source_pdf = estimate_pdf(source, bins, keys.lo, keys.hi)
    children = np.random.SeedSequence(seed).spawn(trials)
    best: tuple[float, int, float, np.ndarray] | None = None  # (kl, trial, ks, sample)
    accepted = 0
    best_ks_seen = math.inf
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        idx = rng.choice(n, size=target_n, replace=False)
        sample = np.sort(source[idx])
        d = ks_statistic(sample, source)
        best_ks_seen = min(best_ks_seen, d)
        if d > crit:
            continue
        accepted += 1
        kl = kl_divergence(estimate_pdf(sample, bins, keys.lo, keys.hi), source_pdf)
        if best is None or kl < best[0]:
            best = (kl, t, d, sample)
    if best is None:
        raise AllTrialsRejectedError(
            f"all {trials} subsample trials rejected "
            f"(best KS {best_ks_seen:.4g} vs critical {crit:.4g})",
            best_ks=best_ks_seen,
            ks_critical=crit,
        )
    kl, t, d, sample = best
    report = SubsampleReport(
        trials=trials,
        accepted=accepted,
        ks_critical=crit,
        best_trial=t,
        best_ks=d,
        best_kl=kl,
    )
    return SortedKeySet(sample, universe_hint=keys.universe_hint), report
