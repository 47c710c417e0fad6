"""Benchmark harness: timing protocol, sweep drivers and CSV row types.

Timing protocol: per configuration, one warm-up pass over the query
sequence, then ``repeats`` measured passes; the reported figure is the
median pass time divided by the query count (medians resist scheduler
noise).  GC is disabled inside the measured region.  Every ratio is
computed against a plain dictionary timed alongside the structure: the
two alternate on blocks of ``PAIR_BLOCK`` queries of the identical
pre-shuffled order, and the ratio is the median per-pass ratio.  Machine
speed drifts in phases of seconds that move a lone pass by 20-30%;
alternating blocks lets such a phase slow both sides alike, so it drops
out of the ratio.  The side that leads a block rotates from block to
block: the side that runs second finds the block's keys already in cache
and reads faster, so a fixed order would favour one side.

``write_csv`` puts a leading ``schema`` column (currently 2) before the
row fields so the CSV layout can evolve without breaking downstream
plotting.  Splay rows are flagged ``order_sensitive`` because
self-adjustment makes their timings a function of the query order.
"""

from __future__ import annotations

import csv
import gc
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

from .binning import build_binning, pct_to_k
from .core import KEY_BYTES, AccessDistribution, DictboostError, SortedKeySet, gap_stats
from .dictionaries import parse_dict_specs
from .forest import ForestSweep, optimize_over_k
from .segments import build_segments
from .workloads import QueryWorkload

SCHEMA_VERSION = 2
DEFAULT_REPEATS = 5
DEFAULT_WARMUP = 1
DEFAULT_PCTS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0)
# queries per alternation; the callable that leads rotates by block, so
# the cache warmth a block leaves for the next side is shared evenly
PAIR_BLOCK = 1000


# ---------------------------------------------------------------------------
# timing
#
# Pure-Python dictionaries get timed with a plain attribute-lookup-free loop.
# Per-call overhead is identical across structures, so ratios stay fair even
# though absolute numbers mean nothing outside this process.


@contextmanager
def _gc_paused():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _passes(fns: Sequence[Callable[[int], object]], queries: list, repeats: int) -> list[list[int]]:
    """ns per callable in each of ``repeats`` timed passes, after
    ``DEFAULT_WARMUP`` untimed ones.  A pass runs the callables in turn on
    each block of ``PAIR_BLOCK`` queries, so each sees every query once, in
    order; block ``b`` is led by ``fns[b % len(fns)]``."""
    if not queries:
        raise DictboostError("cannot time an empty query sequence")
    if repeats < 1:
        raise DictboostError(f"need repeats >= 1, got {repeats}")
    clock = time.perf_counter_ns
    blocks = [queries[i : i + PAIR_BLOCK] for i in range(0, len(queries), PAIR_BLOCK)]
    m = len(fns)
    passes = []
    with _gc_paused():
        for _ in range(DEFAULT_WARMUP + repeats):
            ns = [0] * m
            for b, block in enumerate(blocks):
                for j in range(m):
                    i = (b + j) % m
                    f = fns[i]
                    t0 = clock()
                    for x in block:
                        f(x)
                    ns[i] += clock() - t0
            passes.append(ns)
    return passes[DEFAULT_WARMUP:]


def measure_ns_per_query(
    search: Callable[[int], object],
    queries: list,
    repeats: int = DEFAULT_REPEATS,
) -> float:
    """Median-of-``repeats`` nanoseconds per query, after
    ``DEFAULT_WARMUP`` untimed passes."""
    return statistics.median(p[0] for p in _passes([search], queries, repeats)) / len(queries)


def measure_paired_ns(
    search: Callable[[int], object],
    baseline: Callable[[int], object],
    queries: list,
    repeats: int = DEFAULT_REPEATS,
) -> tuple[float, float]:
    """(median-of-``repeats`` ns per query of ``search``, median per-pass
    ratio of its time to ``baseline``'s), the two timed in alternation on
    blocks of ``PAIR_BLOCK`` queries, each leading every other block."""
    passes = _passes([search, baseline], queries, repeats)
    mean = statistics.median(t for t, _ in passes) / len(queries)
    return mean, statistics.median(t / max(base, 1) for t, base in passes)


# ---------------------------------------------------------------------------
# rows


@dataclass
class BenchRecord:
    dataset_id: str
    dictionary_id: str
    model_id: str  # none | binning | segments
    model_param: float  # k for binning, epsilon for segments, 0 for none
    intervals: int
    routing_steps: int
    mean_query_ns: float
    prediction_ns: float
    final_search_ns: float
    space_overhead_pct: float
    ratio_vs_plain: float
    order_sensitive: bool


@dataclass
class DeltaRow:
    dataset_id: str
    status: str  # ok | skipped_small_n
    n: int
    g_min: int
    g_max: int
    delta: float
    ln_n: float
    ln2_n: float
    ln3_n: float
    ln4_n: float


@dataclass
class SpaceRow:
    dataset_id: str
    bound_pct: float
    family: str  # binning | segments
    status: str  # ok | infeasible
    dictionary_id: str
    model_param: float
    intervals: int
    space_overhead_pct: float
    mean_query_ns: float


@dataclass
class ForestRow:
    dataset_id: str
    mode: str
    k: int
    total_cost: float
    entropy_bits: float
    bound_slack: float  # entropy + 2 - cost; nonnegative for the exact best
    is_best: bool


def csv_header(row_type) -> list[str]:
    """The CSV columns: ``schema``, then the row type's fields."""
    return ["schema", *(f.name for f in fields(row_type))]


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def write_csv(rows: Sequence, out) -> None:
    """Write dataclass rows; ``out`` is a path or an open text file."""
    if not rows:
        raise DictboostError("no rows to write")
    header = csv_header(type(rows[0]))
    close = False
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        out = open(out, "w", newline="")
        close = True
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([SCHEMA_VERSION, *(_cell(getattr(row, name)) for name in header[1:])])
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# sweep drivers


# family -> build(keys, param, spec)
_MODELS = {"binning": build_binning, "segments": build_segments}


def _sweep(keys, workload, dict_specs, family, params, repeats, dataset_id) -> list[BenchRecord]:
    """Per dictionary: the plain baseline, then ``family`` at each param.
    The prediction time is capped at the mean so that the decomposition
    prediction + final == mean holds."""
    queries = workload.queries
    n = len(keys)
    records: list[BenchRecord] = []
    for dict_id, builder in parse_dict_specs(dict_specs):
        plain = builder(keys)
        plain_mean = measure_ns_per_query(plain.rank_search, queries, repeats)
        sensitive = dict_id == "splay"
        records.append(
            BenchRecord(
                dataset_id, dict_id, "none", 0.0, 1, 0,
                plain_mean, 0.0, plain_mean,
                100.0 * plain.overhead_bytes() / (KEY_BYTES * n), 1.0, sensitive,
            )
        )
        for param in params:
            d = _MODELS[family](keys, param, dict_id)
            mean, ratio = measure_paired_ns(d.rank_search, plain.rank_search, queries, repeats)
            pred = min(measure_ns_per_query(d.interval, queries, repeats), mean)
            records.append(
                BenchRecord(
                    dataset_id, dict_id, family, float(param), d.intervals,
                    d.routing_steps(), mean, pred, mean - pred,
                    d.space_overhead_pct(), ratio, sensitive,
                )
            )
    return records


def run_boost_sweep(
    keys: SortedKeySet,
    workload: QueryWorkload,
    dict_specs: str,
    pcts: Sequence[float] = DEFAULT_PCTS,
    repeats: int = DEFAULT_REPEATS,
    dataset_id: str = "dataset",
) -> list[BenchRecord]:
    """Plain baseline plus equal-width binning at each bin percentage."""
    ks = [pct_to_k(len(keys), pct) for pct in pcts]
    return _sweep(keys, workload, dict_specs, "binning", ks, repeats, dataset_id)


def default_epsilons(n: int) -> list[int]:
    """Powers of two in [1, n/2]."""
    if n < 2:
        return [1]
    return [1 << i for i in range(int(math.log2(n // 2)) + 1) if (1 << i) <= n // 2]


def run_epsilon_sweep(
    keys: SortedKeySet,
    workload: QueryWorkload,
    dict_specs: str,
    epsilons: Sequence[int] | None = None,
    repeats: int = DEFAULT_REPEATS,
    dataset_id: str = "dataset",
) -> list[BenchRecord]:
    """Plain baseline plus epsilon-segmented versions per dictionary."""
    eps_grid = list(epsilons) if epsilons is not None else default_epsilons(len(keys))
    return _sweep(keys, workload, dict_specs, "segments", eps_grid, repeats, dataset_id)


def delta_report(named_sets: Iterable[tuple[str, SortedKeySet]]) -> list[DeltaRow]:
    """Gap-ratio study rows with the polylog reference columns."""
    rows: list[DeltaRow] = []
    for name, keys in named_sets:
        n = len(keys)
        ln_n = math.log(n) if n else 0.0
        if n < 2:
            rows.append(
                DeltaRow(name, "skipped_small_n", n, 0, 0, 0.0,
                         ln_n, ln_n**2, ln_n**3, ln_n**4)
            )
            continue
        gs = gap_stats(keys)
        rows.append(
            DeltaRow(
                name, "ok", n, gs.g_min, gs.g_max, gs.delta,
                ln_n, ln_n**2, ln_n**3, ln_n**4,
            )
        )
    return rows


def default_space_k_grid(n: int) -> list[int]:
    """Geometric k grid reaching far below 1% overhead (a rank table of
    at most 8(k + 1) bytes vs 8n)."""
    grid = []
    k = 1
    while k < n:
        grid.append(k)
        k *= 4
    grid.append(n)
    return grid


def default_space_eps_grid(n: int) -> list[int]:
    return [e for e in default_epsilons(n) if e == 1 or e % 4 == 0]


def run_space_selection(
    keys: SortedKeySet,
    workload: QueryWorkload,
    dict_specs: str,
    bounds_pct: Sequence[float],
    k_grid: Sequence[int] | None = None,
    eps_grid: Sequence[int] | None = None,
    repeats: int = DEFAULT_REPEATS,
    dataset_id: str = "dataset",
) -> list[SpaceRow]:
    """Measure the configuration grids once, then report the fastest
    configuration under each space bound, per model family."""
    for bound in bounds_pct:
        if bound <= 0:
            raise DictboostError(f"space bound must be positive, got {bound}")
    queries = workload.queries
    n = len(keys)
    ks = sorted(set(k_grid if k_grid is not None else default_space_k_grid(n)))
    eps_list = sorted(set(eps_grid if eps_grid is not None else default_space_eps_grid(n)))
    grids = {"binning": [k for k in ks if 1 <= k <= n], "segments": eps_list}
    # (family, dict_id, param, intervals, overhead_pct, mean_ns)
    measured: list[tuple[str, str, float, int, float, float]] = []
    for dict_id, _ in parse_dict_specs(dict_specs):
        for family, params in grids.items():
            for param in params:
                d = _MODELS[family](keys, param, dict_id)
                mean = measure_ns_per_query(d.rank_search, queries, repeats)
                measured.append(
                    (family, dict_id, float(param), d.intervals, d.space_overhead_pct(), mean)
                )
    rows: list[SpaceRow] = []
    for bound in bounds_pct:
        for family in ("binning", "segments"):
            feasible = [m for m in measured if m[0] == family and m[4] <= bound]
            if not feasible:
                rows.append(
                    SpaceRow(dataset_id, bound, family, "infeasible",
                             "", 0.0, 0, 0.0, 0.0)
                )
                continue
            fam, dict_id, param, intervals, overhead, mean = min(feasible, key=lambda m: m[5])
            rows.append(
                SpaceRow(dataset_id, bound, fam, "ok",
                         dict_id, param, intervals, overhead, mean)
            )
    return rows


def run_forest_sweep(
    keys: SortedKeySet,
    dist: AccessDistribution,
    k_max: int,
    mode: str = "exact",
    dataset_id: str = "dataset",
) -> tuple[ForestSweep, list[ForestRow]]:
    sweep = optimize_over_k(keys, dist, k_max, mode)
    h = sweep.entropy_bits
    rows = [
        ForestRow(
            dataset_id, mode, k, cost, h, h + 2.0 - cost,
            k == sweep.best.k,
        )
        for k, cost in sweep.per_k
    ]
    return sweep, rows
