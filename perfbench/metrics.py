"""Names, units and meaning of everything the benchmark reports.

``BENCHMARK.json`` at the repository root declares the workloads, the gated
end-to-end metrics with their bounds, and the per-layer metrics; the tests
check that these tables and that file agree.  The tables here also carry what the JSON format has
no room for: which end-to-end metric each per-layer metric should move,
and on which workload.
"""

from __future__ import annotations

from typing import NamedTuple

UNIFORM = "uniform-binned"
CLUSTERED = "clustered-segments"
DYNAMIC = "dynamic-mixed"
STATIC = (UNIFORM, CLUSTERED)


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS = (
    Workload(
        UNIFORM,
        "1M uniform keys, k = n/10 equal-width bins: O(1) routing into ~10-key bins, so "
        "work sits in binning and result assembly; segments never run",
    ),
    Workload(
        CLUSTERED,
        "1M clustered keys whose outliers stretch the range 1000x, eps = 16 segments: "
        "the fit dominates setup, ~1k-key inner searches dominate queries; binning never runs",
    ),
    Workload(
        DYNAMIC,
        "20k keys in 256 splay bins under a 1:1:2 insert:delete:search stream with >= 3 "
        "update-count rebuild cycles: writes beside reads, in an L2-sized working set",
    ),
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # allowed worsening, as a share of the parent's median


#: Gated end-to-end metrics, reported by every untraced run of every workload.
#: On ``dynamic-mixed`` the query metrics count only the stream's search ops.
#: The time bounds are wide: on the shared 2-vCPU VM the benchmark was tuned
#: on, speed drifted by 20-30% over seconds to minutes, and repeated runs of
#: one seed differed by that much.  ``query_ns_p99`` is printed but not gated:
#: the drift moved it most, and its quartile spread over ten runs reached 0.27
#: on ``uniform-binned`` and 0.24 on ``dynamic-mixed``, against the largest
#: bound a gated metric may have, 0.25.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("query_ns_p50", "ns", "lower", 0.25),
    Metric("query_kqps", "kq/s", "higher", 0.25),
    Metric("structure_mb", "MB", "lower", 0.05),
)

class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric(s) this layer metric should move
    on: tuple[str, ...]  # workloads whose path runs this layer


_ALL = (UNIFORM, CLUSTERED, DYNAMIC)
_EXPLAIN = "explains dictionaries.search_ns_p50"

#: Per-layer metrics, reported by every traced run.  A layer that is not on a
#: workload's path reports 0 there.
PER_LAYER = (
    LayerMetric("core.keyset_s", "s", "lower", "setup_s", _ALL),
    LayerMetric("core.as_list_s", "s", "lower", "setup_s", _ALL),
    LayerMetric("core.outcome_ns", "ns", "lower", "query_ns_p50, query_kqps", (UNIFORM,)),
    LayerMetric("binning.bin_starts_s", "s", "lower", "setup_s", (UNIFORM,)),
    LayerMetric("binning.route_ns_p50", "ns", "lower", "query_ns_p50", (UNIFORM,)),
    LayerMetric("binning.max_bin_load", "count", "lower", _EXPLAIN, (UNIFORM,)),
    LayerMetric("binning.empty_bins", "count", "lower", _EXPLAIN, (UNIFORM,)),
    LayerMetric("binning.queried_load_mean", "count", "lower", _EXPLAIN, (UNIFORM,)),
    LayerMetric("binning.short_circuit_fraction", "ratio", "higher", _EXPLAIN, (UNIFORM,)),
    LayerMetric("segments.fit_s", "s", "lower", "setup_s", (CLUSTERED,)),
    LayerMetric("segments.route_ns_p50", "ns", "lower", "query_ns_p50", (CLUSTERED,)),
    LayerMetric("segments.count", "count", "lower", _EXPLAIN, (CLUSTERED,)),
    LayerMetric("segments.max_len", "count", "lower", _EXPLAIN, (CLUSTERED,)),
    LayerMetric("segments.queried_len_mean", "count", "lower", _EXPLAIN, (CLUSTERED,)),
    LayerMetric("segments.max_residual", "count", "lower", _EXPLAIN, (CLUSTERED,)),
    LayerMetric("dictionaries.build_s", "s", "lower", "setup_s, structure_mb", STATIC),
    LayerMetric("dictionaries.search_ns_p50", "ns", "lower", "query_ns_p50, query_kqps", STATIC),
    LayerMetric("dynamic.insert_ns_p50", "ns", "lower", "update_ns_p50, stream_kops", (DYNAMIC,)),
    LayerMetric("dynamic.delete_ns_p50", "ns", "lower", "update_ns_p50, stream_kops", (DYNAMIC,)),
    LayerMetric("dynamic.search_ns_p50", "ns", "lower", "query_ns_p50, stream_kops", (DYNAMIC,)),
    LayerMetric("dynamic.rebuilds.update_count", "count", "lower", "stream_kops", (DYNAMIC,)),
    LayerMetric("dynamic.rebuilds.delta_growth", "count", "lower", "stream_kops", (DYNAMIC,)),
    LayerMetric("dynamic.rebuilds.out_of_range", "count", "lower", "stream_kops", (DYNAMIC,)),
    LayerMetric("dynamic.touches_per_update", "count", "lower", "stream_kops", (DYNAMIC,)),
    LayerMetric("dynamic.rebuild_s_total", "s", "lower", "stream_kops, update_ns_p99", (DYNAMIC,)),
    LayerMetric("dynamic.rebuild_ms_max", "ms", "lower", "stream_kops, update_ns_p99", (DYNAMIC,)),
    LayerMetric("workloads.gen_keys_s", "s", "lower", "none: input preparation", _ALL),
    LayerMetric("workloads.gen_queries_s", "s", "lower", "none: input preparation", STATIC),
    LayerMetric("streams.gen_s", "s", "lower", "none: input preparation", (DYNAMIC,)),
    LayerMetric("trace.overhead_pct", "%", "lower", "none: cost of tracing itself", _ALL),
)

#: Reference baselines, timed in the same process on the same query list.
#: They move no end-to-end metric.
REFERENCES = ("ref.plain_ns_p50", "ref.bisect_ns_p50", "ref.searchsorted_batch_ns")
