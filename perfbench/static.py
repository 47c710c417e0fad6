"""The static workloads: ``uniform-binned`` and ``clustered-segments``.

Both build a model over 1M keys from a raw sorted u64 array and answer a
shuffled list of queries, half present and half absent, one
``rank_search`` call at a time (a closed loop with one caller).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from . import metrics as M
from .result import Result, derive_seeds
from .stats import across_passes, median, percentile
from .timing import (
    GC_POLICY,
    Deadline,
    gc_paused,
    structure_bytes,
    latency_pass,
    throughput_pass,
    timed,
)
from .tracer import Tracer

from dictboost import (
    SearchOutcome,
    SortedKeySet,
    bin_starts,
    build_binning,
    build_segments,
    gen_clustered,
    gen_queries,
    gen_uniform,
)
from dictboost.dictionaries import BranchyBinarySearch
from dictboost.segments import _fit_segments

HIT_FRACTION = 0.5
TRACED_PAIRS_MAX = 5  # untraced + traced query passes; each traced pass adds 100k spans
DICT_KIND = "bbs"  # BranchyBinarySearch


@dataclass(frozen=True)
class StaticSpec:
    name: str
    layer: str  # "binning" or "segments": the model module on this path
    param: int  # bin count k for binning, eps for segments
    n: int
    m: int  # queries
    make_keys: Callable[[int, int], SortedKeySet]  # (n, seed) -> keys
    setup_reps: int = 3  # timed set-ups per run

    def build(self, keys: SortedKeySet):
        if self.layer == "binning":
            return build_binning(keys, self.param, DICT_KIND)
        return build_segments(keys, self.param, DICT_KIND)


def _uniform_keys(n: int, seed: int) -> SortedKeySet:
    return gen_uniform(n, 2**44, seed)


def _clustered_keys(n: int, seed: int) -> SortedKeySet:
    return gen_clustered(n, outlier_fraction=0.001, seed=seed, spread=1000)


SPECS = {
    M.UNIFORM: StaticSpec(M.UNIFORM, "binning", 100_000, 1_000_000, 100_000, _uniform_keys, setup_reps=5),
    M.CLUSTERED: StaticSpec(M.CLUSTERED, "segments", 16, 1_000_000, 100_000, _clustered_keys),
}


@dataclass
class _Inputs:
    raw: np.ndarray  # sorted u64 keys, the input to setup
    hint: tuple[int, int] | None
    queries: list[int]
    want_rank: np.ndarray
    want_found: np.ndarray


def _oracle(raw: np.ndarray, qarr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rank = np.searchsorted(raw, qarr, side="left")
    found = (rank < raw.size) & (raw[np.minimum(rank, raw.size - 1)] == qarr)
    return rank, found


def _prepare(spec: StaticSpec, seed: int, tracer: Tracer | None = None):
    key_seed, query_seed = derive_seeds(seed)
    call = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
    keys = call("workloads.gen_keys", spec.make_keys, spec.n, key_seed)
    qw = call("workloads.gen_queries", gen_queries, keys, spec.m, HIT_FRACTION, query_seed)
    raw = np.array(keys.array)
    rank, found = _oracle(raw, qw.array)
    return _Inputs(raw, keys.universe_hint, qw.queries, rank, found)


def _setup(inp: _Inputs, spec: StaticSpec):
    return spec.build(SortedKeySet(inp.raw, universe_hint=inp.hint))


def count_wrong(answers: list, want_rank: np.ndarray, want_found: np.ndarray) -> int:
    """Answers that are not ``(rank, found)`` pairs equal to the oracle's;
    a raised call counts as wrong."""
    ranks = np.empty(len(answers), dtype=np.int64)
    found = np.empty(len(answers), dtype=bool)
    for i, a in enumerate(answers):
        try:
            ranks[i], found[i] = a
        except (TypeError, ValueError):  # a raised call, or not a pair
            ranks[i], found[i] = -1, False
    return int(((ranks != want_rank) | (found != want_found)).sum())


def _meta(spec: StaticSpec, seed: int) -> dict:
    return {
        "workload": spec.name,
        "seed": seed,
        "keys": spec.n,
        "queries": spec.m,
        "hit_fraction": HIT_FRACTION,
        "model": spec.layer,
        "bins" if spec.layer == "binning" else "eps": spec.param,
        "dictionary": DICT_KIND,
        "gc_policy": GC_POLICY,
        "loop": "closed, one caller, single-threaded",
    }


def run(spec: StaticSpec, seed: int, seconds: float) -> Result:
    """Untraced run: every end-to-end metric of a static workload."""
    res = Result(_meta(spec, seed))
    inp = _prepare(spec, seed)
    n, m = inp.raw.size, len(inp.queries)

    # set-ups are spread evenly over the run, so that their median spans the
    # same stretch of machine time as the queries do
    deadline = Deadline(seconds)
    setup_s: list[float] = []
    p50: list[float] = []
    p99: list[float] = []
    pass_s: list[float] = []
    structure = None
    while not deadline.expired() or len(setup_s) < spec.setup_reps:
        if len(setup_s) < spec.setup_reps and deadline.elapsed_share() >= len(setup_s) / spec.setup_reps:
            dt, spare = timed(_setup, inp, spec)
            setup_s.append(dt)
            if structure is None:
                structure, search = spare, [spare.rank_search] * m
            del spare
        ns, answers, _ = latency_pass(search, inp.queries)
        res.check(m, count_wrong(answers, inp.want_rank, inp.want_found))
        p50.append(percentile(ns, 50))
        p99.append(percentile(ns, 99))
        del answers, ns
        pass_s.append(throughput_pass(search, inp.queries))

    res.metric("setup_s", median(setup_s), "s")
    res.metric("query_ns_p50", across_passes(p50), "ns")
    res.info("query_ns_p99", across_passes(p99), "ns")
    res.metric("query_kqps", m / across_passes(pass_s) / 1e3, "kq/s")
    res.info("query_samples", m * len(p50), "count")
    res.info("latency_passes", len(p50), "count")
    res.info("throughput_passes", len(pass_s), "count")
    res.info("model_bytes_per_key", structure.space_bytes() / n, "B/key")
    del search
    structure = None

    references(res, inp.raw, inp.queries)
    res.metric("structure_mb", structure_bytes(_setup(inp, spec)) / 1e6, "MB")  # a separate build
    return res


def references(res: Result, raw: np.ndarray, queries: list[int]) -> None:
    """Baselines over the keys ``raw`` on the same query list, with the
    plain dictionary's answers checked; they move no end-to-end metric."""
    m = len(queries)
    qarr = np.array(queries, dtype=np.uint64)
    ks = raw.tolist()
    plain = BranchyBinarySearch.build(ks)
    ns, answers, _ = latency_pass([plain.rank_search] * m, queries)
    res.check(m, count_wrong(answers, *_oracle(raw, qarr)))
    res.info("ref.plain_ns_p50", percentile(ns, 50), "ns")
    ns, _, _ = latency_pass([lambda x: bisect_left(ks, x)] * m, queries)
    res.info("ref.bisect_ns_p50", percentile(ns, 50), "ns")
    batch = []
    for _ in range(5):
        dt, _ = timed(np.searchsorted, raw, qarr)
        batch.append(dt * 1e9 / m)
    res.info("ref.searchsorted_batch_ns", median(batch), "ns")


# ---------------------------------------------------------------------------
# traced run


def _boundaries(spec: StaticSpec, tracer: Tracer, keys: SortedKeySet, ks: list[int]):
    """The interval boundaries as (start, end) rank pairs, one per interval
    that gets a dictionary, plus the routed-index -> interval map."""
    if spec.layer == "binning":
        k = spec.param
        starts = tracer.call("binning.bin_starts", bin_starts, keys, k)
        loads = np.diff(starts)
        nonempty = np.nonzero(loads)[0]
        slot = [None] * (k + 1)  # route() is 1-based
        for i, b in enumerate(nonempty):
            slot[int(b) + 1] = i
        return [(int(starts[b]), int(starts[b + 1])) for b in nonempty], slot
    segs = tracer.call("segments.fit", _fit_segments, ks, spec.param)
    return [(s.start_rank, s.end_rank) for s in segs], list(range(len(segs)))


def run_traced(spec: StaticSpec, seed: int, seconds: float, tracer: Tracer) -> Result:
    """Traced run: spans around each call into a layer, and the per-layer
    metrics derived from them."""
    res = Result(_meta(spec, seed))
    with tracer.span("pass.run"):
        inp = _prepare(spec, seed, tracer)
        for _ in range(spec.setup_reps):
            with gc_paused(), tracer.span("pass.setup"):
                keys = tracer.call("core.keyset", SortedKeySet, inp.raw, inp.hint)
                ks = tracer.call("core.as_list", keys.as_list)
                bounds, slot = _boundaries(spec, tracer, keys, ks)
                slices = [(ks[s:e],) for s, e in bounds]
                dicts = tracer.calls("dictionaries.build", repeat(BranchyBinarySearch.build), slices)
            del keys, ks, slices
        with gc_paused():
            structure = tracer.call(f"{spec.layer}.build", _setup, inp, spec)

        m = len(inp.queries)
        search = structure.rank_search
        one_arg = [(x,) for x in inp.queries]
        deadline = Deadline(seconds / 2)
        pairs_run = 0
        while not pairs_run or (pairs_run < TRACED_PAIRS_MAX and not deadline.expired()):
            with gc_paused():
                with tracer.span("pass.untraced"):
                    for x in inp.queries:
                        search(x)
                with tracer.span("pass.traced"):
                    answers = tracer.calls(f"{spec.layer}.rank_search", repeat(search), one_arg)
            res.check(m, count_wrong(answers, inp.want_rank, inp.want_found))
            del answers
            pairs_run += 1

        lo, hi = int(inp.raw[0]), int(inp.raw[-1])
        in_range = [i for i, x in enumerate(inp.queries) if lo <= x <= hi]
        with gc_paused(), tracer.span("pass.route"):
            routed = tracer.calls(f"{spec.layer}.route", repeat(structure.route),
                                  [one_arg[i] for i in in_range])
        # (interval, query index) for every query that reaches an inner search
        pairs = [(slot[r], i) for r, i in zip(routed, in_range) if slot[r] is not None]
        fns = [dicts[j].rank_search for j, _ in pairs]
        with gc_paused(), tracer.span("pass.search"):
            inner = tracer.calls("dictionaries.rank_search", fns, [one_arg[i] for _, i in pairs])
        with gc_paused(), tracer.span("pass.outcome"):
            tracer.calls("core.outcome", repeat(SearchOutcome), inner)
        qi = [i for _, i in pairs]
        global_answers = [(bounds[j][0] + r, f) for (j, _), (r, f) in zip(pairs, inner)]
        res.check(len(pairs), count_wrong(global_answers, inp.want_rank[qi], inp.want_found[qi]))

    _layer_metrics(res, spec, tracer, structure, inp, len(in_range), pairs, bounds)
    return res


def _layer_metrics(res, spec, tracer, structure, inp, n_in_range, pairs, bounds) -> None:
    m = len(inp.queries)
    span_s = lambda name: median(tracer.durations(name).tolist()) / 1e9  # noqa: E731
    p50 = lambda name: percentile(tracer.durations(name), 50)  # noqa: E731
    lens = [e - s for s, e in bounds]
    queried = [lens[i] for i, _ in pairs]
    values = {
        "workloads.gen_keys_s": span_s("workloads.gen_keys"),
        "workloads.gen_queries_s": span_s("workloads.gen_queries"),
        "core.keyset_s": span_s("core.keyset"),
        "core.as_list_s": span_s("core.as_list"),
        "core.outcome_ns": p50("core.outcome"),
        "dictionaries.build_s": median(tracer.sum_by_parent("dictionaries.build", "pass.setup")) / 1e9,
        "dictionaries.search_ns_p50": p50("dictionaries.rank_search"),
    }
    if spec.layer == "binning":
        values.update({
            "binning.bin_starts_s": span_s("binning.bin_starts"),
            "binning.route_ns_p50": p50("binning.route"),
            "binning.max_bin_load": structure.max_bin_load(),
            "binning.empty_bins": structure.empty_bins(),
            "binning.queried_load_mean": float(np.mean(queried)),
            "binning.short_circuit_fraction": 1.0 - len(pairs) / m,
        })
    else:
        values.update({
            "segments.fit_s": span_s("segments.fit"),
            "segments.route_ns_p50": p50("segments.route"),
            "segments.count": structure.segment_count,
            "segments.max_len": max(lens),
            "segments.queried_len_mean": float(np.mean(queried)),
            "segments.max_residual": structure.max_residual(),
        })
    res.layer_metrics(values, tracer)
    res.info("in_range_queries", n_in_range, "count")
