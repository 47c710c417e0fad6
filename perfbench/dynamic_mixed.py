"""The ``dynamic-mixed`` workload: a ``DynamicBinDict`` under a stream.

20k uniform keys in ``[0, 2^40)``, 256 bins, and a ``gen_uniform_stream``
with insert:delete:search = 1:1:2, long enough for at least three
update-count rebuild cycles.  Each pass replays the whole stream, one call
at a time, on a structure freshly set up from the same raw array.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import metrics as M
from .result import Result, derive_seeds
from .static import references
from .stats import across_passes, median, percentile, slowest_pass_by_window
from .timing import GC_POLICY, Deadline, gc_paused, structure_bytes, latency_pass, timed
from .tracer import Tracer

from dictboost import DynamicBinDict, SearchOutcome, SortedKeySet, gen_uniform
from dictboost.streams import OP_DELETE, OP_INSERT, OP_SEARCH, gen_uniform_stream

N_KEYS = 20_000
UNIVERSE = 2**40
BINS = 256
N_OPS = 150_000
MIX = (1.0, 1.0, 2.0)
MIN_UPDATE_COUNT_REBUILDS = 3
SETUP_REPS = 10  # per batch; a batch runs before every stream pass
WINDOWS = 100  # slices of the search ops, ~750 each, for stats.slowest_pass_by_window

_METHOD = {OP_INSERT: "insert", OP_DELETE: "delete", OP_SEARCH: "rank_search"}


@dataclass
class _Inputs:
    raw: np.ndarray
    hint: tuple[int, int] | None
    ops: list[str]
    keys: list[int]
    expected: list  # the bisect mirror's answer to every op


def mirror_replay(initial: list[int], ops: list[str], keys: list[int]) -> list:
    """What a correct structure answers to every op of the stream, from a
    plain sorted list kept with ``bisect``."""
    mirror = list(initial)
    out = []
    for op, x in zip(ops, keys):
        pos = bisect_left(mirror, x)
        present = pos < len(mirror) and mirror[pos] == x
        if op == OP_SEARCH:
            out.append((pos, present))
        elif op == OP_INSERT:
            out.append(not present)
            if not present:
                mirror.insert(pos, x)
        else:
            out.append(present)
            if present:
                del mirror[pos]
    return out


def _prepare(seed: int, tracer: Tracer | None = None) -> _Inputs:
    key_seed, stream_seed = derive_seeds(seed)
    call = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
    keys = call("workloads.gen_keys", gen_uniform, N_KEYS, UNIVERSE, key_seed)
    stream = call("streams.gen", gen_uniform_stream, keys, N_OPS, MIX, stream_seed)
    ops = [op for op, _ in stream.ops]
    xs = [x for _, x in stream.ops]
    return _Inputs(np.array(keys.array), keys.universe_hint, ops, xs,
                   mirror_replay(keys.as_list(), ops, xs))


def _setup(inp: _Inputs, build=DynamicBinDict):
    return build(SortedKeySet(inp.raw, universe_hint=inp.hint), BINS)


def _bound_ops(structure, inp: _Inputs) -> list:
    methods = {op: getattr(structure, name) for op, name in _METHOD.items()}
    return [methods[op] for op in inp.ops]


def count_wrong(answers: list, expected: list) -> int:
    return sum(1 for got, want in zip(answers, expected) if got != want)


def _meta(seed: int) -> dict:
    return {
        "workload": M.DYNAMIC,
        "seed": seed,
        "keys": N_KEYS,
        "bins": BINS,
        "ops": N_OPS,
        "mix_insert_delete_search": ":".join(f"{w:g}" for w in MIX),
        "gc_policy": GC_POLICY,
        "loop": "closed, one caller, single-threaded",
    }


def run(seed: int, seconds: float, build=DynamicBinDict) -> Result:
    """Untraced run: every end-to-end metric of the dynamic workload."""
    res = Result(_meta(seed))
    inp = _prepare(seed)
    searches = np.array([i for i, op in enumerate(inp.ops) if op == OP_SEARCH])
    updates = np.array([i for i, op in enumerate(inp.ops) if op != OP_SEARCH])
    search_keys = [inp.keys[i] for i in searches]

    setup_s: list[float] = []

    def setups():
        """SETUP_REPS timed set-ups; returns the last structure.  Called
        before every pass, so that the median spans the whole run."""
        structure = None
        for _ in range(SETUP_REPS):
            structure = None
            dt, structure = timed(_setup, inp, build)
            setup_s.append(dt)
        return structure

    deadline = Deadline(seconds)
    query_ns: list[np.ndarray] = []
    update_ns: list[np.ndarray] = []
    stream_s: list[float] = []
    while not deadline.expired() or not stream_s:
        structure = setups()
        # per-op timers cost ~0.1 us against ~20 us per op, so this pass also
        # gives the stream and search throughputs, spread over the whole stream
        ns, answers, wall = latency_pass(_bound_ops(structure, inp), inp.keys)
        res.check(len(answers), count_wrong(answers, inp.expected))
        ns = np.array(ns, dtype=np.int64)
        query_ns.append(ns[searches])
        update_ns.append(ns[updates])
        stream_s.append(wall)
        del answers, ns
    # a run holds only five to seven stream passes, too few for a figure
    # taken per pass and then over passes; the gated figures come from
    # slices of the stream instead, and the rest from every call of the run
    queries, updated = np.concatenate(query_ns), np.concatenate(update_ns)

    res.metric("setup_s", median(setup_s), "s")
    res.metric("query_ns_p50", median(slowest_pass_by_window(query_ns, WINDOWS, np.median)), "ns")
    res.info("query_ns_p99", percentile(queries, 99), "ns")
    res.metric("query_kqps", 1e6 / median(slowest_pass_by_window(query_ns, WINDOWS, np.mean)), "kq/s")
    res.info("update_ns_p50", percentile(updated, 50), "ns")
    res.info("update_ns_p99", percentile(updated, 99), "ns")
    res.info("stream_kops", N_OPS / across_passes(stream_s) / 1e3, "kop/s")
    res.info("query_samples", queries.size, "count")
    res.info("update_samples", updated.size, "count")
    res.info("stream_passes", len(stream_s), "count")
    structure = None

    references(res, inp.raw, search_keys)  # over the initial keys
    res.metric("structure_mb", structure_bytes(_setup(inp, build)) / 1e6, "MB")  # a separate build
    return res


def run_traced(seed: int, seconds: float, tracer: Tracer) -> Result:
    """Traced run: spans around every stream op, setup and input generation."""
    res = Result(_meta(seed))
    with tracer.span("pass.run"):
        inp = _prepare(seed, tracer)
        for _ in range(SETUP_REPS):
            with gc_paused(), tracer.span("pass.setup"):
                keys = tracer.call("core.keyset", SortedKeySet, inp.raw, inp.hint)
                tracer.call("core.as_list", keys.as_list)
                structure = tracer.call("dynamic.build", DynamicBinDict, keys, BINS)
            del keys

        names = [f"dynamic.{_METHOD[op].replace('rank_', '')}" for op in inp.ops]
        one_arg = [(x,) for x in inp.keys]
        deadline = Deadline(seconds)
        pairs = 0
        while not deadline.expired() or not pairs:
            structure = _setup(inp)
            fns = _bound_ops(structure, inp)
            with gc_paused(), tracer.span("pass.untraced"):
                for f, x in zip(fns, inp.keys):
                    f(x)
            structure = _setup(inp)
            fns = _bound_ops(structure, inp)
            ledger = structure.ledger.events
            answers = []
            rebuild_ns = []  # ops during which the rebuild ledger grew
            with gc_paused(), tracer.span("pass.traced"):
                for name, f, a in zip(names, fns, one_arg):
                    before = len(ledger)
                    answers.append(tracer.calls(name, (f,), (a,))[0])
                    if len(ledger) != before:
                        rebuild_ns.append(tracer.last_duration())
            res.check(len(answers), count_wrong(answers, inp.expected))
            pairs += 1
        outcomes = [a for a in answers if isinstance(a, tuple)]
        with gc_paused(), tracer.span("pass.outcome"):
            tracer.calls("core.outcome", repeat(SearchOutcome), outcomes)

    rep = structure.amortized_report()
    if rep.rebuilds_update_count < MIN_UPDATE_COUNT_REBUILDS:
        res.note(f"only {rep.rebuilds_update_count} update-count rebuilds; "
                 f"the workload asks for at least {MIN_UPDATE_COUNT_REBUILDS}")
    p50 = lambda name: percentile(tracer.durations(name), 50)  # noqa: E731
    res.layer_metrics({
        "workloads.gen_keys_s": tracer.durations("workloads.gen_keys")[0] / 1e9,
        "streams.gen_s": tracer.durations("streams.gen")[0] / 1e9,
        "core.keyset_s": median(tracer.durations("core.keyset").tolist()) / 1e9,
        "core.as_list_s": median(tracer.durations("core.as_list").tolist()) / 1e9,
        "core.outcome_ns": p50("core.outcome"),
        "dynamic.insert_ns_p50": p50("dynamic.insert"),
        "dynamic.delete_ns_p50": p50("dynamic.delete"),
        "dynamic.search_ns_p50": p50("dynamic.search"),
        "dynamic.rebuilds.update_count": rep.rebuilds_update_count,
        "dynamic.rebuilds.delta_growth": rep.rebuilds_delta_growth,
        "dynamic.rebuilds.out_of_range": rep.rebuilds_out_of_range,
        "dynamic.touches_per_update": rep.touches_per_update,
        "dynamic.rebuild_s_total": sum(rebuild_ns) / 1e9,
        "dynamic.rebuild_ms_max": max(rebuild_ns, default=0) / 1e6,
    }, tracer)
    return res
