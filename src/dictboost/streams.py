"""Update streams for the dynamic structure, plus an oracle replay.

Streams are materialized up front as (op, key) lists so a run can be
replayed bit-identically.  The uniform generator mixes inserts, deletes
and searches by weight; the hot-range generator aims every insert and
search at one narrow range, which piles about half the set into one bin;
the adversarial generator repeatedly inserts the midpoint of the
currently smallest gap, which drives the gap ratio up as fast as possible
and exercises the ratio-growth rebuild trigger.

``replay_stream`` applies a stream to a :class:`DynamicBinDict` and to a
mirrored sorted list at the same time, comparing every outcome.  Any
disagreement raises immediately with the offending op index, so a
replay that returns had none.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .core import MAX_KEY, DictboostError, SortedKeySet
from .dynamic import AmortizedReport, DynamicBinDict

OP_INSERT = "insert"
OP_DELETE = "delete"
OP_SEARCH = "search"


class StreamDivergenceError(DictboostError):
    """The dynamic structure disagreed with the sorted-list oracle."""


@dataclass(frozen=True)
class UpdateStream:
    ops: tuple
    generator: str  # uniform | hot_range | adversarial

    def __len__(self) -> int:
        return len(self.ops)


def _initial_contents(initial: SortedKeySet) -> list[int]:
    if len(initial) < 2:
        raise DictboostError("streams need at least two initial keys")
    return initial.as_list()


def _op_weights(mix: tuple[float, float, float]) -> list[float]:
    """The insert/delete/search probabilities of ``mix``."""
    wi, wd, ws = (float(w) for w in mix)
    total = wi + wd + ws
    if total <= 0 or min(wi, wd, ws) < 0:
        raise DictboostError(f"bad op mix {mix}")
    return [wi / total, wd / total, ws / total]


def gen_uniform_stream(
    initial: SortedKeySet,
    n_ops: int,
    mix: tuple[float, float, float] = (1.0, 1.0, 2.0),
    seed: int = 0,
) -> UpdateStream:
    """insert/delete/search ops weighted by ``mix``; keys drawn uniformly
    from the initial set's universe, deletes aimed at present keys."""
    if n_ops < 0:
        raise DictboostError(f"need n_ops >= 0, got {n_ops}")
    p = _op_weights(mix)
    mirror = _initial_contents(initial)
    u_lo, u_hi = initial.universe_hint if initial.universe_hint else (initial.lo, initial.hi)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(3, size=n_ops, p=p)
    ops = []
    for kind in kinds:
        if kind == 1 and len(mirror) > 2:
            key = mirror.pop(int(rng.integers(0, len(mirror))))
            ops.append((OP_DELETE, key))
            continue
        key = int(rng.integers(u_lo, u_hi + 1))
        if kind == 0:
            pos = bisect_left(mirror, key)
            if pos == len(mirror) or mirror[pos] != key:
                mirror.insert(pos, key)
            ops.append((OP_INSERT, key))
        else:
            ops.append((OP_SEARCH, key))
    return UpdateStream(ops=tuple(ops), generator="uniform")


def gen_hot_range_stream(
    initial: SortedKeySet,
    hot_lo: int,
    width: int = 2**20,
    mix: tuple[float, float, float] = (1.0, 1.0, 2.0),
    seed: int = 0,
) -> UpdateStream:
    """``len(initial) // 2 - 1`` inserts drawn uniformly from the hot range
    ``[hot_lo, hot_lo + width)``, among deletes aimed at present keys
    anywhere and searches drawn from the hot range, weighted by ``mix``.

    Placed inside one bin, the range piles about half the set into it, so
    its updates shift a long bin and the deletes elsewhere merge gaps."""
    if width < 1 or not 0 <= hot_lo <= MAX_KEY - width + 1:
        raise DictboostError(f"hot range [{hot_lo}, {hot_lo} + {width}) is not inside u64")
    p = _op_weights(mix)
    if p[0] == 0:
        raise DictboostError(f"op mix {mix} has no inserts")
    mirror = _initial_contents(initial)
    inserts = len(mirror) // 2 - 1
    rng = np.random.default_rng(seed)
    ops = []
    while inserts > 0:
        kind = rng.choice(3, p=p)
        if kind == 1:
            if len(mirror) > 2:
                ops.append((OP_DELETE, mirror.pop(int(rng.integers(0, len(mirror))))))
            continue
        # uint64 draws, so that a range at the top of u64 works
        key = hot_lo + int(rng.integers(0, width, dtype=np.uint64))
        if kind == 0:
            inserts -= 1
            pos = bisect_left(mirror, key)
            if pos == len(mirror) or mirror[pos] != key:
                mirror.insert(pos, key)
            ops.append((OP_INSERT, key))
        else:
            ops.append((OP_SEARCH, key))
    return UpdateStream(ops=tuple(ops), generator="hot_range")


def gen_adversarial_stream(
    initial: SortedKeySet, n_ops: int, seed: int = 0
) -> UpdateStream:
    """Gap-shrinker: each op inserts the midpoint of the smallest gap still
    wider than 1 (the leftmost of equal ones), halving it; once every gap
    is 1 the rest are searches.

    A heap holds the open gaps as ``(width, left key)``.  An insert only
    splits the gap it lands in, so the heap stays exact without a pass
    over the keys, and every key stays a Python int, up to ``2**64 - 1``."""
    if n_ops < 0:
        raise DictboostError(f"need n_ops >= 0, got {n_ops}")
    keys = _initial_contents(initial)
    rng = np.random.default_rng(seed)
    open_gaps = [(b - a, a) for a, b in zip(keys, keys[1:]) if b - a > 1]
    heapify(open_gaps)
    ops = []
    for _ in range(n_ops):
        if not open_gaps:
            # uint64 draws the same values as int64 below 2**63, and goes past it
            key = rng.integers(keys[0], keys[-1], endpoint=True, dtype=np.uint64)
            ops.append((OP_SEARCH, int(key)))
            continue
        width, a = heappop(open_gaps)
        key = a + width // 2
        for gap in ((key - a, a), (a + width - key, key)):
            if gap[0] > 1:
                heappush(open_gaps, gap)
        ops.append((OP_INSERT, key))
    return UpdateStream(ops=tuple(ops), generator="adversarial")


@dataclass
class StreamCheckpoint:
    dataset_id: str
    ops_done: int
    n: int
    rebuilds_update_count: int
    rebuilds_delta_growth: int
    rebuilds_out_of_range: int
    elements_touched: int
    touches_per_update: float
    delta_hat: float


@dataclass
class ReplayResult:
    checkpoints: list[StreamCheckpoint]
    report: AmortizedReport
    ops_applied: int
    occupancy: tuple[int, int]  # DynamicBinDict.occupancy() after the last op


def replay_stream(
    initial: SortedKeySet,
    k: int,
    stream: UpdateStream,
    checkpoint_every: int | None = None,
    dataset_id: str = "stream",
) -> ReplayResult:
    """Apply the stream to a DynamicBinDict and a sorted-list oracle in
    lockstep, checking every single outcome.  A checkpoint is taken every
    ``checkpoint_every`` ops (default: a tenth of the stream) and after
    the last."""
    if checkpoint_every is not None and checkpoint_every < 1:
        raise DictboostError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    dyn = DynamicBinDict(initial, k)
    mirror = _initial_contents(initial)
    total = len(stream.ops)
    every = checkpoint_every or max(1, total // 10)
    checkpoints: list[StreamCheckpoint] = []

    def check(idx: int, what: str, got, want) -> None:
        if got != want:
            raise StreamDivergenceError(
                f"op {idx} ({what}): structure said {got!r}, oracle said {want!r}"
            )

    for idx, (op, key) in enumerate(stream.ops):
        if op == OP_INSERT:
            pos = bisect_left(mirror, key)
            absent = pos == len(mirror) or mirror[pos] != key
            check(idx, f"insert {key}", dyn.insert(key), absent)
            if absent:
                mirror.insert(pos, key)
        elif op == OP_DELETE:
            pos = bisect_left(mirror, key)
            present = pos < len(mirror) and mirror[pos] == key
            check(idx, f"delete {key}", dyn.delete(key), present)
            if present:
                del mirror[pos]
        elif op == OP_SEARCH:
            pos = bisect_left(mirror, key)
            want = (pos, pos < len(mirror) and mirror[pos] == key)
            check(idx, f"search {key}", tuple(dyn.rank_search(key)), want)
        else:
            raise DictboostError(f"unknown stream op {op!r}")
        done = idx + 1
        if done % every == 0 or done == total:
            rep = dyn.amortized_report()
            checkpoints.append(
                StreamCheckpoint(
                    dataset_id=dataset_id,
                    ops_done=done,
                    n=len(dyn),
                    rebuilds_update_count=rep.rebuilds_update_count,
                    rebuilds_delta_growth=rep.rebuilds_delta_growth,
                    rebuilds_out_of_range=rep.rebuilds_out_of_range,
                    elements_touched=rep.elements_touched,
                    touches_per_update=rep.touches_per_update,
                    delta_hat=rep.delta_hat,
                )
            )
    if list(dyn) != mirror:
        raise StreamDivergenceError("final contents disagree with the oracle")
    return ReplayResult(
        checkpoints=checkpoints,
        report=dyn.amortized_report(),
        ops_applied=total,
        occupancy=dyn.occupancy(),
    )
