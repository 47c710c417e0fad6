"""Timed passes, the GC policy around them, and structure size.

Every timed region runs with the cyclic garbage collector disabled, after a
full collection, so that a collection triggered by earlier garbage never
lands inside a measurement.  Reference counting still frees memory as usual.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns
from typing import Callable, Sequence

GC_POLICY = "gc.collect() before, cyclic GC disabled inside every timed region"

#: Stored in place of an answer when the call raised.
RAISED = object()


@contextmanager
def gc_paused():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Deadline:
    def __init__(self, seconds: float):
        self._start = perf_counter()
        self._seconds = seconds

    def expired(self) -> bool:
        return self.elapsed_share() >= 1.0

    def elapsed_share(self) -> float:
        return (perf_counter() - self._start) / self._seconds if self._seconds > 0 else 1.0


def timed(fn: Callable, *args):
    """(seconds, result) of one call, GC paused."""
    with gc_paused():
        t0 = perf_counter()
        out = fn(*args)
        t1 = perf_counter()
    return t1 - t0, out


def latency_pass(fns: Sequence[Callable], args: Sequence) -> tuple[list[int], list, float]:
    """Call ``fns[i](args[i])`` for every i, one after another, timing each
    call on its own.  Returns (ns per call, answers, seconds for the whole
    pass); a call that raised leaves :data:`RAISED` as its answer."""
    n = len(args)
    lat = [0] * n
    res = [None] * n
    clock = perf_counter_ns
    with gc_paused():
        start = perf_counter()
        for i in range(n):
            f = fns[i]
            x = args[i]
            t0 = clock()
            try:
                r = f(x)
            except Exception:
                r = RAISED
            t1 = clock()
            lat[i] = t1 - t0
            res[i] = r
        wall = perf_counter() - start
    return lat, res, wall


def throughput_pass(fns: Sequence[Callable], args: Sequence) -> float:
    """Seconds for one pass of ``fns[i](args[i])`` with no per-call timer."""
    with gc_paused():
        t0 = perf_counter()
        for f, x in zip(fns, args):
            f(x)
        t1 = perf_counter()
    return t1 - t0


def structure_bytes(obj: object) -> int:
    """Bytes of every object reachable from ``obj``, each counted once by
    ``sys.getsizeof``; classes are not followed.

    ``tracemalloc`` gives nearly the same figure, but it slows every
    allocation while it traces: building the ``clustered-segments`` structure
    under it took 23 s against 1.5 s, most of it in the segment fit's
    temporary floats.  This walk takes about 1.4 s for a 1M-key structure.
    It also counts the key array the structure shares with its input, which
    ``tracemalloc`` misses when the array was allocated before tracing."""
    seen: set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total
