"""Spans recorded by the benchmark around its own calls into each layer.

A span has a name, a start and an end (``perf_counter_ns``), the index of
the span that was open when it began (-1 for none) and the run id of the
tracer.  Spans are kept in typed arrays while the run goes on and written
out once it has ended.  Span names are ``<layer>.<call>``, where the layer
is a module of the library (``core``, ``binning``, ...) or ``pass`` for
the benchmark's own loops.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterable

import numpy as np


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._open = [-1]

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._end)
        self._name.append(nid)
        self._parent.append(self._open[-1])
        self._end.append(0)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        self._open.append(idx)
        self._start.append(perf_counter_ns())
        try:
            yield idx
        finally:
            self._end[idx] = perf_counter_ns()
            self._open.pop()

    def call(self, name: str, fn: Callable, *args):
        """``fn(*args)`` inside one span; returns its result."""
        with self.span(name):
            return fn(*args)

    def calls(self, name: str, fns: Iterable[Callable], args: Iterable[tuple]) -> list:
        """One span per call ``f(*a)`` for each pair of ``fns`` and ``args``,
        all children of the span open now; returns the results in order."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._open[-1]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        clock = perf_counter_ns
        out = []
        push = out.append
        for f, a in zip(fns, args):
            t0 = clock()
            r = f(*a)
            t1 = clock()
            starts.append(t0)
            ends.append(t1)
            names.append(nid)
            parents.append(parent)
            push(r)
        return out

    # -- analysis ---------------------------------------------------------------

    def last_duration(self) -> int:
        """Duration in ns of the span recorded last."""
        return self._end[-1] - self._start[-1]

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: an array.array cannot grow while numpy views its buffer
        return {
            "name": np.array(self._name, dtype=np.uint16),
            "start": np.array(self._start, dtype=np.int64),
            "end": np.array(self._end, dtype=np.int64),
            "parent": np.array(self._parent, dtype=np.int64),
        }

    def durations(self, name: str) -> np.ndarray:
        """Durations in ns of every span called ``name``, in start order."""
        a = self.arrays()
        nid = self._name_ids.get(name)
        if nid is None:
            return np.empty(0, dtype=np.int64)
        mask = a["name"] == nid
        return a["end"][mask] - a["start"][mask]

    def sum_by_parent(self, name: str, parent_name: str) -> list[int]:
        """Total duration of the ``name`` spans under each ``parent_name`` span."""
        a = self.arrays()
        if name not in self._name_ids or parent_name not in self._name_ids:
            return []
        dur = a["end"] - a["start"]
        parents = np.nonzero(a["name"] == self._name_ids[parent_name])[0]
        mask = a["name"] == self._name_ids[name]
        return [int(dur[mask & (a["parent"] == p)].sum()) for p in parents]

    def self_times(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (count, total ns, self ns).  A span's self time is its
        duration minus the time its child spans cover; children run one after
        another in this single-threaded benchmark, so that is their sum."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = (int(mask.sum()), int(dur[mask].sum()), int(own[mask].sum()))
        return out

    def write(self, path: Path) -> None:
        """Write every span as columns of an ``.npz`` file: ``name`` indexes
        ``names``, ``parent`` indexes the spans (-1 for none), and every span
        in the file carries the run id ``run_id``."""
        if self._open != [-1]:
            raise RuntimeError("spans still open")
        a = self.arrays()
        t0 = int(a["start"].min()) if a["start"].size else 0
        np.savez(
            path,
            names=np.array(self.names),
            run_id=np.array(self.run_id),
            name=a["name"],
            start=a["start"] - t0,
            end=a["end"] - t0,
            parent=a["parent"],
        )
