"""Shared test helpers: a linear-scan and a vectorized rank oracle, query
generators and a ``sys.getsizeof`` walk for space bounds.

``bulk_rank`` is the workhorse ground truth for the equivalence tests.  It
is itself cross-checked against the linear-scan ``oracle_rank_search`` in
test_core.py, so the two independent answers anchor everything else.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from dictboost.core import MAX_KEY, SearchOutcome, SortedKeySet

# the 10-key running example used across the suite; gaps range from 12
# (398-386) up to 421 (819-398)
TEN_KEYS = [47, 105, 140, 289, 316, 358, 386, 398, 819, 939]


def reachable_bytes(obj: object) -> int:
    """``sys.getsizeof`` summed over every object reachable from ``obj``,
    each counted once; classes are not followed."""
    seen: set[int] = set()
    stack, total = [obj], 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def held_bytes(*objs: object) -> int:
    """The bytes a ``reachable_bytes`` walk finds in ``objs``, less one
    bare array header for each numpy array among them: an array's data
    (it must own it), a list's with its items."""
    return sum(
        reachable_bytes(o) - (reachable_bytes(np.empty(0, o.dtype)) if isinstance(o, np.ndarray) else 0)
        for o in objs
    )


def oracle_rank_search(keys, x) -> SearchOutcome:
    """Ground truth for every dictionary: a plain linear scan.

    Deliberately the dumbest possible implementation so that nothing clever
    can be wrong in the reference answer.
    """
    n = len(keys)
    for i in range(n):
        v = keys[i]
        if v >= x:
            return SearchOutcome(i, v == x)
    return SearchOutcome(n, False)


def bulk_rank(keys, queries):
    """(ranks, found) arrays for ``queries`` against sorted ``keys``,
    computed with searchsorted instead of any code under test."""
    arr = keys.array if isinstance(keys, SortedKeySet) else np.asarray(keys, dtype=np.uint64)
    qs = np.asarray(queries, dtype=np.uint64)
    ranks = np.searchsorted(arr, qs, side="left")
    inside = ranks < arr.size
    found = np.zeros(qs.size, dtype=bool)
    found[inside] = arr[ranks[inside]] == qs[inside]
    return ranks, found


def mixed_queries(keys, m, seed, misses_outside=True):
    """Hits, uniform draws over a widened window, and the boundary probes
    every off-by-one bug hides behind (lo-1, lo, hi, hi+1)."""
    arr = keys.array if isinstance(keys, SortedKeySet) else np.asarray(keys, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    lo, hi = int(arr[0]), int(arr[-1])
    out = [lo, hi]
    if lo > 0:
        out.append(lo - 1)
    if hi < MAX_KEY:
        out.append(hi + 1)
    pad = max(1, (hi - lo) // 8) if misses_outside else 0
    w_lo, w_hi = max(0, lo - pad), min(MAX_KEY, hi + pad)
    n_hits = m // 2
    out.extend(int(v) for v in rng.choice(arr, size=n_hits, replace=True))
    out.extend(int(v) for v in rng.integers(w_lo, w_hi + 1, size=max(0, m - len(out)), dtype=np.uint64))
    return out


def assert_matches_oracle(structure, keys, queries):
    """Every query against ``structure`` must agree with ``bulk_rank``."""
    ranks, found = bulk_rank(keys, queries)
    for x, r, f in zip(queries, ranks, found):
        got = structure.rank_search(int(x))
        rank, hit = got
        assert rank == int(r) and hit == bool(f), (
            f"x={x}: structure said {tuple(got)}, oracle said {(int(r), bool(f))}"
        )


@pytest.fixture
def ten_keys():
    return SortedKeySet(TEN_KEYS)


def interesting_key_sets(seed=0):
    """A spread of shapes that historically break rank-search code: single
    key, pairs, consecutive runs, u64 extremes, powers, random sparse."""
    rng = np.random.default_rng(seed)
    sparse = np.unique(rng.integers(0, 2**44, size=257, dtype=np.uint64))
    dense = np.arange(1000, 1064, dtype=np.uint64)
    sets = [
        [0],
        [MAX_KEY],
        [5],
        [0, MAX_KEY],
        [3, 4],
        [10, 20, 30],
        list(TEN_KEYS),
        list(range(1, 16)),
        [2**i for i in range(0, 63, 3)],
        [int(v) for v in dense],
        [int(v) for v in sparse],
    ]
    return [SortedKeySet(s) for s in sets]
