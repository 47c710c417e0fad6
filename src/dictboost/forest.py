"""Entropy-aware search forests: one optimal (or near-optimal) BST per bin.

Given access weights over the 2n+1 query outcomes (n hits, n+1 gaps), the
expected comparison count of a binned structure is

    cost(k) = sum over bins of  W(b) * (1 + C(T(b)))

where ``W(b)`` is the probability of routing into bin ``b`` (the +1 pays
the O(1) routing step) and ``C(T(b))`` is the expected search cost of the
tree built for the bin's conditional access distribution.  Keys carry
their hit mass; a gap's miss mass goes to whichever bins its open
interval overlaps, split proportionally to overlap length, so boundary
gaps are shared between neighbouring bins and the mass below the first
key (above the last) sticks to the first (last) bin.

Tree costs follow the comparison-count convention: an internal key at
depth d costs d+1, a failure leaf at depth d costs d.  ``optimal_bst`` is
the classic O(n^2) dynamic program sped up by root monotonicity
(root(i, j-1) <= root(i, j) <= root(i+1, j)); ``approx_bst`` picks
weight-balancing roots by binary search on prefix sums in O(n log n) and
is bounded by the same entropy+2 yardstick in practice.  The two differ
only in how they pick the root of keys i..j; both hand that choice to one
tree walk, which records the depths and sums the cost.  Minimizing
cost(k) over k never loses to the single-tree case, whose optimal cost is
within entropy(P,Q)+1, so the optimized forest sits within entropy+2.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import AccessDistribution, DictboostError, SortedKeySet, entropy
from .binning import BinGeometry, bin_starts

EXACT_MODE_MAX_N = 5000  # the quadratic DP table gets unreasonable past this


@dataclass(frozen=True)
class BstPlan:
    """A concrete tree shape: per-key and per-failure-leaf depths plus the
    expected comparison cost they imply."""

    cost: float
    key_depths: tuple[int, ...]
    leaf_depths: tuple[int, ...]
    root: int | None  # 0-based index of the root key, None for empty


def _check_weights(p, q) -> tuple[list[float], list[float]]:
    p = [float(v) for v in p]
    q = [float(v) for v in q]
    if len(q) != len(p) + 1:
        raise DictboostError(f"expected len(q) == len(p) + 1, got {len(p)}/{len(q)}")
    if any(v < 0 for v in p) or any(v < 0 for v in q):
        raise DictboostError("negative access weight")
    return p, q


def _prefix(p: list[float], q: list[float]) -> list[float]:
    # pref[t] = q[0] + sum_{s<=t} (p[s] + q[s]); the mass of range i..j
    # including both boundary leaves is pref[j] - pref[i-1] + q[i-1]
    n = len(p)
    pref = [0.0] * (n + 1)
    pref[0] = q[0]
    for t in range(1, n + 1):
        pref[t] = pref[t - 1] + p[t - 1] + q[t]
    return pref


def _plan(p: list[float], q: list[float], root_of: Callable[[int, int], int]) -> BstPlan:
    """Walk the tree whose root over 1-based keys ``i..j`` is
    ``root_of(i, j)``: record each key's and failure leaf's depth and sum
    the cost on the way."""
    n = len(p)
    key_depths = [0] * n
    leaf_depths = [0] * (n + 1)
    cost = 0.0
    stack = [(1, n, 0)]
    while stack:
        i, j, d = stack.pop()
        if i > j:
            leaf_depths[i - 1] = d
            cost += q[i - 1] * d
            continue
        r = root_of(i, j)
        key_depths[r - 1] = d
        cost += p[r - 1] * (d + 1)
        stack.append((i, r - 1, d + 1))
        stack.append((r + 1, j, d + 1))
    return BstPlan(cost, tuple(key_depths), tuple(leaf_depths), key_depths.index(0))


def optimal_bst(p, q) -> BstPlan:
    """Minimum expected-cost BST for hit weights ``p`` and miss weights ``q``
    (absolute weights are fine; costs scale linearly)."""
    p, q = _check_weights(p, q)
    n = len(p)
    if n == 0:
        return BstPlan(0.0, (), (0,), None)
    if n > EXACT_MODE_MAX_N:
        raise DictboostError(
            f"exact mode is quadratic and capped at n = {EXACT_MODE_MAX_N} "
            f"(got {n}); use mode approx"
        )
    pref = _prefix(p, q)
    cost = [array("d", [0.0]) * (n + 1) for _ in range(n + 2)]
    root = [array("l", [0]) * (n + 1) for _ in range(n + 2)]
    for length in range(1, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            if length == 1:
                rlo = rhi = i
            else:
                rlo = root[i][j - 1]
                rhi = root[i + 1][j]
            row_i = cost[i]
            best = float("inf")
            best_r = rlo
            for r in range(rlo, rhi + 1):
                c = row_i[r - 1] + cost[r + 1][j]
                if c < best:
                    best = c
                    best_r = r
            cost[i][j] = best + (pref[j] - pref[i - 1] + q[i - 1])
            root[i][j] = best_r
    return _plan(p, q, lambda i, j: root[i][j])


def approx_bst(p, q) -> BstPlan:
    """Weight-balanced BST: each root splits its range's mass as evenly as
    possible (ties to the left; zero-mass ranges fall back to the middle
    index).  O(n log n) via binary search on the prefix sums."""
    p, q = _check_weights(p, q)
    n = len(p)
    if n == 0:
        return BstPlan(0.0, (), (0,), None)
    pref = _prefix(p, q)

    def root_of(i: int, j: int) -> int:
        if i == j:
            return i
        if pref[j] - pref[i - 1] + q[i - 1] <= 0.0:
            return (i + j) // 2

        # f(r) = mass(left of r) - mass(right of r), nondecreasing in r
        def f(r: int) -> float:
            left = pref[r - 1] - pref[i - 1] + q[i - 1]
            right = pref[j] - pref[r] + q[r]
            return left - right

        lo, hi = i, j
        while lo < hi:
            mid = (lo + hi) // 2
            if f(mid) < 0.0:
                lo = mid + 1
            else:
                hi = mid
        if lo > i and abs(f(lo - 1)) <= abs(f(lo)):
            return lo - 1
        return lo

    return _plan(p, q, root_of)


def plan_cost_from_depths(plan: BstPlan, p, q) -> float:
    """Recompute a plan's expected cost straight from its depth vectors
    (consistency oracle for the walk's cost bookkeeping)."""
    total = sum(w * (d + 1) for w, d in zip(p, plan.key_depths))
    total += sum(w * d for w, d in zip(q, plan.leaf_depths))
    return float(total)


# ---------------------------------------------------------------------------
# splitting access mass across bins


@dataclass(frozen=True)
class BinAccessWeights:
    k: int
    p_parts: list
    q_parts: list
    weights: list  # W(b) = sum(p_part) + sum(q_part)


def bin_weights(keys: SortedKeySet, k: int, dist: AccessDistribution) -> BinAccessWeights:
    """Split the access mass over ``k`` bins.  Gap ``i`` (between keys
    ``i-1`` and ``i``) puts its miss mass in slot ``i + b`` of one flat
    array of ``n + k`` slots, for each 0-based bin ``b`` its open interval
    meets.  So bin ``b``'s miss weights are the window
    ``slots[starts[b] + b : starts[b+1] + b + 1]`` and its hit weights
    ``p[starts[b]:starts[b+1]]``; both parts are read-only views."""
    if dist.n != len(keys):
        raise DictboostError(f"distribution over {dist.n} keys, set has {len(keys)}")
    n = len(keys)
    starts = bin_starts(keys, k)
    key_bin = np.repeat(np.arange(k), np.diff(starts))
    # bins of the keys left and right of each gap; q[0] and q[n] stick to the edge bins
    left = np.concatenate(([0], key_bin))
    right = np.append(key_bin, k - 1)
    same = np.flatnonzero(left == right)
    slots = np.zeros(n + k)
    slots[same + left[same]] += dist.q[same]  # adding to 0.0 stores a -0.0 weight as 0.0
    uppers = BinGeometry(keys.lo, keys.hi, k).uppers().tolist()
    ks = keys.view
    # a gap across bins shares its mass by overlap, in exact int arithmetic;
    # the overlap is 0 with the left key's bin when that key is its upper edge
    for i in np.flatnonzero((left != right) & (dist.q > 0)).tolist():
        a, c = ks[i - 1], ks[i]
        mass = float(dist.q[i])
        for b in range(int(left[i]), int(right[i]) + 1):
            ov = min(c, uppers[b + 1]) - max(a, uppers[b])
            slots[i + b] = mass * (ov / (c - a))
    p = dist.p.view()
    p.flags.writeable = slots.flags.writeable = False
    s = starts.tolist()
    p_parts = [p[s[b]:s[b + 1]] for b in range(k)]
    q_parts = [slots[s[b] + b:s[b + 1] + b + 1] for b in range(k)]
    weights = [float(pp.sum() + qp.sum()) for pp, qp in zip(p_parts, q_parts)]
    return BinAccessWeights(k=k, p_parts=p_parts, q_parts=q_parts, weights=weights)


@dataclass(frozen=True)
class ForestPlan:
    k: int
    total_cost: float
    plans: list


def forest_cost(weights, plans) -> float:
    """Expected comparisons: routing charge W(b) plus the absolute-weight
    tree cost, summed over bins (empty zero-mass bins contribute nothing)."""
    return float(sum(w + plan.cost for w, plan in zip(weights, plans)))


def build_forest(
    keys: SortedKeySet, dist: AccessDistribution, k: int, mode: str = "exact"
) -> ForestPlan:
    if mode not in ("exact", "approx"):
        raise DictboostError(f"unknown mode {mode!r}")
    solver = optimal_bst if mode == "exact" else approx_bst
    bw = bin_weights(keys, k, dist)
    plans = [solver(bw.p_parts[b], bw.q_parts[b]) for b in range(k)]
    return ForestPlan(k=k, total_cost=forest_cost(bw.weights, plans), plans=plans)


@dataclass(frozen=True)
class ForestSweep:
    best: ForestPlan
    per_k: list  # (k, total_cost) in ascending k
    entropy_bits: float


def optimize_over_k(
    keys: SortedKeySet,
    dist: AccessDistribution,
    k_max: int,
    mode: str = "exact",
) -> ForestSweep:
    """Sweep k = 1..min(k_max, n) and keep the cheapest forest.  k=1 is
    always tried, so the result never exceeds the single optimal tree and
    in exact mode stays within entropy(P,Q) + 2."""
    n = len(keys)
    if n == 0:
        raise DictboostError("cannot optimize over an empty key set")
    if k_max < 1:
        raise DictboostError(f"k_max must be >= 1, got {k_max}")
    best = None
    per_k = []
    for k in range(1, min(int(k_max), n) + 1):
        plan = build_forest(keys, dist, k, mode)
        per_k.append((k, plan.total_cost))
        if best is None or plan.total_cost < best.total_cost:
            best = plan
    return ForestSweep(best=best, per_k=per_k, entropy_bits=entropy(dist))
