"""Order statistics for timing samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np


def percentile(samples: Sequence[float] | np.ndarray, p: float) -> float:
    """Nearest-rank ``p``-th percentile: the smallest sample with at least
    ``p`` percent of all samples at or below it."""
    a = np.asarray(samples)
    if a.size == 0:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    k = max(1, math.ceil(p / 100.0 * a.size))
    return float(np.partition(a, k - 1)[k - 1])


def across_passes(values: Sequence[float]) -> float:
    """One figure from per-pass figures of identical passes: their 90th
    percentile (nearest rank).

    Passes of one run do the same work, so they differ only by what the
    machine does meanwhile.  On the shared 2-vCPU VM this benchmark was tuned
    on, the machine sped up by up to ~30% in spells of seconds.  The median
    over passes followed how much of a run such spells covered; a high
    percentile stays with the usual speed.  Over fifteen-pass windows of one
    process the upper quartile cut the spread (IQR over median) of the
    per-pass median call time from 15% to 6%, and of the pass time from 14%
    to 7%.  In a noisier spell, over twelve 30 s runs of 21 to 28 passes on
    ``clustered-segments``, the 90th percentile cut them further, from 14%
    to 9% each; on ``uniform-binned`` both percentiles kept them at 5-7%."""
    return percentile(values, 90)


def slowest_pass_by_window(passes: Sequence[np.ndarray], windows: int, stat) -> np.ndarray:
    """``stat`` of each of ``windows`` consecutive slices of a pass's samples,
    the largest over ``passes``; the passes must time the same calls in the
    same order.

    For runs that hold too few passes for a figure over passes.  A slice
    takes a few tens of milliseconds, and the machine's spells of speed last
    seconds, so most slices are timed at the usual speed by at least one
    pass, and the largest over passes keeps that time.  The median over
    slices then passes over the few slices that every pass timed in a fast
    spell, or that one pass timed in a rare slow one.  On ``dynamic-mixed`` (five to seven
    stream passes in 30 s, 100 slices), over twelve runs of one process
    each, this kept the spread (IQR over median) of the median search time
    at 0.02 and 0.08 in a quiet and a noisy spell of the shared 2-vCPU VM,
    where the median over all calls of the run spread 0.03 and 0.31, and
    the upper quartile of the per-pass medians 0.04 and 0.29."""
    per_pass = np.array([[stat(w) for w in np.array_split(a, windows)] for a in passes])
    return per_pass.max(axis=0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median,
    with the quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
