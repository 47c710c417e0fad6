"""Acceptance suite: the package's headline guarantees, end to end.

Each test is one numbered criterion with its own wall-clock budget; a
passing run prints one summary line per criterion.  Everything is seeded
and every correctness claim is checked against independently computed
ground truth: searchsorted ranks, literal enumeration of all tree
shapes, a bisect mirror, or a replayed RNG stream.  These tests are
heavier than the unit suite (a few minutes total).
"""

import io
import math
import time

import numpy as np
import pytest

from dictboost.bench import (
    DEFAULT_PCTS,
    csv_header,
    delta_report,
    run_boost_sweep,
    run_space_selection,
    write_csv,
)
from dictboost.binning import bin_occupancy, build_binning, pct_to_k
from dictboost.core import AccessDistribution, SortedKeySet, gap_stats
from dictboost.dictionaries import make_builder
from dictboost.dynamic import DynamicBinDict, RebuildTrigger
from dictboost.forest import optimal_bst, optimize_over_k
from dictboost.segments import build_segments
from dictboost.streams import gen_adversarial_stream, gen_uniform_stream, replay_stream
from dictboost.workloads import (
    estimate_pdf,
    gen_clustered,
    gen_queries,
    gen_uniform,
    kl_divergence,
    ks_statistic,
    subsample_matching_cdf,
)

from conftest import bulk_rank, held_bytes, mixed_queries, oracle_rank_search


def _pass_line(capsys, num, name, t0, budget_s, detail=""):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num}: {elapsed:.1f}s over the {budget_s}s budget"
    with capsys.disabled():
        extra = f"; {detail}" if detail else ""
        print(f"\n[acceptance] criterion {num:02d} PASS {name} ({elapsed:.1f}s{extra})")


DICT_SPECS = ["bbs", "bfs", "bfe", "bft:8", "is", "css", "splay"]


def test_criterion_01_oracle_equivalence(capsys):
    """Every dictionary and every learned wrapper answers exactly like the
    searchsorted oracle, across degenerate and large sizes."""
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 10, 1000, 100_000):
        keys = gen_uniform(n, 2**44, seed=100 + n)
        queries = mixed_queries(keys, 10_000, seed=200 + n)
        ranks, founds = bulk_rank(keys, queries)
        want = [(int(r), bool(f)) for r, f in zip(ranks, founds)]
        structures = [(spec, make_builder(spec)[1](keys.as_list())) for spec in DICT_SPECS]
        for k in sorted({1, max(1, n // 100), max(1, n // 10), n}):
            structures.append((f"binning:{k}", build_binning(keys, k, "bbs")))
        for eps in sorted({1, 8, 64, n // 2}):
            structures.append((f"segments:{eps}", build_segments(keys, eps, "bbs")))
        for label, s in structures:
            got = [tuple(s.rank_search(x)) for x in queries]
            assert got == want, f"{label} diverged from the oracle at n={n}"
            checked += 1
        if n <= 10:
            # tie the vectorized oracle to the literal linear scan as well
            ks_list = keys.as_list()
            for label, s in structures:
                for x in queries[:500]:
                    assert tuple(s.rank_search(x)) == tuple(oracle_rank_search(ks_list, x))
    _pass_line(capsys, 1, "oracle equivalence", t0, 120, f"{checked} configurations agree")


def test_criterion_02_boosting_shape(capsys):
    """Binning a plain binary search at k = 10% of n is a real speedup on a
    large uniform set, and more bins never hurt beyond timing noise."""
    t0 = time.perf_counter()
    n = 1_000_000
    keys = gen_uniform(n, 2**44, seed=202)
    wl = gen_queries(keys, 100_000, 0.5, seed=203)
    rows = run_boost_sweep(keys, wl, "bbs", pcts=DEFAULT_PCTS, repeats=3,
                           dataset_id="uniform-1m")
    binned = [r for r in rows if r.model_id == "binning"]
    assert [r.intervals for r in binned] == [pct_to_k(n, p) for p in DEFAULT_PCTS]
    at_10 = binned[DEFAULT_PCTS.index(10.0)]
    assert at_10.ratio_vs_plain < 0.9, f"k=10% ratio {at_10.ratio_vs_plain:.3f}"
    ratios = [r.ratio_vs_plain for r in binned]
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt <= prev * 1.10, f"ratio curve rose beyond 10% noise: {ratios}"
    _pass_line(capsys, 2, "binning speedup shape", t0, 180,
               "ratios " + " ".join(f"{r:.3f}" for r in ratios))


def test_criterion_03_degenerate_binning(capsys):
    """Clustered keys with k = n waste almost every bin, yet stay correct."""
    t0 = time.perf_counter()
    n = 50_000
    keys = gen_clustered(n, 0.001, seed=303)
    d = build_binning(keys, n, "bbs")
    empty_frac = d.empty_bins() / n
    assert empty_frac > 0.9
    queries = mixed_queries(keys, 10_000, seed=304)
    ranks, founds = bulk_rank(keys, queries)
    for x, r, f in zip(queries, ranks, founds):
        rank, found = d.rank_search(x)
        assert rank == int(r) and found == bool(f)
    _pass_line(capsys, 3, "degenerate binning stays correct", t0, 60,
               f"{100 * empty_frac:.1f}% of bins empty")


def test_criterion_04_uniform_max_load(capsys):
    """At k = n on uniform keys the fullest bin stays under 2e^2 ln n."""
    t0 = time.perf_counter()
    n = 100_000
    bound = 2.0 * math.e**2 * math.log(n)
    ok = 0
    worst = 0
    for seed in range(100):
        keys = gen_uniform(n, 2**44, seed=400 + seed)
        load = int(bin_occupancy(keys, n).max())
        worst = max(worst, load)
        if load <= bound:
            ok += 1
    assert ok >= 95, f"only {ok}/100 seeds under the load bound {bound:.1f}"
    _pass_line(capsys, 4, "max bin load below 2e^2 ln n", t0, 120,
               f"{ok}/100 seeds, worst load {worst} vs bound {bound:.0f}")


def test_criterion_05_epsilon_guarantee(capsys):
    """Every key's predicted rank is within eps of the truth (recomputed
    here key by key), and tolerating more error never needs more segments."""
    t0 = time.perf_counter()
    n = 20_000
    datasets = {
        "uniform-sparse": gen_uniform(n, 2**44, seed=505),
        "clustered": gen_clustered(n, 0.001, seed=506),
        "uniform-dense": gen_uniform(n, 4 * n, seed=507),
    }
    eps_grid = [1 << i for i in range(14)]  # 1 .. 8192
    verified = 0
    for name, keys in datasets.items():
        arr = keys.array.astype(np.float64)
        counts = []
        for eps in eps_grid:
            d = build_segments(keys, eps, "bbs")
            counts.append(d.segment_count)
            for seg in d.segments:
                xs = arr[seg.start_rank:seg.end_rank]
                pred = np.floor(seg.slope * (xs - float(seg.first_key))) + seg.start_rank
                true = np.arange(seg.start_rank, seg.end_rank, dtype=np.float64)
                worst = float(np.abs(pred - true).max())
                assert worst <= eps, f"{name} eps={eps}: residual {worst}"
            verified += len(keys)
        assert counts == sorted(counts, reverse=True), (
            f"{name}: segment counts not nonincreasing in eps: {counts}"
        )
    _pass_line(capsys, 5, "epsilon guarantee holds exhaustively", t0, 120,
               f"{verified} key residuals checked")


# --- criterion 6 oracle: literal enumeration of every BST shape ------------
#
# Shapes are generated once per size as depth vectors; an instance's true
# optimum is then a min over matrix-vector products, with no dynamic
# programming shared with the code under test.

_SHAPE_MEMO: dict = {}
_MATRIX_CACHE: dict = {}


def _shapes_by_len(m):
    got = _SHAPE_MEMO.get(m)
    if got is not None:
        return got
    if m == 0:
        result = [((), (0,))]
    else:
        result = []
        for left in range(m):
            for lkd, lld in _shapes_by_len(left):
                for rkd, rld in _shapes_by_len(m - 1 - left):
                    kd = tuple(d + 1 for d in lkd) + (0,) + tuple(d + 1 for d in rkd)
                    ld = tuple(d + 1 for d in lld) + tuple(d + 1 for d in rld)
                    result.append((kd, ld))
    _SHAPE_MEMO[m] = result
    return result


def _enumerated_min_cost(p, q):
    n = len(p)
    if n not in _MATRIX_CACHE:
        shapes = _shapes_by_len(n)
        _MATRIX_CACHE[n] = (
            np.array([kd for kd, _ in shapes], dtype=np.float64),
            np.array([ld for _, ld in shapes], dtype=np.float64),
        )
    kd, ld = _MATRIX_CACHE[n]
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    costs = kd @ p + p.sum() + ld @ q
    return float(costs.min())


def test_criterion_06_optimal_bst_matches_enumeration(capsys):
    """The quadratic DP's cost equals the minimum over all Catalan(n) tree
    shapes for every random instance up to n = 10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        w = rng.random(2 * n + 1)
        w[rng.random(2 * n + 1) < 0.2] = 0.0  # zero-mass atoms stay legal
        plan = optimal_bst(w[:n], w[n:])
        want = _enumerated_min_cost(w[:n], w[n:])
        gap = abs(plan.cost - want)
        worst = max(worst, gap)
        assert gap <= 1e-9, f"n={n}: DP {plan.cost!r} vs enumerated {want!r}"
    _pass_line(capsys, 6, "optimal BST equals enumerated minimum", t0, 120,
               f"1000 instances, worst gap {worst:.2e}")


def test_criterion_07_entropy_bound_forest(capsys):
    """Exact forests stay within entropy + 2 bits of comparisons, and the
    weight-balanced approximation never reports a cost below exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        ks = np.sort(rng.choice(8 * n + 8, size=n, replace=False).astype(np.uint64))
        keys = SortedKeySet(ks)
        w = rng.random(2 * n + 1)
        w[rng.random(2 * n + 1) < 0.1] = 0.0
        total = w.sum()
        if total == 0.0:
            w[0] = 1.0
            total = 1.0
        dist = AccessDistribution(w[:n] / total, w[n:] / total)
        exact = optimize_over_k(keys, dist, 16, "exact")
        approx = optimize_over_k(keys, dist, 16, "approx")
        assert exact.best.total_cost <= exact.entropy_bits + 2.0 + 1e-9, (
            f"trial {trial} (n={n}): cost {exact.best.total_cost:.6f} "
            f"vs entropy+2 {exact.entropy_bits + 2.0:.6f}"
        )
        for (k1, ce), (k2, ca) in zip(exact.per_k, approx.per_k):
            assert k1 == k2
            assert ca >= ce - 1e-9, f"trial {trial} k={k1}: approx {ca} < exact {ce}"
    _pass_line(capsys, 7, "forest cost within entropy + 2", t0, 300,
               "1000 instances, k_max=16")


def test_criterion_08_dynamic_correctness_and_amortization(capsys):
    """A large interleaved stream replays with zero divergence and cheap
    amortized rebuilds; the two triggers fire exactly on their schedules."""
    t0 = time.perf_counter()
    # (a) interleaved ops vs the bisect mirror, universe n^2
    n0 = 10_000
    initial = gen_uniform(n0, n0 * n0, seed=808)
    stream = gen_uniform_stream(initial, 100_000, seed=809)
    result = replay_stream(initial, 128, stream)
    rep = result.report
    n_max = max(n0, max(cp.n for cp in result.checkpoints))
    assert rep.touches_per_update <= 8 * math.log2(n_max), (
        f"touches/update {rep.touches_per_update:.2f} vs 8 log2 {n_max}"
    )
    # (b) with the ratio trigger provably silent (smallest gap pinned at 1,
    # interior inserts only), exactly one rebuild lands per half-size window
    base = [0, 1] + list(range(10, 100_001, 10))
    dyn = DynamicBinDict(SortedKeySet(base), 64)
    fresh = (x for x in range(2, 100_000) if x % 10)
    for _ in range(3):
        threshold = max(1, dyn.n_at_rebuild // 2)
        before = dyn.ledger.count(RebuildTrigger.UPDATE_COUNT)
        for i in range(1, threshold + 1):
            assert dyn.insert(next(fresh))
            now = dyn.ledger.count(RebuildTrigger.UPDATE_COUNT)
            if i < threshold:
                assert now == before, f"rebuild fired early, {i} of {threshold}"
            else:
                assert now == before + 1, "rebuild missed its window boundary"
    assert dyn.ledger.count(RebuildTrigger.DELTA_GROWTH) == 0
    assert dyn.ledger.count(RebuildTrigger.OUT_OF_RANGE) == 0
    # (c) adversarial gap halving: ratio-rebuild count telescopes in the
    # highest threshold ever set (each such rebuild at least doubles it)
    spaced = SortedKeySet([i * 1024 for i in range(1025)])
    adv = gen_adversarial_stream(spaced, 30_000, seed=810)
    adv_rep = replay_stream(spaced, 256, adv).report
    assert adv_rep.rebuilds_delta_growth >= 1
    assert adv_rep.rebuilds_delta_growth <= math.log2(adv_rep.delta_max) + 1 + 1e-9
    _pass_line(capsys, 8, "dynamic replay clean, rebuilds on schedule", t0, 180,
               f"touches/update {rep.touches_per_update:.2f}, "
               f"ratio rebuilds {adv_rep.rebuilds_delta_growth} "
               f"<= {math.log2(adv_rep.delta_max) + 1:.0f}")


def test_criterion_09_gap_ratio_study(capsys):
    """Dense uniform sets (|U| = 4n) keep the gap ratio under 20 ln n, and
    the study CSV carries the polylog reference columns."""
    t0 = time.perf_counter()
    summary = []
    named = []
    for n in (3_700, 31_500, 750_000):
        bound = 20.0 * math.log(n)
        ok = 0
        for seed in range(20):
            if gap_stats(gen_uniform(n, 4 * n, seed=900 + seed)).delta <= bound:
                ok += 1
        assert ok >= 19, f"n={n}: only {ok}/20 seeds under 20 ln n"
        summary.append(f"n={n}: {ok}/20")
        named.append((f"dense-{n}", gen_uniform(n, 4 * n, seed=901)))
    rows = delta_report(named)
    header = csv_header(type(rows[0]))
    for col in ("ln_n", "ln2_n", "ln3_n", "ln4_n"):
        assert col in header
    buf = io.StringIO()
    write_csv(rows, buf)
    assert "ln4_n" in buf.getvalue().splitlines()[0]
    _pass_line(capsys, 9, "gap ratio within 20 ln n on dense sets", t0, 60,
               "; ".join(summary))


def test_criterion_10_space_bounded_selection(capsys):
    """Winners under tight space bounds satisfy them by exact accounting,
    and the unconstrained winner is the global fastest configuration."""
    t0 = time.perf_counter()
    n = 400_000
    keys = gen_uniform(n, 2**44, seed=1010)
    wl = gen_queries(keys, 20_000, 0.5, seed=1011)
    bounds = [0.05, 0.07, 0.2, 100.0]
    rows = run_space_selection(
        keys, wl, "bbs", bounds_pct=bounds,
        k_grid=[16, 64, 256, 4096], eps_grid=[64, 256, 2048],
        repeats=2, dataset_id="uniform-400k",
    )
    assert len(rows) == len(bounds) * 2
    assert all(r.status == "ok" for r in rows)
    for r in rows:
        assert r.space_overhead_pct <= r.bound_pct
        if r.family == "binning":
            # the rank table against 8 bytes per key, nothing else
            table = build_binning(keys, int(r.model_param), r.dictionary_id)._starts.obj
            assert r.space_overhead_pct == pytest.approx(
                100.0 * held_bytes(table) / (8 * n)
            )
    for family in ("binning", "segments"):
        fam = {r.bound_pct: r for r in rows if r.family == family}
        for b in (0.05, 0.07, 0.2):
            assert fam[100.0].mean_query_ns <= fam[b].mean_query_ns, (
                f"{family}: unconstrained winner slower than bound {b}"
            )
    picked = {(r.family, r.bound_pct): r.model_param for r in rows}
    _pass_line(capsys, 10, "space-bounded winners respect bounds", t0, 180,
               f"binning params {[picked[('binning', b)] for b in bounds]}")


def test_criterion_11_cdf_matched_subsampling(capsys):
    """Nearly every uniform subsample passes the KS screen, and the chosen
    one has the smallest KL among the accepted (verified by replaying the
    per-trial RNG stream)."""
    t0 = time.perf_counter()
    source_set = gen_uniform(1_000_000, 2**44, seed=1111)
    source = source_set.array
    n = len(source_set)
    bins = math.ceil(math.sqrt(n))
    source_pdf = estimate_pdf(source, bins, source_set.lo, source_set.hi)
    summary = []
    for target in (3_700, 31_500, 750_000):
        sample, rep = subsample_matching_cdf(source_set, target, 100, seed=1112)
        assert rep.accepted >= 99, f"target {target}: accepted {rep.accepted}/100"
        assert len(sample) == target
        children = np.random.SeedSequence(1112).spawn(100)
        kls = {}
        for t in range(100):
            rng = np.random.default_rng(children[t])
            idx = rng.choice(n, size=target, replace=False)
            trial = source[idx]
            if rep.accepted < 100:
                # rare path: rerun the screen to know which trials survived
                if ks_statistic(np.sort(trial), source) > rep.ks_critical:
                    continue
            kls[t] = kl_divergence(
                estimate_pdf(trial, bins, source_set.lo, source_set.hi), source_pdf
            )
        assert len(kls) == rep.accepted
        best_trial = min(kls, key=lambda t: (kls[t], t))
        assert rep.best_trial == best_trial
        assert rep.best_kl == kls[best_trial]
        assert all(rep.best_kl <= v for v in kls.values())
        summary.append(f"{target}: {rep.accepted}/100 accepted")
    _pass_line(capsys, 11, "subsampling accepts and picks the min-KL trial",
               t0, 120, "; ".join(summary))
