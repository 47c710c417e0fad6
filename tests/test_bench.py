"""Measurement protocol and CSV reporting.

Wall-clock numbers are nondeterministic, so these tests check structure:
the prediction/final decomposition identity, baseline ratios, schema
stability of the CSV, and the feasibility logic of the space-bounded
selection (which reuses one measured table across bounds, making the
subset relations exact).
"""

import csv
import io
import math
import time
from dataclasses import fields

import numpy as np
import pytest

from dictboost.bench import (
    BenchRecord,
    DEFAULT_PCTS,
    PAIR_BLOCK,
    csv_header,
    default_epsilons,
    default_space_eps_grid,
    default_space_k_grid,
    delta_report,
    measure_ns_per_query,
    measure_paired_ns,
    run_boost_sweep,
    run_epsilon_sweep,
    run_forest_sweep,
    run_space_selection,
    write_csv,
)
from dictboost.core import AccessDistribution, DictboostError, SortedKeySet
from dictboost.workloads import gen_queries, gen_uniform

from conftest import TEN_KEYS


@pytest.fixture(scope="module")
def small_bench():
    keys = gen_uniform(400, 2**30, seed=14)
    wl = gen_queries(keys, 300, 0.5, seed=15)
    return keys, wl


class TestMeasurement:
    def test_measures_something_positive(self):
        d = {"hits": 0}

        def probe(x):
            d["hits"] += 1

        ns = measure_ns_per_query(probe, list(range(100)), repeats=3)
        assert ns > 0
        assert d["hits"] == 400  # 1 warmup + 3 passes

    def test_rejects_empty_queries_and_bad_repeats(self):
        for measure in (measure_ns_per_query, lambda f, qs, **kw: measure_paired_ns(f, f, qs, **kw)):
            with pytest.raises(DictboostError):
                measure(lambda x: x, [], repeats=1)
            with pytest.raises(DictboostError):
                measure(lambda x: x, [1], repeats=0)

    def test_paired_passes_alternate_blocks_in_query_order(self):
        queries = list(range(2 * PAIR_BLOCK + 7))  # two full blocks and a short one
        calls = []
        mean, ratio = measure_paired_ns(
            lambda x: calls.append(("s", x)), lambda x: calls.append(("b", x)),
            queries, repeats=3,
        )
        assert mean > 0 and ratio > 0
        one_pass = []
        for b, i in enumerate(range(0, len(queries), PAIR_BLOCK)):
            block = queries[i : i + PAIR_BLOCK]
            first, second = ("s", "b") if b % 2 == 0 else ("b", "s")
            one_pass += [(first, x) for x in block] + [(second, x) for x in block]
        # 1 warmup + 3 passes; in each, both sides see every query of a block
        # in order, and the side that leads alternates block by block
        assert calls == one_pass * 4

    def test_second_side_speedup_cancels_out_of_the_ratio(self, monkeypatch):
        """One callable on both sides, costing 2 ticks per query when it
        leads a block and 1 when it follows, reads a ratio of exactly 1."""
        clock = {"now": 0, "calls": 0}

        def f(x):
            leads = clock["calls"] % (2 * PAIR_BLOCK) < PAIR_BLOCK
            clock["now"] += 2 if leads else 1
            clock["calls"] += 1

        monkeypatch.setattr(time, "perf_counter_ns", lambda: clock["now"])
        mean, ratio = measure_paired_ns(f, f, list(range(4 * PAIR_BLOCK)), repeats=3)
        assert ratio == 1.0
        assert mean == 1.5  # leads two of the four blocks at 2 ticks, follows two at 1


class TestBoostSweep:
    def test_row_structure(self, small_bench):
        keys, wl = small_bench
        rows = run_boost_sweep(keys, wl, "bbs,splay", pcts=[10.0, 100.0], repeats=1,
                               dataset_id="dset")
        assert len(rows) == 2 * 3  # per dictionary: plain + two binned rows
        by_dict = {}
        for r in rows:
            by_dict.setdefault(r.dictionary_id, []).append(r)
            assert r.dataset_id == "dset"
            assert r.mean_query_ns > 0
            # decomposition identity: prediction + final == mean, exactly
            assert r.prediction_ns + r.final_search_ns == pytest.approx(
                r.mean_query_ns, rel=1e-9
            )
            assert r.prediction_ns <= r.mean_query_ns
        for dict_id, group in by_dict.items():
            plain = [r for r in group if r.model_id == "none"]
            assert len(plain) == 1
            assert plain[0].ratio_vs_plain == 1.0
            assert plain[0].model_param == 0.0
            assert plain[0].intervals == 1
            for r in group:
                if r.model_id == "binning":
                    assert r.model_param == r.intervals  # param records k itself
                assert r.order_sensitive == (dict_id == "splay")

    def test_binned_rows_cover_the_pct_grid(self, small_bench):
        keys, wl = small_bench
        rows = run_boost_sweep(keys, wl, "bbs", repeats=1)
        ks = [r.intervals for r in rows if r.model_id == "binning"]
        from dictboost.binning import pct_to_k

        assert ks == [pct_to_k(len(keys), p) for p in DEFAULT_PCTS]


class TestEpsilonSweep:
    def test_row_structure(self, small_bench):
        keys, wl = small_bench
        rows = run_epsilon_sweep(keys, wl, "bbs", epsilons=[1, 8, 1000], repeats=1)
        seg_rows = [r for r in rows if r.model_id == "segments"]
        assert [r.model_param for r in seg_rows] == [1.0, 8.0, 1000.0]
        for r in seg_rows:
            assert r.intervals >= 1
            want_steps = math.ceil(math.log2(r.intervals)) if r.intervals > 1 else 0
            assert r.routing_steps == want_steps
        # huge eps collapses everything into one segment
        assert seg_rows[-1].intervals == 1

    def test_default_epsilons_are_powers_of_two_up_to_half_n(self):
        assert default_epsilons(16) == [1, 2, 4, 8]
        assert default_epsilons(1000) == [1, 2, 4, 8, 16, 32, 64, 128, 256]
        assert default_epsilons(1) == [1]
        for e in default_epsilons(10**6):
            assert e & (e - 1) == 0


class TestDeltaReport:
    def test_running_example_row(self):
        rows = delta_report([("ten", SortedKeySet(TEN_KEYS))])
        (row,) = rows
        assert row.status == "ok"
        assert (row.n, row.g_min, row.g_max) == (10, 12, 421)
        assert row.delta == pytest.approx(421 / 12)
        ln10 = math.log(10)
        assert row.ln_n == pytest.approx(ln10)
        assert row.ln2_n == pytest.approx(ln10**2)
        assert row.ln4_n == pytest.approx(ln10**4)

    def test_tiny_sets_are_skipped_not_crashed(self):
        rows = delta_report([("one", SortedKeySet([5]))])
        assert rows[0].status == "skipped_small_n"


class TestSpaceSelection:
    def test_winners_respect_their_bounds(self, small_bench):
        keys, wl = small_bench
        rows = run_space_selection(
            keys, wl, "bbs", bounds_pct=[1.0, 5.0, 100.0],
            k_grid=[1, 4, 16, 64], eps_grid=[1, 16], repeats=1,
        )
        assert len(rows) == 3 * 2  # bounds x families
        ok = [r for r in rows if r.status == "ok"]
        assert ok, "expected at least one feasible configuration"
        for r in ok:
            assert r.space_overhead_pct <= r.bound_pct
            assert r.mean_query_ns > 0

    def test_loose_bound_winner_is_at_least_as_fast(self, small_bench):
        """The selection reuses one measured table, so the winner under
        bound 100 can never be slower than any tighter bound's winner."""
        keys, wl = small_bench
        rows = run_space_selection(
            keys, wl, "bbs", bounds_pct=[2.0, 100.0],
            k_grid=[1, 8, 64], eps_grid=[1, 4], repeats=1,
        )
        for family in ("binning", "segments"):
            fam = {r.bound_pct: r for r in rows if r.family == family and r.status == "ok"}
            if 2.0 in fam and 100.0 in fam:
                assert fam[100.0].mean_query_ns <= fam[2.0].mean_query_ns

    def test_impossible_bound_reports_infeasible(self, small_bench):
        keys, wl = small_bench
        # with n=400, even k=1 costs 24/3200 = 0.75% and one segment 1.5%
        rows = run_space_selection(
            keys, wl, "bbs", bounds_pct=[0.01], k_grid=[64], eps_grid=[1], repeats=1,
        )
        assert all(r.status == "infeasible" for r in rows)
        assert {r.family for r in rows} == {"binning", "segments"}

    def test_one_timing_per_configuration(self, small_bench, monkeypatch):
        """Space selection ranks by query time alone, so it times nothing
        else: no routing probe, no plain baseline."""
        from dictboost import bench

        timed = []

        def spy(search, queries, repeats=1):
            timed.append(search)
            return 1.0

        monkeypatch.setattr(bench, "measure_ns_per_query", spy)
        keys, wl = small_bench
        run_space_selection(keys, wl, "bbs,bfe", bounds_pct=[5.0],
                            k_grid=[1, 4, 16], eps_grid=[1, 16], repeats=1)
        assert len(timed) == 2 * (3 + 2)  # dictionaries x (k grid + eps grid)
        assert all(getattr(s, "__name__", "") == "rank_search" for s in timed)

    def test_nonpositive_bound_rejected(self, small_bench, monkeypatch):
        """Before anything is timed: a bad bound costs no grid of timings."""
        from dictboost import bench

        timed = []
        monkeypatch.setattr(bench, "measure_ns_per_query",
                            lambda search, queries, repeats=1: timed.append(search) or 1.0)
        keys, wl = small_bench
        for bounds in ([0.0], [5.0, -1.0]):
            with pytest.raises(DictboostError):
                run_space_selection(keys, wl, "bbs", bounds_pct=bounds, repeats=1)
        assert timed == []

    def test_default_grids_are_sane(self):
        ks = default_space_k_grid(10**6)
        assert ks[0] == 1 and ks[-1] == 10**6
        assert all(b == 4 * a for a, b in zip(ks, ks[1:-1]))
        eps = default_space_eps_grid(10**6)
        assert 1 in eps
        assert all(e == 1 or e % 4 == 0 for e in eps)


class TestForestSweepRows:
    def test_rows_flag_the_best_k_and_carry_the_bound(self):
        keys = gen_uniform(40, 10**6, seed=17)
        rng = np.random.default_rng(18)
        w = rng.random(2 * 40 + 1)
        w /= w.sum()
        dist = AccessDistribution(w[:40], w[40:])
        sweep, rows = run_forest_sweep(keys, dist, k_max=6, dataset_id="f")
        assert len(rows) == 6
        assert sum(r.is_best for r in rows) == 1
        best_row = next(r for r in rows if r.is_best)
        assert best_row.k == sweep.best.k
        assert best_row.total_cost == pytest.approx(sweep.best.total_cost)
        for r in rows:
            assert r.entropy_bits == pytest.approx(sweep.entropy_bits)
            assert r.bound_slack == pytest.approx(r.entropy_bits + 2.0 - r.total_cost)
        assert best_row.bound_slack >= -1e-9  # the exact best meets entropy+2


class TestCsvOutput:
    def test_header_matches_dataclass_fields(self):
        assert csv_header(BenchRecord)[:4] == [
            "schema", "dataset_id", "dictionary_id", "model_id",
        ]

    def test_write_and_parse_round_trip(self, small_bench, tmp_path):
        keys, wl = small_bench
        rows = run_boost_sweep(keys, wl, "bbs", pcts=[50.0], repeats=1)
        out = tmp_path / "rows.csv"
        write_csv(rows, out)
        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert parsed[0]["schema"] == "2"
        assert parsed[0]["model_id"] == "none"
        assert parsed[0]["order_sensitive"] == "false"
        assert float(parsed[1]["ratio_vs_plain"]) > 0

    def test_write_csv_accepts_open_files_and_rejects_nothing(self):
        buf = io.StringIO()
        rows = delta_report([("ten", SortedKeySet(TEN_KEYS))])
        write_csv(rows, buf)
        assert buf.getvalue().startswith("schema,dataset_id,status")
        with pytest.raises(DictboostError):
            write_csv([], io.StringIO())

    def test_non_timing_columns_are_deterministic(self, small_bench):
        """Same seeds, same dataset: every column except the ns ones and
        the ratio must repeat exactly across runs."""
        keys, wl = small_bench
        noisy = {"mean_query_ns", "prediction_ns", "final_search_ns", "ratio_vs_plain"}
        stable = [f.name for f in fields(BenchRecord) if f.name not in noisy]
        a = run_boost_sweep(keys, wl, "bbs", pcts=[10.0], repeats=1)
        b = run_boost_sweep(keys, wl, "bbs", pcts=[10.0], repeats=1)
        for ra, rb in zip(a, b):
            for f in stable:
                assert getattr(ra, f) == getattr(rb, f)
