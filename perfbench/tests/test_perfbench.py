"""Tests of the benchmark itself: its declarations, its order statistics,
its tracer and its oracle checks."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dictboost import gen_uniform
from perfbench import dynamic_mixed, metrics as M, static
from perfbench.stats import iqr_share, percentile, slowest_pass_by_window
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    doc = _declared()
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in M.WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in M.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in M.PER_LAYER
    ]
    assert set(static.SPECS) | {M.DYNAMIC} == {w.name for w in M.WORKLOADS}
    layer_workloads = {w for lm in M.PER_LAYER for w in lm.on}
    assert layer_workloads == {w.name for w in M.WORKLOADS}


def test_percentile_known_answers():
    one_to_hundred = list(range(1, 101))
    random.Random(0).shuffle(one_to_hundred)
    assert percentile(one_to_hundred, 50) == 50
    assert percentile(one_to_hundred, 99) == 99
    assert percentile(one_to_hundred, 100) == 100
    assert percentile(list(range(1000, 0, -1)), 99) == 990
    assert percentile([7], 50) == 7
    assert percentile([3, 1, 2, 4], 50) == 2  # nearest rank, no interpolation
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)


def test_iqr_share_known_answer():
    # quartiles of 1..9 by the exclusive method: 2.5, 5, 7.5
    assert iqr_share(range(1, 10)) == pytest.approx(1.0)


def test_slowest_pass_by_window_known_answer():
    # three passes over the same six calls, two slices of three; the first
    # pass is slow on the first slice only, the last on the second only
    passes = [np.array(a) for a in ([9, 9, 9, 1, 1, 1], [2, 2, 2, 2, 2, 2], [1, 1, 1, 5, 6, 7])]
    assert slowest_pass_by_window(passes, 2, np.median).tolist() == [9, 6]
    assert slowest_pass_by_window(passes, 2, np.mean).tolist() == [9, 6]
    assert slowest_pass_by_window(passes[1:2], 3, np.max).tolist() == [2, 2, 2]


def test_self_time_is_duration_minus_children():
    tr = Tracer("t")
    with tr.span("outer"):
        with tr.span("a"):
            pass
        tr.calls("b", [sorted] * 3, [([3, 1, 2],)] * 3)
    times = tr.self_times()
    count, total, own = times["outer"]
    children = times["a"][1] + times["b"][1]
    assert count == 1 and times["b"][0] == 3
    assert own == total - children
    assert times["a"][1] == times["a"][2]


class OffByOne:
    """Answers like the wrapped structure, with every rank one too high."""

    def __init__(self, inner):
        self.inner = inner

    def rank_search(self, x):
        r, found = self.inner.rank_search(x)
        return r + 1, found

    def __getattr__(self, name):
        return getattr(self.inner, name)


class OffByOneSpec(static.StaticSpec):
    def build(self, keys):
        return OffByOne(super().build(keys))


def _tiny(spec_cls=static.StaticSpec):
    return spec_cls("tiny", "binning", 200, 2000, 500, lambda n, seed: gen_uniform(n, 2**20, seed), setup_reps=1)


def test_static_oracle_passes_a_correct_structure():
    res = static.run(_tiny(), seed=1, seconds=0.01)
    assert res.correct and res.error_rate == 0 and res.attempted >= 500


def test_static_oracle_catches_off_by_one():
    res = static.run(_tiny(OffByOneSpec), seed=1, seconds=0.01)
    assert not res.correct
    assert res.error_rate > 0


def test_dynamic_oracle_catches_off_by_one(monkeypatch):
    monkeypatch.setattr(dynamic_mixed, "N_KEYS", 300)
    monkeypatch.setattr(dynamic_mixed, "N_OPS", 2000)
    monkeypatch.setattr(dynamic_mixed, "SETUP_REPS", 1)
    good = dynamic_mixed.run(seed=1, seconds=0.01)
    assert good.correct and good.error_rate == 0
    bad = dynamic_mixed.run(seed=1, seconds=0.01, build=lambda keys, k: OffByOne(dynamic_mixed.DynamicBinDict(keys, k)))
    assert bad.error_rate > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", M.UNIFORM, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_runs_report_every_layer_metric(monkeypatch):
    monkeypatch.setattr(dynamic_mixed, "N_KEYS", 300)
    monkeypatch.setattr(dynamic_mixed, "N_OPS", 2000)
    monkeypatch.setattr(dynamic_mixed, "SETUP_REPS", 1)
    runs = [
        static.run_traced(_tiny(), 1, 0.01, Tracer("s")),
        dynamic_mixed.run_traced(1, 0.01, Tracer("d")),
    ]
    for res in runs:
        assert res.correct
        assert list(res.metrics) == [lm.name for lm in M.PER_LAYER]
    assert runs[0].metrics["binning.route_ns_p50"][0] > 0
    assert runs[0].metrics["dynamic.search_ns_p50"][0] == 0
    assert runs[1].metrics["dynamic.insert_ns_p50"][0] > 0
