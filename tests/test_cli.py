"""End-to-end CLI runs in a temp directory.

Everything goes through main(argv) so exit codes and stderr text are
exercised the same way a shell user would see them.  Exit code contract:
0 success, 2 infeasible or empty results, 1 anything else.
"""

import csv
import re

import pytest

from dictboost.bench import BenchRecord, ForestRow, csv_header, delta_report, write_csv
from dictboost.cli import main
from dictboost.dynamic import DynamicBinDict
from dictboost.streams import OP_DELETE, OP_INSERT, StreamCheckpoint, gen_uniform_stream
from dictboost.core import MAX_KEY
from dictboost.workloads import AllTrialsRejectedError, load_keys, save_keys


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "keys.bin"
    assert main(["gen", "--n", "500", "--universe", str(2**20),
                 "--seed", "1", "--out", str(path)]) == 0
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_uniform_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "keys.bin"
        rc = main(["gen", "--n", "500", "--universe", str(2**20),
                   "--seed", "1", "--out", str(path)])
        assert rc == 0
        assert "500 keys" in capsys.readouterr().out
        loaded = load_keys(path)
        assert len(loaded.keys) == 500
        assert loaded.duplicates_removed == 0

    def test_clustered(self, tmp_path):
        path = tmp_path / "c.bin"
        assert main(["gen", "--kind", "clustered", "--n", "300",
                     "--outlier-fraction", "0.01", "--out", str(path)]) == 0
        assert len(load_keys(path).keys) == 300

    def test_unknown_flag_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--n", "10", "--out", str(tmp_path / "x.bin"), "--nope"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err


class TestQueries:
    def test_csv_shape_and_determinism(self, keyfile, tmp_path):
        out1 = tmp_path / "q1.csv"
        out2 = tmp_path / "q2.csv"
        args = ["queries", "--dataset", str(keyfile), "--m", "300",
                "--hit-fraction", "0.5", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_rows(out1)
        assert len(rows) == 300
        assert set(rows[0]) == {"schema", "query", "present"}
        assert {r["present"] for r in rows} == {"true", "false"}

    def test_csv_bytes_are_pinned(self, keyfile, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["queries", "--dataset", str(keyfile), "--m", "6",
                     "--hit-fraction", "0.5", "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"schema,query,present\r\n2,940443,false\r\n2,668106,true\r\n"
            b"2,608326,false\r\n2,995776,true\r\n2,732618,true\r\n2,813886,false\r\n"
        )

    def test_stdout_when_no_out(self, keyfile, capsys):
        assert main(["queries", "--dataset", str(keyfile), "--m", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("schema,query,present")
        assert "realized hit fraction" in captured.err

    def test_empty_workload_exits_2(self, keyfile, capsys):
        assert main(["queries", "--dataset", str(keyfile), "--m", "0"]) == 2
        assert "empty workload" in capsys.readouterr().err

    def test_missing_dataset_file(self, tmp_path, capsys):
        rc = main(["queries", "--dataset", str(tmp_path / "ghost.bin"), "--m", "5"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestBenchCommands:
    def test_boost_pipeline(self, keyfile, tmp_path):
        out = tmp_path / "boost.csv"
        rc = main(["bench-boost", "--dataset", str(keyfile), "--dicts", "bbs,bfe",
                   "--queries", "200", "--repeats", "1", "--pcts", "10,100",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 3  # two dictionaries, plain + two pcts
        assert list(rows[0]) == csv_header(BenchRecord)
        assert rows[0]["dataset_id"] == "keys"
        assert {r["model_id"] for r in rows} == {"none", "binning"}

    def test_epsilon_sweep(self, keyfile, tmp_path):
        out = tmp_path / "eps.csv"
        rc = main(["bench-epsilon", "--dataset", str(keyfile), "--queries", "200",
                   "--repeats", "1", "--epsilons", "4,32", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        params = [r["model_param"] for r in rows if r["model_id"] == "segments"]
        assert params == ["4", "32"]

    def test_duplicate_keys_are_dropped_with_one_note(self, keyfile, tmp_path, capsys):
        """A key file with duplicates answers over its distinct keys, with
        one note of the count on stderr: the run's rows, timings aside,
        are those over a file of the distinct keys alone."""
        keys = load_keys(keyfile).keys.as_list()
        dup_dir, clean_dir = tmp_path / "dup", tmp_path / "clean"
        dup_dir.mkdir()
        clean_dir.mkdir()
        save_keys(keys[::-1] + keys[:40] + keys[100:107], dup_dir / "k.bin")
        save_keys(keys, clean_dir / "k.bin")
        rows = {}
        for label, folder in [("dup", dup_dir), ("clean", clean_dir)]:
            capsys.readouterr()
            rc = main(["bench-boost", "--dataset", str(folder / "k.bin"), "--dicts", "bbs,bfe",
                       "--queries", "200", "--repeats", "1", "--pcts", "10,100",
                       "--out", str(folder / "boost.csv")])
            assert rc == 0
            err = capsys.readouterr().err.splitlines()
            notes = [line for line in err if line.startswith("note: dropped")]
            assert notes == ([f"note: dropped 47 duplicate keys from {dup_dir / 'k.bin'}"]
                             if label == "dup" else []), label
            rows[label] = [{c: r[c] for c in ("dataset_id", "dictionary_id", "model_id",
                                              "model_param", "intervals", "routing_steps",
                                              "space_overhead_pct", "order_sensitive")}
                           for r in read_rows(folder / "boost.csv")]
        assert rows["dup"] == rows["clean"]
        assert {r["intervals"] for r in rows["dup"]} == {"1", "50", str(len(keys))}

    def test_bad_dictionary_id_lists_the_valid_ones(self, keyfile, capsys):
        rc = main(["bench-boost", "--dataset", str(keyfile), "--dicts", "nosuch",
                   "--queries", "10", "--repeats", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert "bbs" in err and "splay" in err

    def test_bad_dictionary_parameter_is_an_error_line(self, keyfile, capsys):
        rc = main(["bench-boost", "--dataset", str(keyfile), "--dicts", "css:1",
                   "--queries", "10", "--repeats", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "css:1" in err
        assert "Traceback" not in err

    def test_delta_generated_sizes(self, tmp_path):
        out = tmp_path / "delta.csv"
        rc = main(["delta", "--sizes", "100,1000", "--seeds-per-size", "2",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        assert rows[0]["dataset_id"] == "uniform-n100-s0"
        assert float(rows[0]["ln4_n"]) == pytest.approx(float(rows[0]["ln_n"]) ** 4, rel=1e-4)

    def test_delta_over_key_files(self, tmp_path):
        """``--datasets`` takes comma-separated files, spaces around the
        commas allowed: one row each, named by the file's stem, as
        ``delta_report`` gives over the loaded key sets."""
        paths = []
        for name, keys in [("a", [3, 10, 12, 40]), ("b", [7]), ("c", [0, 2**63, MAX_KEY])]:
            paths.append(tmp_path / f"{name}.bin")
            save_keys(keys, paths[-1])
        out, want = tmp_path / "delta.csv", tmp_path / "want.csv"
        rc = main(["delta", "--datasets", f"{paths[0]} , {paths[1]},{paths[2]} ", "--out", str(out)])
        assert rc == 0
        write_csv(delta_report([(p.stem, load_keys(p).keys) for p in paths]), want)
        assert out.read_bytes() == want.read_bytes()
        rows = read_rows(out)
        assert [r["dataset_id"] for r in rows] == ["a", "b", "c"]
        assert [r["status"] for r in rows] == ["ok", "skipped_small_n", "ok"]

    def test_delta_with_no_inputs_exits_2(self, capsys):
        assert main(["delta"]) == 2
        assert "nothing to report" in capsys.readouterr().err


class TestSpace:
    def test_feasible_bounds_exit_0(self, keyfile, tmp_path):
        out = tmp_path / "space.csv"
        rc = main(["space", "--dataset", str(keyfile), "--queries", "100",
                   "--repeats", "1", "--bounds", "50,100",
                   "--k-grid", "1,16", "--eps-grid", "8,64", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        for r in rows:
            assert float(r["space_overhead_pct"]) <= float(r["bound_pct"])

    def test_infeasible_bound_exits_2(self, keyfile, tmp_path, capsys):
        out = tmp_path / "space.csv"
        rc = main(["space", "--dataset", str(keyfile), "--queries", "100",
                   "--repeats", "1", "--bounds", "0.001",
                   "--k-grid", "64", "--eps-grid", "1", "--out", str(out)])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err
        rows = read_rows(out)
        assert all(r["status"] == "infeasible" for r in rows)
        assert all(r["dictionary_id"] == "" for r in rows)


class TestSample:
    def test_subsample_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "big.bin"
        assert main(["gen", "--n", "2000", "--universe", str(2**30),
                     "--seed", "3", "--out", str(src)]) == 0
        out = tmp_path / "sub.bin"
        rc = main(["sample", "--dataset", str(src), "--target-n", "200",
                   "--trials", "20", "--out", str(out)])
        assert rc == 0
        assert "accepted" in capsys.readouterr().out
        sample = load_keys(out).keys
        source = set(load_keys(src).keys.as_list())
        assert len(sample) == 200
        assert set(sample.as_list()) <= source

    def test_all_rejected_exits_2(self, keyfile, tmp_path, capsys, monkeypatch):
        def doomed(keys, target_n, trials, seed):
            raise AllTrialsRejectedError("0 of 5 trials accepted", 1.0, 0.2)

        monkeypatch.setattr("dictboost.cli.subsample_matching_cdf", doomed)
        rc = main(["sample", "--dataset", str(keyfile), "--target-n", "50",
                   "--trials", "5", "--out", str(tmp_path / "s.bin")])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err


class TestForest:
    def test_exact_sweep(self, tmp_path, capsys):
        src = tmp_path / "small.bin"
        assert main(["gen", "--n", "60", "--universe", str(2**20),
                     "--seed", "5", "--out", str(src)]) == 0
        out = tmp_path / "forest.csv"
        rc = main(["forest", "--dataset", str(src), "--k-max", "5",
                   "--dist", "zipf", "--hit-mass", "0.7", "--out", str(out)])
        assert rc == 0
        assert "best k=" in capsys.readouterr().err
        rows = read_rows(out)
        assert len(rows) == 5
        assert list(rows[0]) == csv_header(ForestRow)
        assert sum(r["is_best"] == "true" for r in rows) == 1

    def test_exact_mode_size_cap_suggests_approx(self, tmp_path, capsys):
        src = tmp_path / "big.bin"
        assert main(["gen", "--n", "5001", "--universe", str(2**30),
                     "--seed", "6", "--out", str(src)]) == 0
        rc = main(["forest", "--dataset", str(src), "--k-max", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "approx" in err and "5001" in err
        rc = main(["forest", "--dataset", str(src), "--k-max", "2",
                   "--mode", "approx", "--out", str(src.with_suffix(".csv"))])
        assert rc == 0


class TestDynStream:
    def test_uniform_replay_checkpoints(self, keyfile, tmp_path):
        out = tmp_path / "cp.csv"
        rc = main(["dyn-stream", "--initial", str(keyfile), "--ops", "300",
                   "--k", "16", "--checkpoint-every", "100", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert list(rows[0]) == csv_header(StreamCheckpoint)
        assert [r["ops_done"] for r in rows] == ["100", "200", "300"]
        assert "divergences" not in rows[0]
        assert all(r["schema"] == "2" for r in rows)

    def test_adversarial_flag(self, keyfile, tmp_path, capsys):
        out = tmp_path / "adv.csv"
        rc = main(["dyn-stream", "--initial", str(keyfile), "--ops", "200",
                   "--adversarial", "--k", "8", "--out", str(out)])
        assert rc == 0
        assert "touches per update" in capsys.readouterr().err
        assert len(read_rows(out)) > 0

    def test_adversarial_stream_over_keys_past_2_63(self, tmp_path, capsys):
        path = tmp_path / "top.bin"
        save_keys([0, 2**63, 2**63 + 5, MAX_KEY - 3, MAX_KEY], path)
        out = tmp_path / "adv.csv"
        rc = main(["dyn-stream", "--initial", str(path), "--ops", "300",
                   "--adversarial", "--k", "8", "--out", str(out)])
        assert rc == 0
        assert "300 ops" in capsys.readouterr().err
        assert read_rows(out)[-1]["ops_done"] == "300"

    def test_summary_reports_bin_occupancy(self, keyfile, tmp_path, capsys):
        rc = main(["dyn-stream", "--initial", str(keyfile), "--ops", "300",
                   "--k", "16", "--seed", "3", "--out", str(tmp_path / "cp.csv")])
        assert rc == 0
        m = re.search(r"bins non-empty (\d+)/16, largest (\d+)", capsys.readouterr().err)
        assert m, "no occupancy in the summary"
        # the same stream on a fresh structure, its bins walked one by one
        initial = load_keys(keyfile).keys
        d = DynamicBinDict(initial, 16)
        for op, x in gen_uniform_stream(initial, 300, (1.0, 1.0, 2.0), 3).ops:
            if op == OP_INSERT:
                d.insert(x)
            elif op == OP_DELETE:
                d.delete(x)
        sizes = [sum(1 for _ in held) for held in d._bins if held is not None]
        sizes = [c for c in sizes if c]
        assert (int(m[1]), int(m[2])) == (len(sizes), max(sizes))
        assert len(sizes) > 1

    def test_zero_ops_exits_2(self, keyfile, capsys):
        assert main(["dyn-stream", "--initial", str(keyfile), "--ops", "0"]) == 2
        assert "no checkpoints" in capsys.readouterr().err

    def test_malformed_mix_is_a_usage_error(self, keyfile, capsys):
        rc = main(["dyn-stream", "--initial", str(keyfile), "--ops", "10",
                   "--mix", "1:2"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestBadNumbers:
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "0", "--out", "OUT"],
        ["gen", "--n", "10", "--universe", "5", "--out", "OUT"],
        ["gen", "--n", "10", "--seed", "-1", "--out", "OUT"],
        ["gen", "--kind", "clustered", "--n", "100", "--spread", "0", "--out", "OUT"],
        ["gen", "--kind", "clustered", "--n", "100", "--outlier-fraction", "2", "--out", "OUT"],
        ["queries", "--dataset", "KEYS", "--m", "-1"],
        ["queries", "--dataset", "KEYS", "--hit-fraction", "2"],
        ["queries", "--dataset", "KEYS", "--seed", "-1"],
        ["sample", "--dataset", "KEYS", "--target-n", "0", "--out", "OUT"],
        ["sample", "--dataset", "KEYS", "--target-n", "50", "--trials", "0", "--out", "OUT"],
        ["bench-boost", "--dataset", "KEYS", "--repeats", "0"],
        ["bench-boost", "--dataset", "KEYS", "--queries", "-5"],
        ["bench-boost", "--dataset", "KEYS", "--seed", "-2"],
        ["bench-boost", "--dataset", "KEYS", "--pcts", "-5"],
        ["bench-boost", "--dataset", "KEYS", "--pcts", "10,100.5"],
        ["bench-boost", "--dataset", "KEYS", "--pcts", "nan"],
        ["bench-epsilon", "--dataset", "KEYS", "--epsilons", "-4", "--queries", "100"],
        ["delta", "--sizes", "0"],
        ["delta", "--sizes", "100", "--seeds-per-size", "-1"],
        ["delta", "--sizes", "100", "--seeds-per-size", "0"],
        ["space", "--dataset", "KEYS", "--bounds", "0", "--queries", "100"],
        ["space", "--dataset", "KEYS", "--eps-grid", "-2", "--queries", "100"],
        ["space", "--dataset", "KEYS", "--k-grid", "0", "--queries", "100"],
        ["space", "--dataset", "KEYS", "--k-grid", "4,-3", "--queries", "100"],
        ["forest", "--dataset", "KEYS", "--k-max", "0"],
        ["forest", "--dataset", "KEYS", "--k-max", "-3"],
        ["forest", "--dataset", "KEYS", "--hit-mass", "2"],
        ["forest", "--dataset", "KEYS", "--dist", "zipf", "--zipf-s", "nan"],
        ["dyn-stream", "--initial", "KEYS", "--ops", "-1"],
        ["dyn-stream", "--initial", "KEYS", "--ops", "10", "--k", "0"],
        ["dyn-stream", "--initial", "KEYS", "--ops", "10", "--checkpoint-every", "0"],
        ["dyn-stream", "--initial", "KEYS", "--ops", "10", "--checkpoint-every", "-3"],
        ["dyn-stream", "--initial", "KEYS", "--ops", "10", "--seed", "-1"],
        # past the u64 range: universe 2**64 + 1, and width 4 * n * spread > 2**64
        ["gen", "--n", "10", "--universe", str(2**64 + 1), "--out", "OUT"],
        ["gen", "--kind", "clustered", "--n", "10", "--spread", "461168601842738791", "--out", "OUT"],
    ])
    def test_bad_numbers_are_one_error_line(self, keyfile, tmp_path, capsys, argv):
        out = str(tmp_path / "out.bin")
        argv = [str(keyfile) if a == "KEYS" else out if a == "OUT" else a for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(("error:", "usage error:"))
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestNumberLists:
    @pytest.mark.parametrize("argv", [
        ["bench-boost", "--dataset", "KEYS", "--pcts", "abc"],
        ["bench-boost", "--dataset", "KEYS", "--pcts", "10,1e"],
        ["bench-epsilon", "--dataset", "KEYS", "--epsilons", "x"],
        ["bench-epsilon", "--dataset", "KEYS", "--epsilons", "4,2.5"],
        ["space", "--dataset", "KEYS", "--k-grid", "4,x"],
        ["space", "--dataset", "KEYS", "--eps-grid", "one"],
        ["space", "--dataset", "KEYS", "--bounds", "0.05,%"],
        ["dyn-stream", "--initial", "KEYS", "--ops", "10", "--mix", "a:b:c"],
        ["delta", "--sizes", "100,n"],
    ])
    def test_non_numbers_are_one_usage_error_line(self, keyfile, capsys, argv):
        assert main([str(keyfile) if a == "KEYS" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert err.count("\n") == 1
        assert repr(argv[-1]) in err
