"""Benchmark command line.

Subcommands: gen, queries, sample, bench-boost, bench-epsilon, delta,
space, forest, dyn-stream.  Everything emits CSV (or a binary key file
for gen/sample).  Exit codes: 0 success, 2 infeasible or empty results,
1 any other error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bench
from .bench import (
    DEFAULT_PCTS,
    delta_report,
    run_boost_sweep,
    run_epsilon_sweep,
    run_forest_sweep,
    run_space_selection,
    write_csv,
)
from .core import AccessDistribution, DictboostError, SortedKeySet
from .streams import gen_adversarial_stream, gen_uniform_stream, replay_stream
from .workloads import (
    AllTrialsRejectedError,
    gen_clustered,
    gen_queries,
    gen_uniform,
    load_keys,
    save_keys,
    subsample_matching_cdf,
)


class UsageError(DictboostError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; 2 is reserved for
    # "infeasible/empty results" here, so route usage problems to 1 instead
    def error(self, message):
        raise UsageError(message)


def _numbers(text: str, sep: str, kind: type, lo: float = -math.inf, hi: float = math.inf) -> list:
    """The ``sep``-separated numbers in ``text``, each in ``[lo, hi]``; a
    non-number or one out of range is a usage error, not a traceback."""
    try:
        values = [kind(v) for v in text.split(sep) if v.strip()]
    except ValueError:
        raise UsageError(
            f"expected a {sep!r}-separated list of {kind.__name__}s, got {text!r}"
        ) from None
    for v in values:
        if not lo <= v <= hi:
            raise UsageError(f"{v} in {text!r} is outside [{lo}, {hi}]")
    return values


def _csv_floats(text: str, lo: float = -math.inf, hi: float = math.inf) -> list[float]:
    return _numbers(text, ",", float, lo, hi)


def _csv_ints(text: str, lo: float = -math.inf) -> list[int]:
    return _numbers(text, ",", int, lo)


def _at_least(minimum: int, what: str):
    """An argparse type: an int of at least ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}, got {value}")
        return value

    parse.__name__ = what  # argparse names a non-int "invalid <what> value"
    return parse


_seed = _at_least(0, "seed")


@dataclass(frozen=True)
class QueryRow:
    """One line of the ``queries`` CSV."""

    query: int
    present: bool


def _emit(rows, out_path: str | None) -> None:
    write_csv(rows, sys.stdout if out_path is None else out_path)


def _load(path: str) -> SortedKeySet:
    result = load_keys(path)
    if result.duplicates_removed:
        print(
            f"note: dropped {result.duplicates_removed} duplicate keys from {path}",
            file=sys.stderr,
        )
    return result.keys


def _dataset_id(path: str) -> str:
    return Path(path).stem


def _workload(keys: SortedKeySet, args):
    return gen_queries(keys, args.queries, args.hit_fraction, args.seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.kind == "uniform":
        keys = gen_uniform(args.n, args.universe, args.seed)
    else:
        keys = gen_clustered(args.n, args.outlier_fraction, args.seed, args.spread)
    save_keys(keys, args.out)
    print(f"{args.out}: {len(keys)} keys in [{keys.lo}, {keys.hi}]")
    return 0


def cmd_queries(args) -> int:
    keys = _load(args.dataset)
    wl = gen_queries(keys, args.m, args.hit_fraction, args.seed)
    if len(wl) == 0:
        print("error: empty workload", file=sys.stderr)
        return 2
    _emit([QueryRow(q, bool(present)) for q, present in zip(wl.queries, wl.labels)], args.out)
    print(
        f"{len(wl)} queries, realized hit fraction {wl.realized_hit_fraction:.4f}",
        file=sys.stderr,
    )
    return 0


def cmd_sample(args) -> int:
    keys = _load(args.dataset)
    try:
        sample, report = subsample_matching_cdf(keys, args.target_n, args.trials, args.seed)
    except AllTrialsRejectedError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    save_keys(sample, args.out)
    print(
        f"{args.out}: {len(sample)} keys; accepted {report.accepted}/{report.trials} "
        f"(rate {report.acceptance_rate:.3f}), chosen trial {report.best_trial} "
        f"KS {report.best_ks:.4g} KL {report.best_kl:.4g}"
    )
    return 0


def cmd_bench_boost(args) -> int:
    keys = _load(args.dataset)
    records = run_boost_sweep(
        keys,
        _workload(keys, args),
        args.dicts,
        pcts=_csv_floats(args.pcts, 0, 100),
        repeats=args.repeats,
        dataset_id=_dataset_id(args.dataset),
    )
    _emit(records, args.out)
    return 0


def cmd_bench_epsilon(args) -> int:
    keys = _load(args.dataset)
    records = run_epsilon_sweep(
        keys,
        _workload(keys, args),
        args.dicts,
        epsilons=_csv_ints(args.epsilons) if args.epsilons else None,
        repeats=args.repeats,
        dataset_id=_dataset_id(args.dataset),
    )
    _emit(records, args.out)
    return 0


def cmd_delta(args) -> int:
    named: list[tuple[str, SortedKeySet]] = []
    if args.datasets:
        for path in args.datasets.split(","):
            path = path.strip()
            named.append((_dataset_id(path), _load(path)))
    for n in _csv_ints(args.sizes) if args.sizes else []:
        for s in range(args.seeds_per_size):
            seed = args.seed + s
            named.append((f"uniform-n{n}-s{seed}", gen_uniform(n, 4 * n, seed)))
    if not named:
        print("error: nothing to report (give --datasets and/or --sizes)", file=sys.stderr)
        return 2
    _emit(delta_report(named), args.out)
    return 0


def cmd_space(args) -> int:
    keys = _load(args.dataset)
    rows = run_space_selection(
        keys,
        _workload(keys, args),
        args.dicts,
        bounds_pct=_csv_floats(args.bounds),
        k_grid=_csv_ints(args.k_grid, 1) if args.k_grid else None,
        eps_grid=_csv_ints(args.eps_grid) if args.eps_grid else None,
        repeats=args.repeats,
        dataset_id=_dataset_id(args.dataset),
    )
    _emit(rows, args.out)
    if any(r.status == "infeasible" for r in rows):
        print("note: some bounds were infeasible", file=sys.stderr)
        return 2
    return 0


def _forest_distribution(n: int, shape: str, zipf_s: float, hit_mass: float) -> AccessDistribution:
    if not 0.0 <= hit_mass <= 1.0:
        raise DictboostError(f"hit-mass must be in [0, 1], got {hit_mass}")
    if shape == "uniform":
        wp = np.ones(n)
        wq = np.ones(n + 1)
    elif shape == "zipf":
        wp = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** zipf_s
        wq = 1.0 / np.arange(1, n + 2, dtype=np.float64) ** zipf_s
    else:
        raise DictboostError(f"unknown distribution shape {shape!r}")
    p = hit_mass * wp / wp.sum()
    q = (1.0 - hit_mass) * wq / wq.sum()
    return AccessDistribution(p, q)


def cmd_forest(args) -> int:
    keys = _load(args.dataset)
    dist = _forest_distribution(len(keys), args.dist, args.zipf_s, args.hit_mass)
    sweep, rows = run_forest_sweep(
        keys, dist, args.k_max, args.mode, dataset_id=_dataset_id(args.dataset)
    )
    _emit(rows, args.out)
    best = sweep.best
    print(
        f"best k={best.k} cost {best.total_cost:.4f} "
        f"(entropy {sweep.entropy_bits:.4f} bits)",
        file=sys.stderr,
    )
    return 0


def cmd_dyn_stream(args) -> int:
    initial = _load(args.initial)
    if args.adversarial:
        stream = gen_adversarial_stream(initial, args.ops, args.seed)
    else:
        mix = tuple(_numbers(args.mix, ":", float))
        if len(mix) != 3:
            raise UsageError(f"--mix wants i:d:s, got {args.mix!r}")
        stream = gen_uniform_stream(initial, args.ops, mix, args.seed)
    result = replay_stream(
        initial,
        args.k,
        stream,
        checkpoint_every=args.checkpoint_every,
        dataset_id=_dataset_id(args.initial),
    )
    if not result.checkpoints:
        print("error: empty stream produced no checkpoints", file=sys.stderr)
        return 2
    _emit(result.checkpoints, args.out)
    rep = result.report
    non_empty, largest = result.occupancy
    print(
        f"{result.ops_applied} ops; rebuilds {rep.rebuilds_update_count}/"
        f"{rep.rebuilds_delta_growth}/{rep.rebuilds_out_of_range} (count/ratio/range), "
        f"touches per update {rep.touches_per_update:.2f}; "
        f"bins non-empty {non_empty}/{args.k}, largest {largest}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dictboost", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common_bench(sp, queries_default=100_000):
        sp.add_argument("--dataset", required=True, help="binary key file")
        sp.add_argument("--dicts", default="bbs", help="comma list, e.g. bbs,bfs,bft:8")
        sp.add_argument("--queries", type=int, default=queries_default)
        sp.add_argument("--hit-fraction", type=float, default=0.5)
        sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--repeats", type=int, default=bench.DEFAULT_REPEATS)
        sp.add_argument("--out", default=None, help="CSV path (stdout if omitted)")

    sp = sub.add_parser("gen", help="generate a synthetic key file")
    sp.add_argument("--kind", choices=("uniform", "clustered"), default="uniform")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--universe", type=int, default=2**44)
    sp.add_argument("--outlier-fraction", type=float, default=0.001)
    sp.add_argument("--spread", type=int, default=1000)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("queries", help="generate a query workload as CSV")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--m", type=int, default=100_000)
    sp.add_argument("--hit-fraction", type=float, default=0.5)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_queries)

    sp = sub.add_parser("sample", help="CDF-matched subsample of a dataset")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--target-n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=True, help="binary key file for the sample")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("bench-boost", help="binning sweep over bin percentages")
    common_bench(sp)
    sp.add_argument("--pcts", default=",".join(str(v) for v in DEFAULT_PCTS))
    sp.set_defaults(func=cmd_bench_boost)

    sp = sub.add_parser("bench-epsilon", help="segmentation sweep over epsilon")
    common_bench(sp)
    sp.add_argument("--epsilons", default=None, help="comma list; default powers of two")
    sp.set_defaults(func=cmd_bench_epsilon)

    sp = sub.add_parser("delta", help="gap-ratio study with polylog reference columns")
    sp.add_argument("--datasets", default=None, help="comma list of key files")
    sp.add_argument("--sizes", default=None, help="comma list of generated sizes (|U| = 4n)")
    sp.add_argument("--seeds-per-size", type=_at_least(1, "seeds per size"), default=1)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_delta)

    sp = sub.add_parser("space", help="best configuration under space bounds")
    common_bench(sp, queries_default=20_000)
    sp.add_argument("--bounds", default="0.05,0.07,0.2")
    sp.add_argument("--k-grid", default=None, help="comma list of bin counts")
    sp.add_argument("--eps-grid", default=None, help="comma list of epsilons")
    sp.set_defaults(func=cmd_space)

    sp = sub.add_parser("forest", help="per-bin optimal BST sweep over k")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--k-max", type=int, default=16)
    sp.add_argument("--mode", choices=("exact", "approx"), default="exact")
    sp.add_argument("--dist", choices=("uniform", "zipf"), default="uniform")
    sp.add_argument("--zipf-s", type=float, default=1.0)
    sp.add_argument("--hit-mass", type=float, default=0.5,
                    help="probability mass on successful searches")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_forest)

    sp = sub.add_parser("dyn-stream", help="replay an update stream with an oracle check")
    sp.add_argument("--initial", required=True, help="binary key file of initial keys")
    sp.add_argument("--ops", type=int, required=True)
    sp.add_argument("--mix", default="1:1:2", help="insert:delete:search weights")
    sp.add_argument("--adversarial", action="store_true", help="gap-shrinker stream")
    sp.add_argument("--k", type=int, default=64)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--checkpoint-every", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_dyn_stream)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DictboostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
