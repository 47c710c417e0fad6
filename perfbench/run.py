"""Run the dictboost benchmark on one workload, or on all of them in turn.

    python3 perfbench/run.py --workload uniform-binned --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate traced run that reports the per-layer metrics.  The report
goes to standard output and ends with one JSON line holding the declared
metrics; the full record (and, when traced, the spans) is written under
``perfbench/results/``.  The exit code is 0 only if every checked answer
was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "dictboost" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import dynamic_mixed, metrics as M, static
    from perfbench.tracer import Tracer

    names = [w.name for w in M.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = _environment()
    traced = bool(args.trace)
    declared = [m.name for m in (M.PER_LAYER if traced else M.END_TO_END)]
    RESULTS.mkdir(parents=True, exist_ok=True)
    results = {}
    for workload in names if args.workload == "all" else [args.workload]:
        stem = f"{workload}-seed{args.seed}-trace{args.trace}"
        tracer = Tracer(run_id=stem) if traced else None
        if workload == M.DYNAMIC:
            if traced:
                res = dynamic_mixed.run_traced(args.seed, args.seconds, tracer)
            else:
                res = dynamic_mixed.run(args.seed, args.seconds)
        elif traced:
            res = static.run_traced(static.SPECS[workload], args.seed, args.seconds, tracer)
        else:
            res = static.run(static.SPECS[workload], args.seed, args.seconds)
        res.meta.update(env)
        if tracer is not None:
            tracer.write(RESULTS / f"{stem}-spans.npz")
            res.meta["spans"] = f"perfbench/results/{stem}-spans.npz"
        (RESULTS / f"{stem}.json").write_text(json.dumps(res.record(), indent=1))
        print("\n".join(res.lines(traced)), flush=True)
        print(res.summary_line(declared), flush=True)
        results[workload] = res

    if len(results) > 1:
        print(json.dumps({
            "correct": all(r.correct for r in results.values()),
            "attempted": sum(r.attempted for r in results.values()),
            "failed": sum(r.failed for r in results.values()),
            "metrics": {
                f"{w}/{n}": {"value": r.metrics[n][0], "unit": r.metrics[n][1]}
                for w, r in results.items() for n in declared
            },
        }))
    return 0 if all(r.correct for r in results.values()) else 3


if __name__ == "__main__":
    sys.exit(main())
