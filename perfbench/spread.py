"""Run one workload once per seed and report the spread of each metric.

    python3 perfbench/spread.py --workload uniform-binned --seeds 1-10 --out a.json
    python3 perfbench/spread.py --workload uniform-binned --seeds 11-20 --compare a.json

Runs are made one after another, never two at once.  For each end-to-end
metric it prints the median of the runs and the distance between the first
and third quartile as a share of the median (``statistics.quantiles``,
n=4), next to the metric's bound from ``BENCHMARK.json``.  With
``--compare`` it also prints how far this set's median moved against the
saved set's, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import iqr_share, median  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="save the values of every run here")
    ap.add_argument("--compare", type=Path, help="values saved by an earlier --out")
    args = ap.parse_args()

    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else decl["run_seconds"]
    metrics = decl["per_layer"] if args.trace else decl["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    ok = True
    for seed in args.seeds:
        cmd = decl["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        summary = json.loads(last) if last.startswith("{") else {}
        if proc.returncode != 0 or not summary.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        for name in values:
            values[name].append(summary["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    before = json.loads(args.compare.read_text()) if args.compare else {}
    print("metric median iqr_share bound" + (" median_drift" if before else ""))
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2 or median(v) == 0:
            continue
        line = f"{m['name']} {median(v):.6g} {iqr_share(v):.4f} {m.get('bound', '-')}"
        if m["name"] in before:
            base = median(before[m["name"]])
            drift = (median(v) - base) / base
            line += f" {drift if m['better'] == 'lower' else -drift:+.4f}"
        print(line)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
