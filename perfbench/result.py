"""What one run of one workload reports, and how it is printed."""

from __future__ import annotations

import json

import numpy as np

from . import metrics as M
from .stats import median
from .tracer import Tracer


def derive_seeds(seed: int, count: int = 2) -> list[int]:
    """Independent generator seeds for the inputs of one workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Result:
    def __init__(self, meta: dict):
        self.meta = meta
        self.metrics: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, tuple[float, str]] = {}
        self.self_times: dict[str, tuple[int, int, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def info(self, name: str, value: float, unit: str) -> None:
        self.extra[name] = (value, unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def check(self, attempted: int, failed: int) -> None:
        """Count ``attempted`` answers checked against an oracle, ``failed`` of
        them wrong or raised."""
        self.attempted += attempted
        self.failed += failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def layer_metrics(self, values: dict[str, float], tracer: Tracer) -> None:
        """Record every per-layer metric: ``values`` for the layers this
        workload calls, 0 for the others, and the tracing overhead."""
        traced = tracer.durations("pass.traced")
        untraced = tracer.durations("pass.untraced")
        values = dict(values)
        values["trace.overhead_pct"] = 100.0 * (
            median(traced.tolist()) / median(untraced.tolist()) - 1.0
        )
        for lm in M.PER_LAYER:
            self.metric(lm.name, float(values.pop(lm.name, 0.0)), lm.unit)
        if values:
            raise KeyError(f"undeclared per-layer metrics: {sorted(values)}")
        self.info("trace.traced_passes", traced.size, "count")
        self.self_times = tracer.self_times()

    # -- output -----------------------------------------------------------------

    def lines(self, traced: bool) -> list[str]:
        """Human-readable report: metadata, metrics with units, extras."""
        out = ["# " + " ".join(f"{k}={v}" for k, v in self.meta.items())]
        for name, (value, unit) in self.metrics.items():
            note = ""
            if traced:
                lm = next(x for x in M.PER_LAYER if x.name == name)
                note = f"    moves {lm.moves} on {', '.join(lm.on)}"
            out.append(f"{name} {value:.6g} {unit}{note}")
        for name, (value, unit) in self.extra.items():
            out.append(f"{name} {value:.6g} {unit}")
        out.append(f"error_rate {self.error_rate:.6g} ratio (attempted {self.attempted}, failed {self.failed})")
        if not traced:
            p50 = self.metrics["query_ns_p50"][0]
            for ref in M.REFERENCES:
                base = self.extra[ref][0]
                out.append(f"ratio query_ns_p50 / {ref} = {p50 / base:.4g} (base {ref} = {base:.6g} ns)")
        out.extend(f"note: {t}" for t in self.notes)
        if self.self_times:
            out.append("# self time by span: name count total_ms self_ms")
            for name, (count, total, own) in sorted(self.self_times.items()):
                out.append(f"#   {name} {count} {total / 1e6:.3f} {own / 1e6:.3f}")
        return out

    def record(self) -> dict:
        """Everything, for the result file."""
        return {
            "meta": self.meta,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.error_rate,
            "notes": self.notes,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            "extra": {k: {"value": v, "unit": u} for k, (v, u) in self.extra.items()},
            "self_time_ns": {k: {"count": c, "total": t, "self": s} for k, (c, t, s) in self.self_times.items()},
        }

    def summary_line(self, names: list[str]) -> str:
        """The last line of a run: exactly the declared ``names``."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]} for n in names},
        })
