"""Benchmark of the dictboost library: workloads, timed passes, oracle
checks and traced per-layer runs.  Entry point: ``perfbench/run.py``."""
