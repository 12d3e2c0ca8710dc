"""Benchmark suite: table/figure regenerations plus perf tracking.

Run `PYTHONPATH=src python -m pytest benchmarks/` for the full suite;
the performance benchmark is `perfbench/` (`make bench`).
"""
