"""Benchmark harness for eulerlab: workloads, output checks, tracing and
microbenchmarks.  Run it with ``python3 perfbench/run.py``; see README.md."""
