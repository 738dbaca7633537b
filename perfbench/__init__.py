"""Benchmark of the repro package: open-loop serving and sweep workloads."""
