"""Benchmark harness for belowband; see run.py."""
