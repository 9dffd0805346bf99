"""Benchmark harness for pxwell; the entry point is perfbench/run.py."""
