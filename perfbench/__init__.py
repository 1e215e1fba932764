"""Benchmark of nvspin's datasets, end to end and per module (see run.py)."""
