"""Benchmark of the HOPE / HOPE+ Spark pipeline; see run.py."""
