"""Benchmark of spinlap's pipelines; see README.md and run.py."""
