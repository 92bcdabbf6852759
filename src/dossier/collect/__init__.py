"""Collector backends and the concurrent execution stack."""
