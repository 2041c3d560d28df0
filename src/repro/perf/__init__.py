"""Retired: wall-clock measurement lives in the perf ledger, see ``bench/README.md``."""
