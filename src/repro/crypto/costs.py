"""Simulated CPU costs of cryptographic operations.

The functional primitives in this package run in (negligible, unmetered)
host time; *simulated* time is charged through this table.  The defaults
are calibrated so the full harness reproduces the throughput ratios of the
paper's Table 1 — see EXPERIMENTS.md for the calibration notes.  The
decisive property is the asymmetry Castro & Liskov exploited and the paper
re-measures: MAC operations cost microseconds, Rabin signing costs a
goodly fraction of a millisecond, and Rabin verification sits in between
(cheap squaring, but still big-number arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import MICROSECOND


@dataclass(frozen=True)
class CryptoCosts:
    """Per-operation simulated CPU time, in nanoseconds."""

    digest_base_ns: int = 1 * MICROSECOND
    digest_per_byte_ns_x100: int = 150  # 1.5 ns/byte, scaled to keep ints
    mac_ns: int = 3 * MICROSECOND
    sign_ns: int = 520 * MICROSECOND
    verify_ns: int = 40 * MICROSECOND
    threshold_partial_ns: int = 750 * MICROSECOND
    threshold_combine_ns: int = 900 * MICROSECOND

    def digest_cost(self, size: int) -> int:
        """Cost of digesting ``size`` bytes."""
        return self.digest_base_ns + (size * self.digest_per_byte_ns_x100) // 100

    def authenticator_cost(self, n_replicas: int) -> int:
        """Cost of computing a full authenticator (one MAC per replica)."""
        return self.mac_ns * n_replicas
