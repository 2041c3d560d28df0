"""Non-determinism handling (paper sections 2.1 and 2.5).

The primary attaches non-deterministic data (here: its local timestamp) to
each pre-prepare via an application up-call; every replica executes with
the *same* data, keeping the state machine deterministic.  BASE added a
second up-call that *validates* the data on each backup.

Section 2.5's subtle issue lives in :class:`TimeDeltaValidator`: validating
"fresh" pre-prepares against a time delta works, but the same check fails
when a request is *replayed* during recovery, because the drift is then
large — and the original implementation cannot tell replay from normal
processing.  ``TimeDeltaValidator(recovery_aware=True)`` is the paper's
proposed fix: skip the check while replaying.
"""

from __future__ import annotations

import struct

from repro.net.fabric import Host

_TS = struct.Struct(">q")


def encode_timestamp(ts_ns: int) -> bytes:
    return _TS.pack(ts_ns)


def decode_timestamp(nondet: bytes) -> int:
    if len(nondet) < _TS.size:
        return 0
    return _TS.unpack_from(nondet)[0]


def primary_timestamp(host: Host) -> bytes:
    """Primary-side up-call: attach the primary's wall clock."""
    return encode_timestamp(host.local_time())


class TimeDeltaValidator:
    """Backup-side up-call: accept timestamps within a configured delta.

    ``replaying`` is True when the request is being replayed from the log
    during recovery; the original implementation has no such flag (message
    execution "is completely orthogonal to its origin"), which is what
    breaks — modelled by ``recovery_aware=False``.
    """

    def __init__(self, delta_ns: int, recovery_aware: bool = False) -> None:
        self.delta_ns = delta_ns
        self.recovery_aware = recovery_aware
        self.rejections = 0
        self.replay_rejections = 0

    def validate(self, nondet: bytes, host: Host, replaying: bool = False) -> bool:
        if replaying and self.recovery_aware:
            return True
        ts = decode_timestamp(nondet)
        ok = abs(host.local_time() - ts) <= self.delta_ns
        if not ok:
            self.rejections += 1
            if replaying:
                self.replay_rejections += 1
        return ok


class AcceptAllValidator:
    """A validator that never rejects (for configurations without one)."""

    def validate(self, nondet: bytes, host: Host, replaying: bool = False) -> bool:
        return True
