"""Numbered state snapshots and the agreement that makes them stable.

PBFT takes a checkpoint every K executed requests.  A checkpoint becomes
*stable* once a replica holds 2f+1 matching checkpoint messages, at which
point the message log below it can be garbage collected and the low/high
watermarks advance (paper section 2.1).  The latest stable checkpoint is
the replica's durable image (section 2.3); before any checkpoint is taken
it is the genesis state, stable checkpoint 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.common.errors import StateError


@dataclass
class Checkpoint:
    """A copy-on-write snapshot of the state at sequence number ``seq``."""

    seq: int
    root: bytes
    pages: list[bytes]
    tree_nodes: list[bytes]
    proof: dict[int, bytes] = field(default_factory=dict)  # replica -> claimed root
    # Library bookkeeping snapshotted with the state (conceptually part of
    # the library partition pages): each client's execution watermark and
    # last reply, so whoever adopts the one can answer with the other.
    client_marks: dict = field(default_factory=dict)
    client_replies: dict = field(default_factory=dict)

    @property
    def stable_votes(self) -> int:
        return len(self.proof)


class CheckpointStore:
    """Recent checkpoints, the votes for them, and the latest stable one."""

    def __init__(self, quorum: int, genesis: Checkpoint, max_kept: int = 4) -> None:
        if quorum <= 0:
            raise StateError("checkpoint quorum must be positive")
        self.quorum = quorum
        self.max_kept = max_kept
        self._by_seq: dict[int, Checkpoint] = {genesis.seq: genesis}
        self.stable_seq: int = genesis.seq
        # Votes for checkpoints not taken here yet: seq -> replica -> root.
        self._parked: dict[int, dict[int, bytes]] = {}

    def add(self, checkpoint: Checkpoint, own: int) -> bool:
        """Hold our own checkpoint, counting our vote and every vote parked
        for it; returns True when that made it stable."""
        self._by_seq[checkpoint.seq] = checkpoint
        checkpoint.proof[own] = checkpoint.root
        for replica, root in self._parked.pop(checkpoint.seq, {}).items():
            if root == checkpoint.root:
                checkpoint.proof[replica] = root
        self._trim()
        return self._maybe_stabilize(checkpoint)

    def get(self, seq: int) -> Checkpoint | None:
        return self._by_seq.get(seq)

    def latest(self) -> Checkpoint:
        return self._by_seq[max(self._by_seq)]

    def latest_stable(self) -> Checkpoint:
        return self._by_seq[self.stable_seq]

    def record_vote(self, seq: int, replica: int, root: bytes) -> bool:
        """Record one replica's checkpoint message; returns True when the
        checkpoint at ``seq`` just became stable.  A vote for a checkpoint
        not taken here yet is parked until :meth:`add`."""
        if seq <= self.stable_seq:
            return False
        checkpoint = self._by_seq.get(seq)
        if checkpoint is None:
            self._parked.setdefault(seq, {})[replica] = root
            return False
        if root != checkpoint.root:
            return False  # divergent claim; never counts toward stability
        checkpoint.proof[replica] = root
        return self._maybe_stabilize(checkpoint)

    def voters(self, seq: int, root: bytes) -> list[int]:
        """Replicas whose parked vote claims ``root`` at ``seq``, ascending."""
        votes = self._parked.get(seq, {})
        return sorted(r for r, claimed in votes.items() if claimed == root)

    def vouched_root(self, seq: int, k: int) -> bytes | None:
        """The first root at least ``k`` parked votes claim at ``seq``."""
        counts = Counter(self._parked.get(seq, {}).values())
        return next((root for root, n in counts.items() if n >= k), None)

    def discard_after(self, seq: int) -> None:
        """Forget the checkpoints above ``seq`` (taken on state being rolled
        back); the stable one is kept."""
        for old in [s for s in self._by_seq if s > max(seq, self.stable_seq)]:
            del self._by_seq[old]

    def _maybe_stabilize(self, checkpoint: Checkpoint) -> bool:
        if checkpoint.stable_votes < self.quorum or checkpoint.seq <= self.stable_seq:
            return False
        self.stable_seq = checkpoint.seq
        for seq in [s for s in self._parked if s <= checkpoint.seq]:
            del self._parked[seq]
        self._trim()
        return True

    def _trim(self) -> None:
        # Keep the stable checkpoint plus the most recent max_kept.
        seqs = sorted(self._by_seq)
        keep = set(seqs[-self.max_kept :])
        keep.add(self.stable_seq)
        for seq in seqs:
            if seq not in keep and seq < self.stable_seq:
                del self._by_seq[seq]
