"""Dynamic replica membership: epochs, ordered reconfiguration, recovery.

The paper contributes dynamic *client* membership (section 3) but keeps
the replica set fixed.  This module adds the repairable-replica regime of
"Dynamic Practical BFT" (arXiv:2210.14003) and "Repairable Voting Nodes"
(arXiv:2306.10960):

* **Ordered reconfiguration.**  Replica join/leave/replace are system
  operations (:class:`repro.membership.messages.ReconfigPayload`) ordered
  through the normal three-phase protocol, so every correct replica
  observes the same reconfiguration at the same sequence number.  The
  accepted operation is *pending* until the next checkpoint boundary,
  where it deterministically takes effect and bumps the **epoch** (the
  configuration version).

* **Constant-slot model.**  The group keeps 3f+1 *slots*; a
  reconfiguration fills a vacant slot (join), vacates one (leave), or
  bumps a slot's *incarnation* (replace).  Quorum arithmetic is untouched
  — which is also why quorum intersection across reconfiguration holds:
  any two quorums still intersect in f+1 slots, and the epoch gate below
  keeps a slot's stale incarnation from contributing to both sides.

* **Persistence in the library partition.**  The epoch record (epoch,
  slot table, pending op, boundary marks) lives in the last library page
  of the shared :class:`~repro.statemgr.pages.PagedState`, next to the
  client table — so it is checkpointed, state-transferred, and rolled
  back like everything else, and a bootstrapping replica adopts the
  group's configuration simply by fetching a stable checkpoint.

* **Epoch-aware authenticators.**  Every envelope carries the sender's
  epoch.  Agreement traffic from a slot reconfigured *after* the
  sender's stamped epoch — a stale incarnation — is rejected loudly
  (``stale_epoch_rejected``).  Honest laggards (continuing slots still
  one epoch behind across a boundary) are admitted: their slot was not
  reconfigured, so their messages are exactly as trustworthy as before.

* **Proactive recovery.**  :class:`ProactiveRecovery` periodically
  refreshes a replica's key material at the directory and restarts it
  from durable state, bounding the window an adversary has to accumulate
  more than f compromised replicas.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.common.errors import ProtocolError
from repro.pbft.wire import decode_exact

# NB: repro.membership.messages is imported lazily inside the methods that
# need the ReconfigPayload codec — at module level it would close an import
# cycle (membership.messages -> pbft.messages -> pbft -> replica -> here).

_MAGIC = 0x45504F43  # "EPOC"
# magic, epoch, pending flag, pending action, pending slot, pending incarnation
_HEADER = struct.Struct(">IIBBHI")
# per slot: active flag, incarnation, epoch the slot last changed at
_SLOT = struct.Struct(">BII")
# epoch mark: boundary seq, epoch in force for seqs > boundary
_MARK = struct.Struct(">QI")
_MARK_COUNT = struct.Struct(">H")
MAX_EPOCH_MARKS = 64

REPLY_RECONFIG_OK = b"RECONFIG-OK"
REPLY_RECONFIG_BUSY = b"RECONFIG-BUSY"
REPLY_RECONFIG_BAD = b"RECONFIG-BAD"


@dataclass
class SlotState:
    """One replica slot of the constant-size group."""

    active: bool = True
    incarnation: int = 0
    # Epoch at which this slot last changed (join/leave/replace).  The
    # epoch gate rejects agreement traffic stamped with an older epoch:
    # only the slot's previous incarnation can be that stale.
    changed_epoch: int = 0


class ReconfigManager:
    """Per-replica epoch state: ordered reconfiguration + the epoch gate."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.config = replica.config
        self.state = replica.state
        self.stats = replica.stats
        # The record occupies the *last* library page; the client table and
        # session slots grow from the front of the partition.
        self.base_offset = (self.config.library_pages - 1) * self.config.page_size
        self.epoch = 0
        self.slots = [SlotState() for _ in range(self.config.n)]
        self.pending: ReconfigPayload | None = None
        # (boundary seq, epoch in force for seqs > boundary), ascending.
        self.epoch_marks: list[tuple[int, int]] = [(0, 0)]
        self._gauge = replica.obs.registry.gauge(
            f"{self.config.group_prefix}replica{replica.node_id}.epoch"
        )
        # No initial persist: a fresh all-zero state decodes to exactly
        # these defaults (magic check fails -> defaults), which keeps the
        # seed's state bytes and checkpoint roots bit-identical until the
        # first reconfiguration actually executes.

    # -- persistence -------------------------------------------------------------

    def _record_bytes(self) -> bytes:
        pending = self.pending
        parts = [
            _HEADER.pack(
                _MAGIC,
                self.epoch,
                1 if pending is not None else 0,
                pending.action if pending is not None else 0,
                pending.slot if pending is not None else 0,
                pending.incarnation if pending is not None else 0,
            )
        ]
        for slot in self.slots:
            parts.append(
                _SLOT.pack(1 if slot.active else 0, slot.incarnation, slot.changed_epoch)
            )
        parts.append(_MARK_COUNT.pack(len(self.epoch_marks)))
        for boundary, epoch in self.epoch_marks:
            parts.append(_MARK.pack(boundary, epoch))
        return b"".join(parts)

    def _persist(self) -> None:
        data = self._record_bytes()
        self.state.modify(self.base_offset, len(data))
        self.state.write(self.base_offset, data)

    def reload_from_state(self) -> None:
        """Rebuild epoch state from the library partition (state transfer,
        rollback, restart)."""
        from repro.membership.messages import ReconfigPayload

        offset = self.base_offset
        header = self.state.read(offset, _HEADER.size)
        magic, epoch, has_pending, action, slot, incarnation = _HEADER.unpack(header)
        if magic != _MAGIC:
            # Never reconfigured: the defaults.
            self.epoch = 0
            self.slots = [SlotState() for _ in range(self.config.n)]
            self.pending = None
            self.epoch_marks = [(0, 0)]
            self._sync_replica_epoch()
            return
        self.epoch = epoch
        self.pending = (
            ReconfigPayload(action=action, slot=slot, incarnation=incarnation)
            if has_pending
            else None
        )
        offset += _HEADER.size
        slots = []
        for _ in range(self.config.n):
            active, inc, changed = _SLOT.unpack(self.state.read(offset, _SLOT.size))
            slots.append(
                SlotState(active=bool(active), incarnation=inc, changed_epoch=changed)
            )
            offset += _SLOT.size
        self.slots = slots
        (count,) = _MARK_COUNT.unpack(self.state.read(offset, _MARK_COUNT.size))
        offset += _MARK_COUNT.size
        marks = []
        for _ in range(count):
            boundary, mark_epoch = _MARK.unpack(self.state.read(offset, _MARK.size))
            marks.append((boundary, mark_epoch))
            offset += _MARK.size
        self.epoch_marks = marks or [(0, 0)]
        self._sync_replica_epoch()

    def _sync_replica_epoch(self) -> None:
        """Propagate the installed epoch into the replica's send path."""
        replica = self.replica
        if replica.current_epoch != self.epoch:
            replica.current_epoch = self.epoch
            # Cached pairwise keys may predate a key refresh that rode
            # along with the reconfiguration; re-fetch from the directory.
            replica.drop_session_keys("replica")
        self._gauge.set(self.epoch)

    # -- ordered execution ---------------------------------------------------------

    def execute_system(self, req, nondet_ts: int) -> bytes:
        """Execute one ordered SYS_RECONFIG op (deterministic across the
        group).  The op becomes *pending* and takes effect at the next
        checkpoint boundary."""
        from repro.membership.messages import (
            RECONFIG_JOIN,
            RECONFIG_LEAVE,
            RECONFIG_REPLACE,
            ReconfigPayload,
        )

        try:
            payload = decode_exact(ReconfigPayload, req.op)
        except ProtocolError:
            self.stats.inc("reconfig_rejected")
            return REPLY_RECONFIG_BAD
        if not (0 <= payload.slot < self.config.n):
            self.stats.inc("reconfig_rejected")
            return REPLY_RECONFIG_BAD
        if self.pending is not None:
            # One reconfiguration per epoch transition: a second request
            # before the boundary must retry after it.
            self.stats.inc("reconfig_busy")
            return REPLY_RECONFIG_BUSY
        slot = self.slots[payload.slot]
        if payload.action == RECONFIG_JOIN and slot.active:
            self.stats.inc("reconfig_rejected")
            return REPLY_RECONFIG_BAD
        if payload.action in (RECONFIG_LEAVE, RECONFIG_REPLACE) and not slot.active:
            self.stats.inc("reconfig_rejected")
            return REPLY_RECONFIG_BAD
        self.pending = payload
        self._persist()
        self.stats.inc("reconfig_accepted")
        if self.replica.tracer.enabled:
            self.replica.tracer.event(
                self.replica.host.name, "reconfig-pending", cat="pbft.reconfig",
                args={
                    "action": payload.action,
                    "slot": payload.slot,
                    "incarnation": payload.incarnation,
                },
            )
        return REPLY_RECONFIG_OK

    def apply_pending(self, seq: int) -> None:
        """At a checkpoint boundary: install the pending reconfiguration.

        The boundary batch itself executes under the *old* epoch; the new
        epoch governs sequence numbers strictly greater than ``seq``.
        Runs inside ``_execute_batch`` before ``end_of_execution``, so the
        updated record is part of the very checkpoint taken at ``seq`` —
        a bootstrapping replica that fetches it adopts the new epoch.
        """
        from repro.membership.messages import RECONFIG_JOIN, RECONFIG_REPLACE

        payload = self.pending
        if payload is None:
            return
        self.epoch += 1
        slot = self.slots[payload.slot]
        if payload.action in (RECONFIG_JOIN, RECONFIG_REPLACE):
            slot.active = True
            slot.incarnation = max(slot.incarnation + 1, payload.incarnation)
        else:  # RECONFIG_LEAVE
            slot.active = False
        slot.changed_epoch = self.epoch
        self.pending = None
        self.epoch_marks.append((seq, self.epoch))
        if len(self.epoch_marks) > MAX_EPOCH_MARKS:
            del self.epoch_marks[: len(self.epoch_marks) - MAX_EPOCH_MARKS]
        self._persist()
        self._sync_replica_epoch()
        self.stats.inc("reconfig_applied")
        if self.replica.tracer.enabled:
            self.replica.tracer.event(
                self.replica.host.name, "epoch-install", cat="pbft.reconfig",
                args={"epoch": self.epoch, "boundary_seq": seq,
                      "action": payload.action, "slot": payload.slot},
            )

    # -- queries ------------------------------------------------------------------

    def epoch_at(self, seq: int) -> int:
        """The epoch governing sequence number ``seq``."""
        current = 0
        for boundary, epoch in self.epoch_marks:
            if seq > boundary:
                current = epoch
            else:
                break
        return current

    def admit_sender(self, sender_slot: int, sender_epoch: int) -> bool:
        """The epoch gate for replica-sender agreement traffic.

        Rejects (a) inactive slots and (b) senders whose stamped epoch
        predates their own slot's last reconfiguration — i.e. the slot's
        previous incarnation.  A continuing slot lagging a boundary is
        admitted: nothing about *its* identity changed, and dropping its
        one-shot prepares would wedge the transition window.
        """
        if not (0 <= sender_slot < len(self.slots)):
            return False
        slot = self.slots[sender_slot]
        if not slot.active:
            return False
        return sender_epoch >= slot.changed_epoch


def refresh_replica_keys(cluster, rid: int) -> None:
    """Refresh one replica's key material at the directory and drop every
    cached copy of the old keys (proactive recovery / replace).

    The directory is the PKI: after the refresh, peers re-derive the new
    pairwise keys on demand, while any old incarnation of the slot still
    holds the stale ones — under real crypto its traffic stops verifying,
    and under fake crypto the envelope epoch gate covers it.
    """
    cluster.keys.refresh_slot(rid)
    for peer in cluster.replicas:
        if peer.node_id == rid:
            continue
        peer.session_keys.pop(("replica", rid), None)
        peer._group_keys = None
    target = cluster.replicas[rid]
    target.drop_session_keys("replica")


class ProactiveRecovery:
    """Periodic key-refresh + restart per replica (round-robin).

    Staggered so at most one replica is recovering at a time, and skipped
    outright when fewer than 2f+1 *other* replicas are live — a recovery
    restart must never be the event that costs the group its quorum.
    """

    def __init__(self, cluster, interval_ns: int) -> None:
        self.cluster = cluster
        self.interval_ns = interval_ns
        self._timers = []
        n = cluster.config.n
        for rid in range(n):
            delay = interval_ns + (rid * interval_ns) // n
            self._timers.append(
                cluster.sim.schedule(delay, lambda rid=rid: self._fire(rid))
            )

    def _fire(self, rid: int) -> None:
        cluster = self.cluster
        self._timers[rid] = cluster.sim.schedule(
            self.interval_ns, lambda: self._fire(rid)
        )
        replica = cluster.replicas[rid]
        if replica.crashed:
            return
        others_live = sum(
            1 for r in cluster.replicas if not r.crashed and r.node_id != rid
        )
        if others_live < cluster.config.quorum:
            # Recovering now would drop the group below 2f+1 live
            # replicas; try again next period.
            replica.stats.inc("proactive_recovery_skipped")
            return
        refresh_replica_keys(cluster, rid)
        replica.stats.inc("proactive_recoveries")
        if replica.tracer.enabled:
            replica.tracer.event(
                replica.host.name, "proactive-recovery", cat="pbft.reconfig",
                args={"replica": rid},
            )
        replica.crash()
        replica.restart()

    def stop(self) -> None:
        for timer in self._timers:
            if timer is not None and timer.pending:
                timer.cancel()
        self._timers = [None] * len(self._timers)
