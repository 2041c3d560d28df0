"""Live shard rebalancing: move a unit between PBFT groups under traffic.

:class:`ShardRebalancer` drives the migration protocol whose shard-side
state machine lives in :mod:`repro.shard.txapp` (DESIGN.md §12).  Every
step is an ordinary operation ordered through a group's own PBFT log, so
the driver needs no authority of its own — it is a client, and any of its
steps can be re-driven by a successor after a crash:

1. **FREEZE** the unit at the source group.  New writes and prepares draw
   ``ReplyFrozen``; the reply names the prepared transactions still holding
   locks on the unit, which the driver drains (resolve at their
   coordinator, presumed abort, deliver the outcome) until none remain.
2. **BEGIN** at the destination: the incoming unit is frozen there too,
   so nothing can dirty it while chunks land.
3. **Copy loop**: EXPORT a chunk at the source (deterministic — the unit
   is frozen), INSTALL it at the destination (idempotent by chunk index),
   repeat until the source reports done.
4. **ACTIVATE** at the destination with the directory version the move
   will publish: the unit is now served there.
5. **Checkpoint boundary**: wait until f+1 destination replicas report a
   stable checkpoint at or past the activation, driving the sequence
   number forward with ordered STATUS polls if the group is idle.  Only
   then is the copy durable enough to destroy the original — a lagging
   destination replica now reaches the data via checkpoint state
   transfer, never by re-executing installs against purged state.
6. **COMMIT** at the source: purge the unit and leave a *moved tombstone*
   that answers every later operation with a ``WRONG_SHARD`` redirect.
7. **Publish** the directory bump (``apply_move`` / ``apply_table`` to
   the version the activation recorded), healing every router that
   clones or shares the authoritative directory; stale routers heal
   through the redirects.

``crash_point`` ("after_freeze" / "after_copy" / "after_activate") stops
the driver cold at that point of its next move, leaving the deployment
mid-migration for the fault campaign; :meth:`resume` reconstructs the
move from the groups' replicated migration tables and finishes it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import ShardError
from repro.common.units import MILLISECOND
from repro.crypto.digests import md5_digest
from repro.pbft.wire import decode_exact
from repro.shard.txapp import (
    DECISION_ABORT,
    ROLE_SRC,
    ExportPayload,
    FreezePayload,
    MigAbort,
    MigActivate,
    MigBegin,
    MigCommit,
    MigExport,
    MigFreeze,
    MigInstall,
    MigStatus,
    RangeUnit,
    ReplyDecision,
    ReplyErr,
    ReplyMig,
    TableUnit,
    TxResolve,
    decode_tx_reply,
    outcome_op,
)

# A freeze that still finds prepared holders drains them and re-freezes
# this long after, at most DRAIN_POLL_LIMIT times before the move fails.
DRAIN_POLL_NS = 20 * MILLISECOND
DRAIN_POLL_LIMIT = 100
# The destination's checkpoint covering the install is polled (with an
# ordered no-op) this often, at most CHECKPOINT_POLL_LIMIT times.
CHECKPOINT_POLL_NS = 10 * MILLISECOND
CHECKPOINT_POLL_LIMIT = 400


class MoveRecord:
    """One migration's progress and result (also the ``on_done`` payload)."""

    __slots__ = ("mig_id", "unit", "src", "dst", "version", "chunks",
                 "started_at", "finished_at", "state", "reason", "resumed",
                 "drain_polls", "ckpt_polls", "target_exec", "on_done")

    def __init__(self, mig_id: bytes, unit, src: int, dst: int,
                 on_done: Optional[Callable] = None):
        self.mig_id = mig_id
        self.unit = unit
        self.src = src
        self.dst = dst
        self.version = 0      # directory version the move publishes
        self.chunks = 0
        self.started_at = 0
        self.finished_at = 0
        self.state = "running"
        self.reason = ""
        self.resumed = False
        self.drain_polls = 0
        self.ckpt_polls = 0
        self.target_exec = 0
        self.on_done = on_done


class ShardRebalancer:
    """Drives live unit migrations over a dedicated per-group client set.

    Closed-loop: one move in flight at a time, one operation in flight
    per step — the driver is an ordinary (if privileged-looking) client
    and enjoys no more authority than one.
    """

    def __init__(
        self,
        sim,
        directory,
        clients: dict[int, object],  # shard -> PbftClient (dedicated)
        groups,                      # list of per-group Cluster objects
        obs=None,
        chunk_budget: int = 2048,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.clients = clients
        self.groups = groups
        self.chunk_budget = chunk_budget
        self._seq = 0
        self._active: Optional[MoveRecord] = None
        self.history: list[MoveRecord] = []
        self.crashed = False
        # Testing hook: crash the driver cold at this point of the next
        # move ("after_freeze" / "after_copy" / "after_activate").
        self.crash_point: Optional[str] = None
        if obs is not None:
            self.stats = obs.registry.view("rebalance.")
        else:
            from repro.obs import Observability

            self.stats = Observability().registry.view("rebalance.")

    # -- public API -----------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._active is not None

    def move_range(self, lo: int, hi: int, dst: int,
                   on_done: Optional[Callable] = None) -> bytes:
        """Start migrating the key range ``[lo, hi)`` to group ``dst``."""
        return self._start(RangeUnit(lo, hi), self.directory.owner_of_range(lo, hi), dst, on_done)

    def move_table(self, table: str, dst: int,
                   on_done: Optional[Callable] = None) -> bytes:
        """Start migrating a whole SQL table to group ``dst``."""
        table = table.lower()
        return self._start(TableUnit(table), self.directory.shard_of_table(table), dst, on_done)

    def resume(self, on_done: Optional[Callable] = None) -> Optional[bytes]:
        """Finish whatever a crashed predecessor left mid-flight.

        Reconstructs the move from the groups' replicated migration
        tables (the same way the reconciliation sweep reads prepared
        transactions) and re-drives it from the earliest incomplete
        step; every shard-side op is idempotent, so overlap with the
        predecessor's completed work is harmless.  Returns the resumed
        migration id, or None if nothing was in flight.
        """
        if self.busy:
            raise ShardError("rebalancer is busy")
        self.crashed = False
        # An active source-side record is the anchor: FREEZE is ordered
        # before everything else, so any in-flight move has one (until
        # COMMIT replaces it with a moved tombstone).
        for shard in range(len(self.groups)):
            app = self._tx_app(shard)
            if app is None:
                continue
            for mig_id, mig in sorted(app.migrations().items()):
                if mig.role != ROLE_SRC:
                    continue
                peer = mig.peer
                rec = MoveRecord(mig_id, mig.unit, shard, peer, on_done)
                rec.resumed = True
                rec.started_at = self.sim.now
                self._active = rec
                self._count("moves_resumed")
                dst_app = self._tx_app(peer)
                owned = dst_app.owned_units() if dst_app is not None else {}
                if mig_id in owned:
                    # Crash fell between ACTIVATE and COMMIT: redo the
                    # checkpoint wait against the recorded version.
                    rec.version = owned[mig_id][1]
                    self._start_checkpoint_wait(rec)
                else:
                    # Re-drive from the freeze; installs dedupe by index.
                    self._freeze(rec)
                return mig_id
        # Source committed (tombstone live) but the bump never published:
        # publishing is all that is left.
        for shard in range(len(self.groups)):
            app = self._tx_app(shard)
            if app is None:
                continue
            for mig_id in sorted(app.moved_units()):
                unit, dst, version = app.moved_units()[mig_id]
                if version > self.directory.version:
                    rec = MoveRecord(mig_id, unit, shard, dst, on_done)
                    rec.resumed = True
                    rec.version = version
                    rec.started_at = self.sim.now
                    self._active = rec
                    self._count("moves_resumed")
                    self._publish(rec)
                    return mig_id
        return None

    # -- helpers --------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.stats.inc(name)

    def _tx_app(self, shard: int):
        for app in self.groups[shard].apps:
            if hasattr(app, "migrations"):
                return app
        return None

    def _invoke(self, shard: int, op: bytes, callback) -> None:
        if self.crashed:
            return
        client = self.clients[shard]
        if client.busy:
            client.cancel_pending()

        def on_reply(result: bytes, _latency: int) -> None:
            if not self.crashed:
                callback(result)

        client.invoke(op, callback=on_reply)

    def _maybe_crash(self, point: str) -> bool:
        if self.crash_point == point:
            self.crash_point = None
            self.crashed = True
            self._active = None
            self._count("driver_crashes")
            for client in self.clients.values():
                client.cancel_pending()
            return True
        return False

    def _mig_payload(self, rec: MoveRecord, reply: bytes, step: str):
        """The ``ReplyMig`` payload of a reply, or None after failing the move."""
        tx = decode_tx_reply(reply)
        if type(tx) is ReplyMig:
            return tx.payload
        if type(tx) is ReplyErr:
            self._fail(rec, f"{step}: {tx.message}")
        else:
            self._fail(rec, f"{step}: {type(tx).__name__ if tx else 'non-migration reply'}")
        return None

    # -- the protocol, step by step -------------------------------------------

    def _start(self, unit, src: int, dst: int, on_done) -> bytes:
        if self.busy:
            raise ShardError("rebalancer is busy")
        if self.crashed:
            raise ShardError("rebalancer crashed; resume() it")
        if not 0 <= dst < len(self.groups):
            raise ShardError(f"no shard {dst} in this deployment")
        if src == dst:
            raise ShardError(f"unit {unit} already lives on shard {dst}")
        self._seq += 1
        mig_id = md5_digest(
            b"migration" + self._seq.to_bytes(8, "big") + unit.encode()
        )
        rec = MoveRecord(mig_id, unit, src, dst, on_done)
        rec.started_at = self.sim.now
        self._active = rec
        self._count("moves_started")
        self._freeze(rec)
        return mig_id

    def _freeze(self, rec: MoveRecord) -> None:
        self._invoke(
            rec.src, MigFreeze(rec.mig_id, rec.unit, rec.dst).encode(),
            lambda reply: self._on_frozen(rec, reply),
        )

    def _on_frozen(self, rec: MoveRecord, reply: bytes) -> None:
        payload = self._mig_payload(rec, reply, "freeze")
        if payload is None:
            return
        holders = list(decode_exact(FreezePayload, payload).holders)
        if holders:
            rec.drain_polls += 1
            if rec.drain_polls > DRAIN_POLL_LIMIT:
                self._fail(rec, "prepared holders would not drain")
                return
            self._drain(rec, holders)
            return
        if self._maybe_crash("after_freeze"):
            return
        self._begin(rec)

    def _drain(self, rec: MoveRecord, holders: list) -> None:
        """Presumed-abort the prepared transactions still holding the unit:
        RESOLVE each at its coordinator, deliver the outcome at the source,
        then re-freeze to observe what is left."""
        if not holders:
            self.sim.schedule(DRAIN_POLL_NS, lambda: self._freeze(rec))
            return
        txid, coordinator = holders.pop(0)

        def on_resolved(reply: bytes) -> None:
            tx = decode_tx_reply(reply)
            decision = tx.decision if type(tx) is ReplyDecision else DECISION_ABORT
            self._invoke(
                rec.src, outcome_op(txid, decision), lambda _r: self._drain(rec, holders)
            )

        self._count("holders_drained")
        self._invoke(coordinator, TxResolve(txid).encode(), on_resolved)

    def _begin(self, rec: MoveRecord) -> None:
        self._invoke(
            rec.dst, MigBegin(rec.mig_id, rec.unit, rec.src).encode(),
            lambda reply: (
                None if self._mig_payload(rec, reply, "begin") is None
                else self._copy(rec, cursor=0, chunk_index=0)
            ),
        )

    def _copy(self, rec: MoveRecord, cursor: int, chunk_index: int) -> None:
        self._invoke(
            rec.src, MigExport(rec.mig_id, cursor, self.chunk_budget).encode(),
            lambda reply: self._on_exported(rec, chunk_index, reply),
        )

    def _on_exported(self, rec: MoveRecord, chunk_index: int, reply: bytes) -> None:
        payload = self._mig_payload(rec, reply, "export")
        if payload is None:
            return
        exported = decode_exact(ExportPayload, payload)
        self._invoke(
            rec.dst, MigInstall(rec.mig_id, chunk_index, exported.chunk).encode(),
            lambda r: self._on_installed(
                rec, exported.next_cursor, chunk_index, exported.done, r
            ),
        )

    def _on_installed(self, rec: MoveRecord, next_cursor: int,
                      chunk_index: int, done: bool, reply: bytes) -> None:
        if self._mig_payload(rec, reply, "install") is None:
            return
        rec.chunks += 1
        if not done:
            self._copy(rec, next_cursor, chunk_index + 1)
            return
        if self._maybe_crash("after_copy"):
            return
        self._activate(rec)

    def _activate(self, rec: MoveRecord) -> None:
        if rec.version == 0:
            rec.version = self.directory.version + 1
        self._invoke(
            rec.dst, MigActivate(rec.mig_id, rec.unit, rec.version).encode(),
            lambda reply: self._on_activated(rec, reply),
        )

    def _on_activated(self, rec: MoveRecord, reply: bytes) -> None:
        if self._mig_payload(rec, reply, "activate") is None:
            return
        if self._maybe_crash("after_activate"):
            return
        self._start_checkpoint_wait(rec)

    def _start_checkpoint_wait(self, rec: MoveRecord) -> None:
        rec.target_exec = max(
            replica.last_exec for replica in self.groups[rec.dst].replicas
        )
        self._await_checkpoint(rec)

    def _await_checkpoint(self, rec: MoveRecord) -> None:
        """Hold the purge until the activation is checkpoint-stable at the
        destination: f+1 replicas reporting stable >= target means at
        least one *correct* replica holds a 2f+1 stability certificate
        covering the activation and every install before it."""
        if self.crashed:
            return
        group = self.groups[rec.dst]
        stables = sorted(
            (replica.checkpoints.stable_seq for replica in group.replicas),
            reverse=True,
        )
        if stables[group.config.f] >= rec.target_exec:
            self._commit(rec)
            return
        rec.ckpt_polls += 1
        if rec.ckpt_polls > CHECKPOINT_POLL_LIMIT:
            self._fail(rec, "destination checkpoint never stabilized")
            return
        # An ordered no-op (STATUS) nudges the sequence number toward the
        # next checkpoint boundary even if the group is otherwise idle.
        self._invoke(
            rec.dst, MigStatus(rec.mig_id).encode(),
            lambda _r: self.sim.schedule(
                CHECKPOINT_POLL_NS, lambda: self._await_checkpoint(rec)
            ),
        )

    def _commit(self, rec: MoveRecord) -> None:
        self._invoke(
            rec.src,
            MigCommit(rec.mig_id, rec.unit, rec.dst, rec.version).encode(),
            lambda reply: (
                None if self._mig_payload(rec, reply, "commit") is None
                else self._publish(rec)
            ),
        )

    def _publish(self, rec: MoveRecord) -> None:
        rec.unit.place(self.directory, rec.dst, rec.version)
        rec.state = "done"
        rec.finished_at = self.sim.now
        self._active = None
        self.history.append(rec)
        self._count("moves_completed")
        if rec.on_done is not None:
            rec.on_done(rec)

    def _fail(self, rec: MoveRecord, reason: str) -> None:
        """Cancel on both sides (thawing whatever froze), then report."""
        rec.state = "failed"
        rec.reason = reason
        self._count("moves_failed")
        self._invoke(
            rec.src, MigAbort(rec.mig_id).encode(),
            lambda _r: self._invoke(
                rec.dst, MigAbort(rec.mig_id).encode(),
                lambda _r2: self._finish_failed(rec),
            ),
        )

    def _finish_failed(self, rec: MoveRecord) -> None:
        rec.finished_at = self.sim.now
        self._active = None
        self.history.append(rec)
        if rec.on_done is not None:
            rec.on_done(rec)
