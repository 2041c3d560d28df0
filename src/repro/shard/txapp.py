"""The per-shard transaction wrapper: 2PC participant state, replicated.

:class:`ShardTxApplication` wraps any :class:`~repro.pbft.replica.Application`
and adds the shard-side half of the cross-shard commit protocol
(Basil-style: BFT groups as 2PC participants, see DESIGN.md §9).  The
protocol messages are ordinary operations ordered through the group's own
PBFT log — PREPARE, COMMIT, ABORT, DECIDE, RESOLVE — so every replica of
a group processes them in the same order and the transaction tables at
the replicas of one shard never diverge.

Safety rests on two rules:

* a transaction's **decision** (commit or abort) is recorded exactly once,
  by whichever DECIDE or RESOLVE op is ordered *first* in the coordinator
  shard's log — later writers get the recorded decision back, they cannot
  flip it;
* an **abort tombstone** outlives the prepared entry, so a late PREPARE
  retransmission for an aborted transaction is refused instead of
  re-acquiring locks forever.

All transaction state (prepared entries, lock table, outcomes, decisions)
lives in pages reserved at the front of the wrapped application's state
partition, so checkpoints, rollback, and state transfer carry it exactly
like application data: a replica that catches up via state transfer also
catches up on locks.

The same wrapper carries the shard side of **live rebalancing** (DESIGN.md
§12): a *migration unit* — a kv key range or a SQL table — can be frozen
here (the source), copied chunk by chunk into another group (the
destination), activated there, and finally committed here, leaving a
**moved tombstone** that answers every later operation on the unit with a
``WRONG_SHARD`` redirect carrying the authoritative ``(unit, shard,
version)`` fact.  Every migration step is an ordinary operation ordered
through the group's PBFT log, so the replicas of a group always agree on
what is frozen, what has arrived, and what has left — and all of it
persists in the same reserved pages, so a replica that crashes and
catches up via state transfer also catches up on the migration.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.common.errors import StateError
from repro.common.units import MICROSECOND
from repro.pbft.replica import Application
from repro.pbft.wire import Decoder, Encoder
from repro.shard.directory import key_position

# -- operation opcodes (first byte; 0xFF is the middleware's) -----------------
TXOP_PREPARE = 0xB1
TXOP_COMMIT = 0xB2
TXOP_ABORT = 0xB3
TXOP_DECIDE = 0xB4
TXOP_RESOLVE = 0xB5
TXOP_STATUS = 0xB6
TXOP_FORGET = 0xB7

# Migration opcodes (live rebalancing; DESIGN.md §12).
TXOP_MIG_FREEZE = 0xB8    # source: stop writes to a unit, report lock holders
TXOP_MIG_EXPORT = 0xB9    # source: serialize one chunk of the frozen unit
TXOP_MIG_BEGIN = 0xBA     # destination: freeze the incoming unit
TXOP_MIG_INSTALL = 0xBB   # destination: apply one chunk (idempotent by index)
TXOP_MIG_ACTIVATE = 0xBC  # destination: own the unit, start serving it
TXOP_MIG_COMMIT = 0xBD    # source: purge the unit, leave a moved tombstone
TXOP_MIG_ABORT = 0xBE     # either side: cancel an in-flight migration
TXOP_MIG_STATUS = 0xBF    # either side: where did this migration get to?

_MIG_OPS = frozenset(
    (TXOP_MIG_FREEZE, TXOP_MIG_EXPORT, TXOP_MIG_BEGIN, TXOP_MIG_INSTALL,
     TXOP_MIG_ACTIVATE, TXOP_MIG_COMMIT, TXOP_MIG_ABORT, TXOP_MIG_STATUS)
)

_TX_OPS = frozenset(
    (TXOP_PREPARE, TXOP_COMMIT, TXOP_ABORT, TXOP_DECIDE, TXOP_RESOLVE,
     TXOP_STATUS, TXOP_FORGET)
) | _MIG_OPS

# -- shard-layer reply marker --------------------------------------------------
# Replies from the transaction layer start with this byte so routers can
# tell them apart from inner-application replies (which start 0x00-0x03).
REPLY_MAGIC = 0xB0

ST_OK = 0x01
ST_LOCKED = 0x02
ST_TOMBSTONE = 0x03
ST_DECISION = 0x04
ST_UNKNOWN = 0x05
ST_FROZEN = 0x06       # unit is mid-migration; retry after a short backoff
ST_WRONG_SHARD = 0x07  # unit moved away; reply carries (unit, shard, version)
ST_MIG = 0x08          # reply to a migration op; payload is op-specific

ST_ERR = 0x00

DECISION_ABORT = 0
DECISION_COMMIT = 1

TXID_BYTES = 16
MIGID_BYTES = TXID_BYTES

_U8 = tuple(bytes((value,)) for value in range(256))  # what Encoder.u8 appends

_STATE_MAGIC = 0x54585331  # "TXS1"

# Migration roles and phases (wire + persisted encoding).
ROLE_SRC = 0
ROLE_DST = 1

MIG_UNKNOWN = 0   # this shard holds no record of the migration
MIG_SRC_ACTIVE = 1
MIG_DST_ACTIVE = 2
MIG_MOVED = 3     # source side committed: unit purged, tombstone live
MIG_OWNED = 4     # destination side activated: unit served here

# -- migration units ----------------------------------------------------------
# A unit is what moves between groups as one atom: a kv key range in the
# 32-bit hash space, ("range", lo, hi) with half-open [lo, hi), or a whole
# SQL table, ("table", name).

UNIT_RANGE = 0
UNIT_TABLE = 1


def encode_unit(enc: Encoder, unit) -> None:
    if unit[0] == "range":
        enc.u8(UNIT_RANGE).u64(unit[1]).u64(unit[2])
    elif unit[0] == "table":
        enc.u8(UNIT_TABLE).blob(unit[1].encode())
    else:
        raise StateError(f"unknown migration unit kind {unit[0]!r}")


def decode_unit(dec: Decoder):
    kind = dec.u8()
    if kind == UNIT_RANGE:
        return ("range", dec.u64(), dec.u64())
    if kind == UNIT_TABLE:
        return ("table", dec.blob().decode())
    raise StateError(f"unknown migration unit wire kind {kind}")


def unit_covers(unit, lock_key: bytes) -> bool:
    """Does a migration unit cover this lock key?

    Range units cover kv keys by hash position (the same position the
    directory routes by); table units cover exactly the ``table:<name>``
    lock unit the SQL ``keys_of`` emits.
    """
    if unit[0] == "range":
        return unit[1] <= key_position(lock_key) < unit[2]
    return lock_key == b"table:" + unit[1].encode()


# -- operation encoding (used by routers and tests) ---------------------------

def encode_prepare(
    txid: bytes,
    coordinator: int,
    participants: Iterable[int],
    ops: Iterable[bytes],
    lock_keys: Iterable[bytes],
) -> bytes:
    enc = Encoder().u8(TXOP_PREPARE).raw(txid).u16(coordinator)
    enc.sequence(list(participants), lambda e, s: e.u16(s))
    enc.sequence(list(ops), lambda e, op: e.blob(op))
    enc.sequence(list(lock_keys), lambda e, k: e.blob(k))
    return enc.finish()


def encode_commit(txid: bytes) -> bytes:
    return Encoder().u8(TXOP_COMMIT).raw(txid).finish()


def encode_abort(txid: bytes) -> bytes:
    return Encoder().u8(TXOP_ABORT).raw(txid).finish()


def encode_decide(txid: bytes, decision: int) -> bytes:
    return Encoder().u8(TXOP_DECIDE).raw(txid).u8(decision).finish()


def encode_resolve(txid: bytes) -> bytes:
    return Encoder().u8(TXOP_RESOLVE).raw(txid).finish()


def encode_status(txid: bytes) -> bytes:
    return Encoder().u8(TXOP_STATUS).raw(txid).finish()


def encode_forget(txid: bytes) -> bytes:
    return Encoder().u8(TXOP_FORGET).raw(txid).finish()


# -- migration op encoding (used by the rebalancer and tests) -----------------

def encode_mig_freeze(mig_id: bytes, unit, dst: int) -> bytes:
    enc = Encoder().u8(TXOP_MIG_FREEZE).raw(mig_id)
    encode_unit(enc, unit)
    return enc.u16(dst).finish()


def encode_mig_export(mig_id: bytes, cursor: int, budget: int) -> bytes:
    return (
        Encoder().u8(TXOP_MIG_EXPORT).raw(mig_id)
        .u64(cursor).u32(budget).finish()
    )


def encode_mig_begin(mig_id: bytes, unit, src: int) -> bytes:
    enc = Encoder().u8(TXOP_MIG_BEGIN).raw(mig_id)
    encode_unit(enc, unit)
    return enc.u16(src).finish()


def encode_mig_install(mig_id: bytes, chunk_index: int, chunk: bytes) -> bytes:
    return (
        Encoder().u8(TXOP_MIG_INSTALL).raw(mig_id)
        .u32(chunk_index).blob(chunk).finish()
    )


def encode_mig_activate(mig_id: bytes, unit, version: int) -> bytes:
    enc = Encoder().u8(TXOP_MIG_ACTIVATE).raw(mig_id)
    encode_unit(enc, unit)
    return enc.u32(version).finish()


def encode_mig_commit(mig_id: bytes, unit, dst: int, version: int) -> bytes:
    enc = Encoder().u8(TXOP_MIG_COMMIT).raw(mig_id)
    encode_unit(enc, unit)
    return enc.u16(dst).u32(version).finish()


def encode_mig_abort(mig_id: bytes) -> bytes:
    return Encoder().u8(TXOP_MIG_ABORT).raw(mig_id).finish()


def encode_mig_status(mig_id: bytes) -> bytes:
    return Encoder().u8(TXOP_MIG_STATUS).raw(mig_id).finish()


# -- migration reply payloads (inside an ST_MIG reply) ------------------------

def decode_freeze_payload(payload: bytes) -> tuple:
    """FREEZE reply: the prepared transactions still holding locks on the
    unit, as (txid, coordinator_shard) pairs — the rebalancer drains or
    presumed-abort-resolves these before exporting."""
    dec = Decoder(payload)
    return tuple(
        (dec.raw(TXID_BYTES), dec.u16()) for _ in range(dec.u32())
    )


def decode_export_payload(payload: bytes):
    """EXPORT reply: (chunk, next_cursor, done)."""
    dec = Decoder(payload)
    next_cursor = dec.u64()
    done = bool(dec.u8())
    return dec.blob(), next_cursor, done


def decode_install_payload(payload: bytes):
    """INSTALL reply: (applied, chunks_done)."""
    dec = Decoder(payload)
    return bool(dec.u8()), dec.u32()


def decode_status_payload(payload: bytes):
    """STATUS reply: (phase, chunks_done) — phase is one of the MIG_*
    constants."""
    dec = Decoder(payload)
    return dec.u8(), dec.u32()


class TxReply:
    """A decoded shard-layer reply."""

    __slots__ = ("status", "decision", "holder_txid", "holder_coordinator",
                 "inner_replies", "message", "unit", "shard", "version",
                 "payload")

    def __init__(self, status: int, decision: int = 0, holder_txid: bytes = b"",
                 holder_coordinator: int = 0, inner_replies=(), message: str = "",
                 unit=None, shard: int = 0, version: int = 0,
                 payload: bytes = b""):
        self.status = status
        self.decision = decision
        self.holder_txid = holder_txid
        self.holder_coordinator = holder_coordinator
        self.inner_replies = inner_replies
        self.message = message
        self.unit = unit
        self.shard = shard
        self.version = version
        self.payload = payload


def is_tx_reply(reply: bytes) -> bool:
    return bool(reply) and reply[0] == REPLY_MAGIC


def decode_tx_reply(reply: bytes) -> TxReply:
    dec = Decoder(reply)
    if dec.u8() != REPLY_MAGIC:
        raise StateError("not a shard-layer reply")
    status = dec.u8()
    if status == ST_LOCKED:
        return TxReply(status, holder_txid=dec.raw(TXID_BYTES),
                       holder_coordinator=dec.u16())
    if status == ST_DECISION:
        return TxReply(status, decision=dec.u8())
    if status == ST_OK:
        count = dec.u32()
        return TxReply(status, inner_replies=tuple(dec.blob() for _ in range(count)))
    if status == ST_WRONG_SHARD:
        unit = decode_unit(dec)
        return TxReply(status, unit=unit, shard=dec.u16(), version=dec.u32())
    if status == ST_MIG:
        return TxReply(status, payload=dec.blob())
    if status == ST_ERR:
        return TxReply(status, message=dec.blob().decode())
    return TxReply(status)


def _reply(status: int) -> bytes:
    return bytes((REPLY_MAGIC, status, 0, 0, 0, 0))  # u32 zero inner count


def _reply_ok(inner_replies: Iterable[bytes] = ()) -> bytes:
    enc = Encoder().u8(REPLY_MAGIC).u8(ST_OK)
    enc.sequence(list(inner_replies), lambda e, r: e.blob(r))
    return enc.finish()


def _reply_locked(holder_txid: bytes, holder_coordinator: int) -> bytes:
    return (
        Encoder().u8(REPLY_MAGIC).u8(ST_LOCKED)
        .raw(holder_txid).u16(holder_coordinator).finish()
    )


def _reply_decision(decision: int) -> bytes:
    return Encoder().u8(REPLY_MAGIC).u8(ST_DECISION).u8(decision).finish()


def _reply_err(message: str) -> bytes:
    return Encoder().u8(REPLY_MAGIC).u8(ST_ERR).blob(message.encode()).finish()


def _reply_wrong_shard(unit, shard: int, version: int) -> bytes:
    enc = Encoder().u8(REPLY_MAGIC).u8(ST_WRONG_SHARD)
    encode_unit(enc, unit)
    return enc.u16(shard).u32(version).finish()


def _reply_mig(payload: bytes = b"") -> bytes:
    return Encoder().u8(REPLY_MAGIC).u8(ST_MIG).blob(payload).finish()


class Migration:
    """One in-flight migration this shard participates in (either role)."""

    __slots__ = ("mig_id", "role", "unit", "peer", "chunks_done")

    def __init__(self, mig_id: bytes, role: int, unit, peer: int,
                 chunks_done: int = 0):
        self.mig_id = mig_id
        self.role = role
        self.unit = unit
        self.peer = peer
        self.chunks_done = chunks_done


class PreparedTx:
    """One prepared (locked, undecided) transaction at this shard."""

    __slots__ = ("client_id", "coordinator", "participants", "ops", "keys")

    def __init__(self, client_id: int, coordinator: int,
                 participants: tuple[int, ...], ops: tuple[bytes, ...],
                 keys: tuple[bytes, ...]):
        self.client_id = client_id
        self.coordinator = coordinator
        self.participants = participants
        self.ops = ops
        self.keys = keys


class ShardTxApplication(Application):
    """Wraps an application with replicated 2PC participant state.

    ``keys_of`` maps any inner operation to the lock keys it touches
    (kv keys, or ``table:<name>`` units for SQL); plain operations that
    hit a locked key are refused with a LOCKED reply carrying the holder,
    which is what lets *other* routers discover and recover stranded
    transactions.
    """

    def __init__(
        self,
        inner: Application,
        keys_of: Callable[[bytes], Iterable[bytes]],
        shard_id: int = 0,
        tx_pages: int = 8,
        retain_limit: int = 256,
    ) -> None:
        if tx_pages < 1:
            raise StateError("the transaction table needs at least one page")
        self.inner = inner
        self.keys_of = keys_of
        self.shard_id = shard_id
        self.tx_pages = tx_pages
        # Presumed-abort garbage collection keeps the replicated tables
        # bounded: finished outcomes and abort decisions beyond this many
        # entries are dropped oldest-first.  Commit decisions are only
        # dropped by TXOP_FORGET (sent by the router once every
        # participant acked the outcome) or, as a last resort, past a 4x
        # hard cap — forgetting an unacked commit is the one eviction
        # that could cost atomicity, so it gets the widest margin.
        self.retain_limit = retain_limit
        self.state = None
        self.tx_offset = 0
        self.tx_bytes = 0
        self._prepared: dict[bytes, PreparedTx] = {}
        self._locks: dict[bytes, bytes] = {}  # lock key -> holder txid
        self._outcomes: dict[bytes, int] = {}  # participant-side: applied result
        self._decisions: dict[bytes, int] = {}  # coordinator-side: the decision
        # Live rebalancing (DESIGN.md §12), all replicated alongside the
        # transaction tables:
        #   _migrations — in-flight migrations (either role); their units
        #     are frozen: writes are refused with ST_FROZEN until the
        #     migration commits, aborts, or (destination) activates.
        #   _moved — source-side tombstones: the unit left, every later
        #     op on it draws a WRONG_SHARD redirect with the new home.
        #   _owned — destination-side facts: the unit arrived and is
        #     served here (makes ACTIVATE/INSTALL re-drives idempotent).
        # Moved/owned facts are healing accelerators capped oldest-first
        # at ``moved_retain_limit`` — the authoritative placement is the
        # published directory, which every new router clones.
        self._migrations: dict[bytes, Migration] = {}
        self._moved: dict[bytes, tuple] = {}  # mig_id -> (unit, dst, version)
        self._owned: dict[bytes, tuple] = {}  # mig_id -> (unit, version)
        self.moved_retain_limit = 64
        self._accumulated_ns = 0
        self._stats = None
        self._tracer = None
        self._track = ""

    # -- Application plumbing -------------------------------------------------

    def bind_state(self, state, app_offset: int) -> None:
        self.state = state
        self.tx_offset = app_offset
        self.tx_bytes = self.tx_pages * state.page_size
        if app_offset + self.tx_bytes >= state.size:
            raise StateError("transaction table leaves no room for the application")
        self.inner.bind_state(state, app_offset + self.tx_bytes)
        self._load_from_state()

    def attach_obs(self, obs, track: str) -> None:
        registry = getattr(obs, "registry", None)
        if registry is not None:
            self._stats = registry.view(f"{track}.shard.")
        self._tracer = getattr(obs, "tracer", None)
        self._track = track
        self.inner.attach_obs(obs, track)

    def on_state_installed(self) -> None:
        self._load_from_state()
        self.inner.on_state_installed()

    def authorize_join(self, idbuf: bytes):
        return self.inner.authorize_join(idbuf)

    def execute_cost_ns(self, op: bytes, readonly: bool) -> int:
        if op and op[0] in _MIG_OPS:
            # Chunk transfer charges the bulk cost via take_accumulated_cost.
            return 10 * MICROSECOND
        if op and op[0] in _TX_OPS:
            return 3 * MICROSECOND
        return self.inner.execute_cost_ns(op, readonly)

    def take_accumulated_cost(self) -> int:
        cost = self._accumulated_ns + self.inner.take_accumulated_cost()
        self._accumulated_ns = 0
        return cost

    def _count(self, name: str) -> None:
        if self._stats is not None:
            self._stats[name] += 1

    def _mark(self, phase: str, txid: bytes) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                self._track, f"tx.{phase}", cat="shard",
                args={"txid": txid.hex()[:8], "shard": self.shard_id},
            )

    # -- execution ------------------------------------------------------------

    def execute(self, op: bytes, client_id: int, nondet_ts: int, readonly: bool) -> bytes:
        kind = op[0] if op else 0
        if kind not in _TX_OPS:
            # A plain single-shard operation: honor migration state first
            # (a moved unit redirects, a frozen unit refuses writes), then
            # transaction locks, so isolation holds between the direct
            # path and the 2PC path.
            if self._moved or self._migrations:
                block = self._migration_block(tuple(self.keys_of(op)), readonly)
                if block is not None:
                    return block
            for key in self.keys_of(op):
                holder = self._locks.get(key)
                if holder is not None:
                    self._count("lock_conflicts")
                    entry = self._prepared[holder]
                    return _reply_locked(holder, entry.coordinator)
            return self.inner.execute(op, client_id, nondet_ts, readonly)
        dec = Decoder(op)
        dec.u8()
        txid = dec.raw(TXID_BYTES)
        if kind == TXOP_PREPARE:
            return self._on_prepare(dec, txid, client_id)
        if kind == TXOP_COMMIT:
            return self._on_commit(txid, nondet_ts)
        if kind == TXOP_ABORT:
            return self._on_abort(txid)
        if kind == TXOP_DECIDE:
            return self._on_decide(txid, dec.u8())
        if kind == TXOP_RESOLVE:
            return self._on_resolve(txid)
        if kind == TXOP_FORGET:
            return self._on_forget(txid)
        if kind == TXOP_MIG_FREEZE:
            return self._on_mig_freeze(dec, txid)
        if kind == TXOP_MIG_EXPORT:
            return self._on_mig_export(dec, txid)
        if kind == TXOP_MIG_BEGIN:
            return self._on_mig_begin(dec, txid)
        if kind == TXOP_MIG_INSTALL:
            return self._on_mig_install(dec, txid)
        if kind == TXOP_MIG_ACTIVATE:
            return self._on_mig_activate(dec, txid)
        if kind == TXOP_MIG_COMMIT:
            return self._on_mig_commit(dec, txid)
        if kind == TXOP_MIG_ABORT:
            return self._on_mig_abort(txid)
        if kind == TXOP_MIG_STATUS:
            return self._on_mig_status(txid)
        return self._on_status(txid)

    def _migration_block(self, keys, readonly: bool):
        """The migration-layer verdict for an op touching ``keys``:
        a WRONG_SHARD redirect (unit moved away), an ST_FROZEN refusal
        (unit mid-migration), or None (proceed).

        Reads stay allowed on a *source*-frozen unit — the data is still
        authoritative here until MIG_COMMIT purges it, and no write can
        change it meanwhile.  A *destination* unit refuses reads too: its
        data is half-installed until MIG_ACTIVATE.
        """
        for key in keys:
            for unit, dst, version in self._moved.values():
                if unit_covers(unit, key):
                    self._count("wrong_shard_replies")
                    return _reply_wrong_shard(unit, dst, version)
            for mig in self._migrations.values():
                if (not readonly or mig.role == ROLE_DST) and \
                        unit_covers(mig.unit, key):
                    self._count("frozen_refusals")
                    return _reply(ST_FROZEN)
        return None

    def _on_prepare(self, dec: Decoder, txid: bytes, client_id: int) -> bytes:
        self._count("prepares")
        outcome = self._outcomes.get(txid)
        if outcome == DECISION_ABORT:
            # Tombstone: the transaction was aborted here; a retransmitted
            # PREPARE must not re-acquire locks.
            return _reply(ST_TOMBSTONE)
        if outcome == DECISION_COMMIT or txid in self._prepared:
            return _reply_ok()  # idempotent re-prepare
        coordinator = dec.u16()
        participants = tuple(dec.u16() for _ in range(dec.u32()))
        ops = tuple(dec.blob() for _ in range(dec.u32()))
        keys = tuple(dec.blob() for _ in range(dec.u32()))
        if self._moved or self._migrations:
            # A prepare acquires locks (a write): frozen and moved units
            # both refuse, so no new holder can appear mid-migration.
            block = self._migration_block(keys, False)
            if block is not None:
                return block
        for key in keys:
            holder = self._locks.get(key)
            if holder is not None and holder != txid:
                self._count("lock_conflicts")
                entry = self._prepared[holder]
                return _reply_locked(holder, entry.coordinator)
        self._prepared[txid] = PreparedTx(client_id, coordinator, participants, ops, keys)
        for key in keys:
            self._locks[key] = txid
        self._persist()
        self._mark("prepare", txid)
        return _reply_ok()

    def _on_commit(self, txid: bytes, nondet_ts: int) -> bytes:
        outcome = self._outcomes.get(txid)
        if outcome == DECISION_COMMIT:
            return _reply_ok()  # idempotent
        if outcome == DECISION_ABORT:
            # The atomicity bug invariant #6 hunts for: refuse loudly.
            return _reply_err("commit after abort")
        entry = self._prepared.pop(txid, None)
        if entry is None:
            return _reply_err("commit for unprepared transaction")
        self._count("commits")
        replies = []
        for inner_op in entry.ops:
            self._accumulated_ns += self.inner.execute_cost_ns(inner_op, False)
            replies.append(
                self.inner.execute(inner_op, entry.client_id, nondet_ts, False)
            )
        self._release_locks(txid, entry)
        self._outcomes[txid] = DECISION_COMMIT
        self._gc()
        self._persist()
        self._mark("commit", txid)
        return _reply_ok(replies)

    def _on_abort(self, txid: bytes) -> bytes:
        outcome = self._outcomes.get(txid)
        if outcome == DECISION_COMMIT:
            return _reply_err("abort after commit")
        if outcome == DECISION_ABORT:
            return _reply_ok()  # idempotent
        self._count("aborts")
        entry = self._prepared.pop(txid, None)
        if entry is not None:
            self._release_locks(txid, entry)
        # Tombstone even when never prepared here: blocks a late PREPARE.
        self._outcomes[txid] = DECISION_ABORT
        self._gc()
        self._persist()
        self._mark("abort", txid)
        return _reply_ok()

    def _on_decide(self, txid: bytes, wanted: int) -> bytes:
        existing = self._decisions.get(txid)
        if existing is not None:
            return _reply_decision(existing)  # first writer won
        self._count("decisions")
        self._decisions[txid] = wanted
        self._gc()
        self._persist()
        self._mark("decide", txid)
        return _reply_decision(wanted)

    def _on_resolve(self, txid: bytes) -> bytes:
        existing = self._decisions.get(txid)
        if existing is not None:
            return _reply_decision(existing)
        # Presumed abort: no decision was ever durably recorded, so none
        # can have been acted upon — record abort, first writer wins.
        self._count("resolves")
        self._decisions[txid] = DECISION_ABORT
        self._gc()
        self._persist()
        self._mark("resolve", txid)
        return _reply_decision(DECISION_ABORT)

    def _on_forget(self, txid: bytes) -> bytes:
        """End of transaction: drop the decision record (presumed abort).

        Sent by the router once every participant acknowledged the
        outcome — from then on nobody can need to RESOLVE this
        transaction, and a resolve that arrives anyway presumes abort,
        which no longer matters because no participant still holds
        prepared state for it.
        """
        if self._decisions.pop(txid, None) is not None:
            self._count("forgets")
            self._persist()
            self._mark("forget", txid)
        return _reply_ok()

    def _on_status(self, txid: bytes) -> bytes:
        decision = self._decisions.get(txid)
        if decision is not None:
            return _reply_decision(decision)
        outcome = self._outcomes.get(txid)
        if outcome is not None:
            return _reply_decision(outcome)
        return _reply(ST_UNKNOWN)

    # -- migration handlers (live rebalancing, DESIGN.md §12) -----------------

    def _on_mig_freeze(self, dec: Decoder, mig_id: bytes) -> bytes:
        unit = decode_unit(dec)
        dst = dec.u16()
        if mig_id in self._moved:
            # Already committed: re-freeze is a no-op with no holders.
            return _reply_mig(Encoder().u32(0).finish())
        mig = self._migrations.get(mig_id)
        if mig is None:
            mig = Migration(mig_id, ROLE_SRC, unit, dst)
            self._migrations[mig_id] = mig
            self._count("migrations_frozen")
            self._persist()
            self._mark("mig_freeze", mig_id)
        # Report the prepared transactions still holding locks on the
        # unit; the freeze blocks new ones, the rebalancer drains these.
        holders = [
            (txid, self._prepared[txid].coordinator)
            for txid in sorted(self._prepared)
            if any(unit_covers(mig.unit, k) for k in self._prepared[txid].keys)
        ]
        enc = Encoder()
        enc.sequence(holders, lambda e, h: e.raw(h[0]).u16(h[1]))
        return _reply_mig(enc.finish())

    def _on_mig_export(self, dec: Decoder, mig_id: bytes) -> bytes:
        mig = self._migrations.get(mig_id)
        if mig is None or mig.role != ROLE_SRC:
            return _reply_err("export without an active source migration")
        for txid, entry in self._prepared.items():
            if any(unit_covers(mig.unit, k) for k in entry.keys):
                return _reply_err("export before prepared holders drained")
        cursor = dec.u64()
        budget = dec.u32()
        export = getattr(self.inner, "migrate_export", None)
        if export is None:
            return _reply_err("application does not support migration")
        # Deterministic: the unit is frozen, so every replica serializes
        # the identical chunk for the identical (cursor, budget).
        chunk, next_cursor, done = export(mig.unit, cursor, budget)
        self._accumulated_ns += 2 * len(chunk)
        self._count("chunks_exported")
        enc = Encoder().u64(next_cursor).u8(1 if done else 0).blob(chunk)
        return _reply_mig(enc.finish())

    def _on_mig_begin(self, dec: Decoder, mig_id: bytes) -> bytes:
        unit = decode_unit(dec)
        src = dec.u16()
        if mig_id in self._owned:
            return _reply_mig()  # already activated; re-drive is a no-op
        if mig_id not in self._migrations:
            self._migrations[mig_id] = Migration(mig_id, ROLE_DST, unit, src)
            self._count("migrations_incoming")
            self._persist()
            self._mark("mig_begin", mig_id)
        return _reply_mig()

    def _on_mig_install(self, dec: Decoder, mig_id: bytes) -> bytes:
        chunk_index = dec.u32()
        chunk = dec.blob()
        mig = self._migrations.get(mig_id)
        if mig is None:
            if mig_id in self._owned:
                # Post-activation re-drive: everything is already in.
                return _reply_mig(Encoder().u8(0).u32(0).finish())
            return _reply_err("install without MIG_BEGIN")
        if mig.role != ROLE_DST:
            return _reply_err("install at the migration source")
        if chunk_index < mig.chunks_done:
            # A rebalancer re-driving after a crash re-exports from
            # cursor 0; chunks already installed dedupe by index.
            self._count("chunks_deduped")
            return _reply_mig(Encoder().u8(0).u32(mig.chunks_done).finish())
        if chunk_index > mig.chunks_done:
            return _reply_err(
                f"install gap: chunk {chunk_index} after {mig.chunks_done}"
            )
        install = getattr(self.inner, "migrate_install", None)
        if install is None:
            return _reply_err("application does not support migration")
        install(mig.unit, chunk)
        self._accumulated_ns += 2 * len(chunk)
        mig.chunks_done += 1
        self._count("chunks_installed")
        self._persist()
        return _reply_mig(Encoder().u8(1).u32(mig.chunks_done).finish())

    def _on_mig_activate(self, dec: Decoder, mig_id: bytes) -> bytes:
        unit = decode_unit(dec)
        version = dec.u32()
        if mig_id in self._owned:
            return _reply_mig()  # idempotent
        mig = self._migrations.get(mig_id)
        if mig is None or mig.role != ROLE_DST:
            return _reply_err("activate without an incoming migration")
        del self._migrations[mig_id]
        self._owned[mig_id] = (unit, version)
        self._trim_facts()
        self._count("migrations_activated")
        self._persist()
        self._mark("mig_activate", mig_id)
        return _reply_mig()

    def _on_mig_commit(self, dec: Decoder, mig_id: bytes) -> bytes:
        unit = decode_unit(dec)
        dst = dec.u16()
        version = dec.u32()
        if mig_id in self._moved:
            return _reply_mig()  # idempotent
        mig = self._migrations.get(mig_id)
        if mig is None or mig.role != ROLE_SRC:
            return _reply_err("commit without an active source migration")
        purge = getattr(self.inner, "migrate_purge", None)
        if purge is None:
            return _reply_err("application does not support migration")
        purge(mig.unit)
        del self._migrations[mig_id]
        self._moved[mig_id] = (mig.unit, dst, version)
        self._trim_facts()
        self._count("migrations_committed")
        self._persist()
        self._mark("mig_commit", mig_id)
        return _reply_mig()

    def _on_mig_abort(self, mig_id: bytes) -> bytes:
        mig = self._migrations.pop(mig_id, None)
        if mig is not None:
            if mig.role == ROLE_DST:
                # Drop the half-installed copy; the source still has it all.
                purge = getattr(self.inner, "migrate_purge", None)
                if purge is not None:
                    purge(mig.unit)
            self._count("migrations_aborted")
            self._persist()
            self._mark("mig_abort", mig_id)
        return _reply_mig()

    def _on_mig_status(self, mig_id: bytes) -> bytes:
        if mig_id in self._moved:
            phase, chunks = MIG_MOVED, 0
        elif mig_id in self._owned:
            phase, chunks = MIG_OWNED, 0
        else:
            mig = self._migrations.get(mig_id)
            if mig is None:
                phase, chunks = MIG_UNKNOWN, 0
            else:
                phase = MIG_SRC_ACTIVE if mig.role == ROLE_SRC else MIG_DST_ACTIVE
                chunks = mig.chunks_done
        return _reply_mig(Encoder().u8(phase).u32(chunks).finish())

    def _trim_facts(self) -> None:
        while len(self._moved) > self.moved_retain_limit:
            del self._moved[next(iter(self._moved))]
            self._count("moved_facts_evicted")
        while len(self._owned) > self.moved_retain_limit:
            del self._owned[next(iter(self._owned))]

    def _gc(self) -> None:
        """Bound the finished-transaction tables (oldest evicted first).

        Dict insertion order is identical at every replica of the group
        (they execute the same operations in the same order, and the
        tables persist in insertion order), so eviction is deterministic.
        Dropping an old outcome only weakens idempotency for extremely
        late duplicates; dropping an abort decision is free under
        presumed abort.  Commit decisions outlive both — see
        ``retain_limit`` in ``__init__``.
        """
        while len(self._outcomes) > self.retain_limit:
            del self._outcomes[next(iter(self._outcomes))]
        if len(self._decisions) > self.retain_limit:
            for txid in [
                t for t, d in self._decisions.items() if d == DECISION_ABORT
            ]:
                if len(self._decisions) <= self.retain_limit:
                    break
                del self._decisions[txid]
        while len(self._decisions) > 4 * self.retain_limit:
            del self._decisions[next(iter(self._decisions))]

    def _release_locks(self, txid: bytes, entry: PreparedTx) -> None:
        for key in entry.keys:
            if self._locks.get(key) == txid:
                del self._locks[key]

    # -- inspection (harness / invariant checks) ------------------------------

    def prepared_txids(self) -> tuple[bytes, ...]:
        return tuple(sorted(self._prepared))

    def prepared_entry(self, txid: bytes) -> Optional[PreparedTx]:
        return self._prepared.get(txid)

    def outcomes(self) -> dict[bytes, int]:
        return dict(self._outcomes)

    def decisions(self) -> dict[bytes, int]:
        return dict(self._decisions)

    def migrations(self) -> dict[bytes, tuple]:
        """In-flight migrations: mig_id -> (role, unit, peer, chunks_done)."""
        return {
            mig_id: (mig.role, mig.unit, mig.peer, mig.chunks_done)
            for mig_id, mig in self._migrations.items()
        }

    def moved_units(self) -> dict[bytes, tuple]:
        """Source-side tombstones: mig_id -> (unit, dst_shard, version)."""
        return dict(self._moved)

    def owned_units(self) -> dict[bytes, tuple]:
        """Destination-side facts: mig_id -> (unit, version)."""
        return dict(self._owned)

    def frozen_units(self) -> tuple:
        return tuple(mig.unit for mig in self._migrations.values())

    # -- replicated persistence ----------------------------------------------

    def _persist(self) -> None:
        """Serialize the whole transaction table into the reserved pages.

        Canonical encoding: replicas reach identical bytes for identical
        logical state, so checkpoint roots agree.
        """
        enc = Encoder()
        enc.u32(len(self._prepared))
        for txid in sorted(self._prepared):
            entry = self._prepared[txid]
            enc.raw(txid).u64(entry.client_id).u16(entry.coordinator)
            enc.sequence(entry.participants, lambda e, s: e.u16(s))
            enc.sequence(entry.ops, lambda e, op: e.blob(op))
            enc.sequence(entry.keys, lambda e, k: e.blob(k))
        # Outcomes and decisions persist in insertion order, not sorted:
        # the order is itself replicated state (garbage collection evicts
        # oldest-first), so a replica that catches up via state transfer
        # must adopt it, or later evictions would diverge.  The order is
        # the same at every replica, so the encoding stays canonical.
        # One join each — txid then a one-byte flag per entry: these two
        # only shrink by eviction, so at hundreds of entries they are
        # nearly all of what every 2PC operation re-encodes.
        for table in (self._outcomes, self._decisions):
            enc.u32(len(table))
            enc.raw(b"".join([txid + _U8[flag] for txid, flag in table.items()]))
        # Migration state persists in insertion order too (moved/owned
        # facts are evicted oldest-first, so the order is itself state).
        enc.u32(len(self._migrations))
        for mig_id, mig in self._migrations.items():
            enc.raw(mig_id).u8(mig.role)
            encode_unit(enc, mig.unit)
            enc.u16(mig.peer).u32(mig.chunks_done)
        enc.u32(len(self._moved))
        for mig_id, (unit, dst, version) in self._moved.items():
            enc.raw(mig_id)
            encode_unit(enc, unit)
            enc.u16(dst).u32(version)
        enc.u32(len(self._owned))
        for mig_id, (unit, version) in self._owned.items():
            enc.raw(mig_id)
            encode_unit(enc, unit)
            enc.u32(version)
        payload = enc.finish()
        if len(payload) + 8 > self.tx_bytes:
            raise StateError(
                f"transaction table ({len(payload)} bytes) overflows its "
                f"{self.tx_bytes}-byte reservation — raise tx_pages"
            )
        data = Encoder().u32(_STATE_MAGIC).u32(len(payload)).raw(payload).finish()
        self.state.modify(self.tx_offset, len(data))
        self.state.write(self.tx_offset, data)

    def _load_from_state(self) -> None:
        self._prepared = {}
        self._locks = {}
        self._outcomes = {}
        self._decisions = {}
        self._migrations = {}
        self._moved = {}
        self._owned = {}
        header = Decoder(self.state.read(self.tx_offset, 8))
        if header.u32() != _STATE_MAGIC:
            return  # fresh region
        length = header.u32()
        dec = Decoder(self.state.read(self.tx_offset + 8, length))
        for _ in range(dec.u32()):
            txid = dec.raw(TXID_BYTES)
            client_id = dec.u64()
            coordinator = dec.u16()
            participants = tuple(dec.u16() for _ in range(dec.u32()))
            ops = tuple(dec.blob() for _ in range(dec.u32()))
            keys = tuple(dec.blob() for _ in range(dec.u32()))
            self._prepared[txid] = PreparedTx(
                client_id, coordinator, participants, ops, keys
            )
            for key in keys:
                self._locks[key] = txid
        for _ in range(dec.u32()):
            txid = dec.raw(TXID_BYTES)
            self._outcomes[txid] = dec.u8()
        for _ in range(dec.u32()):
            txid = dec.raw(TXID_BYTES)
            self._decisions[txid] = dec.u8()
        if dec.finished():
            return  # state persisted before migrations existed
        for _ in range(dec.u32()):
            mig_id = dec.raw(MIGID_BYTES)
            role = dec.u8()
            unit = decode_unit(dec)
            peer = dec.u16()
            chunks_done = dec.u32()
            self._migrations[mig_id] = Migration(mig_id, role, unit, peer,
                                                 chunks_done)
        for _ in range(dec.u32()):
            mig_id = dec.raw(MIGID_BYTES)
            unit = decode_unit(dec)
            self._moved[mig_id] = (unit, dec.u16(), dec.u32())
        for _ in range(dec.u32()):
            mig_id = dec.raw(MIGID_BYTES)
            unit = decode_unit(dec)
            self._owned[mig_id] = (unit, dec.u32())
