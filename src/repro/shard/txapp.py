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
version)`` fact.  Every migration step is an ordinary ordered operation
too, and what is frozen, arrived or left persists in the same pages.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Optional

from repro.common.errors import SqlError, StateError
from repro.common.units import MICROSECOND
from repro.pbft.messages import message
from repro.pbft.replica import Application
from repro.pbft.wire import blob, boolean, boxed, decode_exact, enum, layout, raw, seq, tagged
from repro.pbft.wire import text, u16, u32, u64
from repro.shard.directory import key_position

DECISION_ABORT, DECISION_COMMIT = 0, 1

TXID = MIGID = raw(16)
DECISION = enum(DECISION_ABORT, DECISION_COMMIT)

# -- migration units ----------------------------------------------------------
# A unit is what moves between groups as one atom: a kv key range in the
# 32-bit hash space or a whole SQL table.  ``covers`` says whether a lock key
# is the unit's; ``place`` writes its new home into a directory.

UNIT = tagged("Unit")


@message(family=UNIT)
class RangeUnit:  # kv keys by hash position (the one the directory routes by), in [lo, hi)
    lo: int
    hi: int
    LAYOUT = layout(0, lo=u64, hi=u64)

    def covers(self, lock_key: bytes) -> bool:
        return self.lo <= key_position(lock_key) < self.hi

    def place(self, directory, shard: int, version: int) -> None:
        directory.apply_move(self.lo, self.hi, shard, version)


@message(family=UNIT)
class TableUnit:  # exactly the ``table:<name>`` lock unit the SQL ``keys_of`` emits
    name: str
    LAYOUT = layout(1, name=text)

    def covers(self, lock_key: bytes) -> bool:
        return lock_key == b"table:" + self.name.encode()

    def place(self, directory, shard: int, version: int) -> None:
        directory.apply_table(self.name, shard, version)


# -- operations (first byte 0xB1..0xBF; 0xFF is the middleware's) -------------
# Routers, the rebalancer and tests build these and send ``.encode()``.

TX_OP = tagged("TxOp")


@message(family=TX_OP)
class TxPrepare:  # participant: lock ``keys`` and hold ``ops`` until the outcome arrives
    txid: bytes
    coordinator: int
    participants: tuple[int, ...]
    ops: tuple[bytes, ...]
    keys: tuple[bytes, ...]
    LAYOUT = layout(
        0xB1, txid=TXID, coordinator=u16, participants=seq(u16), ops=seq(blob), keys=seq(blob)
    )


@message(family=TX_OP)
class TxCommit:  # participant: apply the prepared ops, release the locks
    txid: bytes
    LAYOUT = layout(0xB2, txid=TXID)


@message(family=TX_OP)
class TxAbort:  # participant: drop the prepared ops, leave a tombstone
    txid: bytes
    LAYOUT = layout(0xB3, txid=TXID)


@message(family=TX_OP)
class TxDecide:  # coordinator: record the decision; the first writer wins
    txid: bytes
    decision: int
    LAYOUT = layout(0xB4, txid=TXID, decision=DECISION)


@message(family=TX_OP)
class TxResolve:  # coordinator: the recorded decision, or presumed abort recorded now
    txid: bytes
    LAYOUT = layout(0xB5, txid=TXID)


@message(family=TX_OP)
class TxStatus:  # either side: what is known of the transaction; changes nothing
    txid: bytes
    LAYOUT = layout(0xB6, txid=TXID)


@message(family=TX_OP)
class TxForget:  # coordinator: every participant acked, drop the decision record
    txid: bytes
    LAYOUT = layout(0xB7, txid=TXID)


@message(family=TX_OP)
class MigFreeze:  # source: stop writes to the unit, report the prepared lock holders
    mig_id: bytes
    unit: object
    dst: int
    LAYOUT = layout(0xB8, mig_id=MIGID, unit=UNIT, dst=u16)


@message(family=TX_OP)
class MigExport:  # source: serialize one chunk of the frozen unit
    mig_id: bytes
    cursor: int
    budget: int
    LAYOUT = layout(0xB9, mig_id=MIGID, cursor=u64, budget=u32)


@message(family=TX_OP)
class MigBegin:  # destination: freeze the incoming unit
    mig_id: bytes
    unit: object
    src: int
    LAYOUT = layout(0xBA, mig_id=MIGID, unit=UNIT, src=u16)


@message(family=TX_OP)
class MigInstall:  # destination: apply one chunk (idempotent by index)
    mig_id: bytes
    chunk_index: int
    chunk: bytes
    LAYOUT = layout(0xBB, mig_id=MIGID, chunk_index=u32, chunk=blob)


@message(family=TX_OP)
class MigActivate:  # destination: own the unit, start serving it
    mig_id: bytes
    unit: object
    version: int
    LAYOUT = layout(0xBC, mig_id=MIGID, unit=UNIT, version=u32)


@message(family=TX_OP)
class MigCommit:  # source: purge the unit, leave a moved tombstone
    mig_id: bytes
    unit: object
    dst: int
    version: int
    LAYOUT = layout(0xBD, mig_id=MIGID, unit=UNIT, dst=u16, version=u32)


@message(family=TX_OP)
class MigAbort:  # either side: cancel an in-flight migration
    mig_id: bytes
    LAYOUT = layout(0xBE, mig_id=MIGID)


@message(family=TX_OP)
class MigStatus:  # either side: where did this migration get to?
    mig_id: bytes
    LAYOUT = layout(0xBF, mig_id=MIGID)


def outcome_op(txid: bytes, decision: int) -> bytes:
    """The op that delivers a coordinator's decision to a participant."""
    return (TxCommit if decision == DECISION_COMMIT else TxAbort)(txid).encode()


_MIG_OPS = (MigFreeze, MigExport, MigBegin, MigInstall, MigActivate, MigCommit, MigAbort, MigStatus)

# -- replies ------------------------------------------------------------------
# Replies from the transaction layer start with this byte so routers can
# tell them apart from inner-application replies (which start 0x00-0x03);
# the second byte says which.  The bare ones end in a u32 zero.

REPLY_MAGIC = 0xB0
TX_REPLY = tagged("TxReply", width=2)


@message(family=TX_REPLY)
class ReplyErr:  # the op was refused; nothing changed
    message: str
    LAYOUT = layout(REPLY_MAGIC, 0x00, message=text)


@message(family=TX_REPLY)
class ReplyOk:  # done; after a COMMIT, with the inner application's reply to each op
    inner_replies: tuple[bytes, ...] = ()
    LAYOUT = layout(REPLY_MAGIC, 0x01, inner_replies=seq(blob))


@message(family=TX_REPLY)
class ReplyLocked:  # a key is held by this prepared transaction, coordinated over there
    holder_txid: bytes
    holder_coordinator: int
    LAYOUT = layout(REPLY_MAGIC, 0x02, holder_txid=TXID, holder_coordinator=u16)


@message(family=TX_REPLY)
class ReplyTombstone:  # the transaction was aborted here; a late PREPARE takes no locks
    LAYOUT = layout(REPLY_MAGIC, 0x03, 0, 0, 0, 0)


@message(family=TX_REPLY)
class ReplyDecision:
    decision: int
    LAYOUT = layout(REPLY_MAGIC, 0x04, decision=DECISION)


@message(family=TX_REPLY)
class ReplyUnknown:  # no decision and no outcome recorded here
    LAYOUT = layout(REPLY_MAGIC, 0x05, 0, 0, 0, 0)


@message(family=TX_REPLY)
class ReplyFrozen:  # the unit is mid-migration; retry after a short backoff
    LAYOUT = layout(REPLY_MAGIC, 0x06, 0, 0, 0, 0)


@message(family=TX_REPLY)
class ReplyWrongShard:  # the unit moved away: the authoritative (unit, shard, version) fact
    unit: object
    shard: int
    version: int
    LAYOUT = layout(REPLY_MAGIC, 0x07, unit=UNIT, shard=u16, version=u32)


@message(family=TX_REPLY)
class ReplyMig:  # a migration op was carried out; ``payload`` is that op's own, below
    payload: bytes = b""
    LAYOUT = layout(REPLY_MAGIC, 0x08, payload=blob)


def is_tx_reply(reply: bytes) -> bool:
    return reply[:1] == b"\xb0"


def decode_tx_reply(reply: bytes):
    """The shard-layer reply in ``reply``; None for an inner application's."""
    return decode_exact(TX_REPLY, reply) if is_tx_reply(reply) else None


# Migration roles and phases (wire + persisted encoding).
ROLE_SRC, ROLE_DST = 0, 1
MIG_UNKNOWN = 0   # this shard holds no record of the migration
MIG_SRC_ACTIVE = 1
MIG_DST_ACTIVE = 2
MIG_MOVED = 3     # source side committed: unit purged, tombstone live
MIG_OWNED = 4     # destination side activated: unit served here
MIG_PHASE = enum(MIG_UNKNOWN, MIG_SRC_ACTIVE, MIG_DST_ACTIVE, MIG_MOVED, MIG_OWNED)


@message
class FreezePayload:  # (txid, coordinator shard) of each prepared transaction locking the unit
    holders: tuple[tuple[bytes, int], ...] = ()
    LAYOUT = layout(holders=seq(TXID, u16))


@message
class ExportPayload:
    next_cursor: int
    done: bool
    chunk: bytes
    LAYOUT = layout(next_cursor=u64, done=boolean, chunk=blob)


@message
class InstallPayload:
    applied: bool
    chunks_done: int
    LAYOUT = layout(applied=boolean, chunks_done=u32)


@message
class StatusPayload:
    phase: int
    chunks_done: int
    LAYOUT = layout(phase=MIG_PHASE, chunks_done=u32)


# -- the replicated tables, as they sit in the reserved pages -----------------


@message
class Migration:
    """One in-flight migration this shard participates in (either role)."""
    mig_id: bytes
    role: int
    unit: object
    peer: int
    chunks_done: int = 0
    LAYOUT = layout(
        mig_id=MIGID, role=enum(ROLE_SRC, ROLE_DST), unit=UNIT, peer=u16, chunks_done=u32
    )


@message
class PreparedTx:
    """One prepared (locked, undecided) transaction at this shard."""
    txid: bytes
    client_id: int
    coordinator: int
    participants: tuple[int, ...]
    ops: tuple[bytes, ...]
    keys: tuple[bytes, ...]
    LAYOUT = layout(
        txid=TXID, client_id=u64, coordinator=u16, participants=seq(u16), ops=seq(blob),
        keys=seq(blob),
    )


@message
class TxTable:
    """Canonical: replicas reach identical bytes for identical logical state,
    so checkpoint roots agree.  Prepared entries sort by txid; the rest keeps
    insertion order, which is itself replicated state (eviction is
    oldest-first, so a replica that catches up by state transfer must adopt
    the order, or later evictions would diverge)."""
    prepared: tuple[PreparedTx, ...] = ()
    outcomes: tuple[tuple[bytes, int], ...] = ()   # participant side: applied result
    decisions: tuple[tuple[bytes, int], ...] = ()  # coordinator side: the decision
    # In-flight, either role: the unit is frozen — writes are refused until
    # the migration commits, aborts or (destination) activates.
    migrations: tuple[Migration, ...] = ()
    # Source-side tombstones (mig_id, unit, dst shard, version): every later
    # op on the unit draws a WRONG_SHARD redirect with the new home.
    moved: tuple[tuple, ...] = ()
    # Destination-side facts (mig_id, unit, version): the unit arrived and is
    # served here (what makes ACTIVATE/INSTALL re-drives idempotent).
    owned: tuple[tuple, ...] = ()
    LAYOUT = layout(
        prepared=seq(PreparedTx), outcomes=seq(TXID, DECISION), decisions=seq(TXID, DECISION),
        migrations=seq(Migration), moved=seq(MIGID, UNIT, u16, u32), owned=seq(MIGID, UNIT, u32),
    )


_EMPTY_TABLE = TxTable()
_STATE_MAGIC = b"TXS1"


@message
class TxTableImage:
    table: TxTable
    LAYOUT = layout(*_STATE_MAGIC, table=boxed(TxTable))


class _Refused(Exception):
    """A handler cannot carry the op out: answer ``ReplyErr``, change nothing."""


def _err(message: str) -> bytes:
    return ReplyErr(message).encode()


def _mig(payload) -> bytes:
    return ReplyMig(payload.encode()).encode()


_OK, _DONE, _NO_HOLDERS = ReplyOk().encode(), ReplyMig().encode(), _mig(FreezePayload())
_TOMBSTONE, _UNKNOWN = ReplyTombstone().encode(), ReplyUnknown().encode()
_FROZEN = ReplyFrozen().encode()

# Where a transaction stands at this shard as a participant, and as coordinator.
NEW, PREPARED, COMMITTED, ABORTED = range(4)
UNDECIDED, DECIDED = range(2)


class ShardTxApplication(Application):
    """Wraps an application with replicated 2PC participant state.

    ``keys_of`` maps any inner operation to the lock keys it touches
    (kv keys, or ``table:<name>`` units for SQL); plain operations that
    hit a locked key are refused with a LOCKED reply carrying the holder,
    which is what lets *other* routers discover and recover stranded
    transactions.
    """

    def __init__(self, inner: Application, keys_of: Callable[[bytes], Iterable[bytes]],
                 shard_id: int = 0, tx_pages: int = 8, retain_limit: int = 256) -> None:
        if tx_pages < 1:
            raise StateError("the transaction table needs at least one page")
        self.inner = inner
        self.keys_of = keys_of
        self.shard_id = shard_id
        self.tx_pages = tx_pages
        # Presumed-abort garbage collection keeps the replicated tables
        # bounded: finished outcomes and abort decisions beyond this many
        # entries are dropped oldest-first.  Commit decisions are only dropped
        # by FORGET (sent by the router once every participant acked the
        # outcome) or, as a last resort, past a 4x hard cap — forgetting an
        # unacked commit is the one eviction that could cost atomicity.
        self.retain_limit = retain_limit
        self.state = None
        self.tx_offset = self.tx_bytes = 0
        # Moved/owned facts are healing accelerators capped oldest-first at this many —
        # the authoritative placement is the published directory, which every router clones.
        self.moved_retain_limit = 64
        self._adopt(_EMPTY_TABLE)
        self._accumulated_ns = 0
        self._stats = self._tracer = None
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
        cls = TX_OP.classes.get(op[:1])
        if cls is None:
            return self.inner.execute_cost_ns(op, readonly)
        # Chunk transfer charges the bulk cost via take_accumulated_cost.
        return (10 if cls in _MIG_OPS else 3) * MICROSECOND

    def take_accumulated_cost(self) -> int:
        cost = self._accumulated_ns + self.inner.take_accumulated_cost()
        self._accumulated_ns = 0
        return cost

    def _count(self, name: str) -> None:
        if self._stats is not None:
            self._stats.inc(name)

    def _mark(self, phase: str, txid: bytes) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.event(
                self._track, f"tx.{phase}", cat="shard",
                args={"txid": txid.hex()[:8], "shard": self.shard_id},
            )

    # -- execution ------------------------------------------------------------

    def execute(self, op: bytes, client_id: int, nondet_ts: int, readonly: bool) -> bytes:
        if op[:1] not in TX_OP.classes:  # a plain single-shard operation
            blocked = self._blocked(self.keys_of(op), readonly)
            return blocked or self.inner.execute(op, client_id, nondet_ts, readonly)
        request = decode_exact(TX_OP, op)
        phase_of, rows = self._TABLE[type(request)]
        row = rows.get(phase_of(self, request), rows.get(None))
        if type(row) is bytes:
            return row
        try:
            return row(self, request, client_id, nondet_ts)
        except _Refused as refusal:
            # Nothing was persisted: the pages still hold the tables as they
            # were before the op, and the tables are rebuilt from them.
            self._load_from_state()
            self._count("refusals")
            return _err(str(refusal))

    def _blocked(self, keys: Iterable[bytes], readonly: bool) -> Optional[bytes]:
        """What stops an op touching ``keys``, migration state first: a
        WRONG_SHARD redirect (unit moved away), a FROZEN refusal (unit
        mid-migration), then a LOCKED reply naming the prepared holder — so
        isolation holds between the direct path and the 2PC path — or None.

        Reads stay allowed on a *source*-frozen unit — the data is still
        authoritative here until MIG_COMMIT purges it, and no write can
        change it meanwhile.  A *destination* unit refuses reads too: its
        data is half-installed until MIG_ACTIVATE.
        """
        keys = tuple(keys)
        for key in keys if self._moved or self._migrations else ():
            for unit, dst, version in self._moved.values():
                if unit.covers(key):
                    self._count("wrong_shard_replies")
                    return ReplyWrongShard(unit, dst, version).encode()
            for mig in self._migrations.values():
                if (not readonly or mig.role == ROLE_DST) and mig.unit.covers(key):
                    self._count("frozen_refusals")
                    return _FROZEN
        for key in keys:
            holder = self._locks.get(key)
            if holder is not None:
                self._count("lock_conflicts")
                return ReplyLocked(holder, self._prepared[holder].coordinator).encode()
        return None

    # -- where the op's transaction or migration stands here -------------------

    def _tx_phase(self, op) -> int:
        outcome = self._outcomes.get(op.txid)
        if outcome is not None:
            return COMMITTED if outcome == DECISION_COMMIT else ABORTED
        return PREPARED if op.txid in self._prepared else NEW

    def _decision_phase(self, op) -> int:
        return DECIDED if op.txid in self._decisions else UNDECIDED

    def _mig_phase(self, op) -> int:
        if op.mig_id in self._moved:
            return MIG_MOVED
        if op.mig_id in self._owned:
            return MIG_OWNED
        mig = self._migrations.get(op.mig_id)
        if mig is None:
            return MIG_UNKNOWN
        return MIG_SRC_ACTIVE if mig.role == ROLE_SRC else MIG_DST_ACTIVE

    # -- 2PC handlers: each runs in the one phase ``_TABLE`` names -----------

    def _applied(self, counter: str, phase: str, xid: bytes) -> None:
        """The tables changed: count it, persist them, mark the trace."""
        self._count(counter)
        self._persist()
        self._mark(phase, xid)

    def _prepare(self, op: TxPrepare, client_id: int, _ts: int) -> bytes:
        # Every inner op must decode *now*: a COMMIT that met an undecodable
        # one would have applied the ops before it.
        for inner_op in op.ops:
            self.keys_of(inner_op)
        # A prepare acquires locks (a write): frozen and moved units both
        # refuse, so no new holder can appear mid-migration.
        blocked = self._blocked(op.keys, False)
        if blocked is not None:
            self._count("prepares")
            return blocked
        self._prepared[op.txid] = PreparedTx(
            op.txid, client_id, op.coordinator, op.participants, op.ops, op.keys
        )
        self._locks.update(dict.fromkeys(op.keys, op.txid))
        self._applied("prepares", "prepare", op.txid)
        return _OK

    def _commit(self, op: TxCommit, _client: int, nondet_ts: int) -> bytes:
        entry = self._prepared[op.txid]
        replies = []
        for inner_op in entry.ops:
            self._accumulated_ns += self.inner.execute_cost_ns(inner_op, False)
            replies.append(self.inner.execute(inner_op, entry.client_id, nondet_ts, False))
        self._finish(op.txid, DECISION_COMMIT, "commits", "commit")
        return ReplyOk(tuple(replies)).encode()

    def _abort(self, op: TxAbort, _client: int, _ts: int) -> bytes:
        # Tombstone even when never prepared here: blocks a late PREPARE.
        self._finish(op.txid, DECISION_ABORT, "aborts", "abort")
        return _OK

    def _finish(self, txid: bytes, outcome: int, counter: str, phase: str) -> None:
        entry = self._prepared.pop(txid, None)
        for key in entry.keys if entry else ():  # the entry and its locks go together
            if self._locks.get(key) == txid:
                del self._locks[key]
        self._outcomes[txid] = outcome
        self._gc()
        self._applied(counter, phase, txid)

    def _decide(self, op: TxDecide, _client: int, _ts: int) -> bytes:
        return self._record(op.txid, op.decision, "decisions", "decide")

    def _resolve(self, op: TxResolve, _client: int, _ts: int) -> bytes:
        # Presumed abort: no decision was ever durably recorded, so none
        # can have been acted upon — record abort, first writer wins.
        return self._record(op.txid, DECISION_ABORT, "resolves", "resolve")

    def _record(self, txid: bytes, decision: int, counter: str, phase: str) -> bytes:
        self._decisions[txid] = decision
        self._gc()
        self._applied(counter, phase, txid)
        return ReplyDecision(decision).encode()

    def _decided(self, op, _client: int, _ts: int) -> bytes:
        return ReplyDecision(self._decisions[op.txid]).encode()  # the first writer won

    def _forget(self, op: TxForget, _client: int, _ts: int) -> bytes:
        # Nobody can need to RESOLVE this transaction any more; a resolve that
        # arrives anyway presumes abort, and no participant is left to act on it.
        del self._decisions[op.txid]
        self._applied("forgets", "forget", op.txid)
        return _OK

    def _outcome(self, op: TxStatus, _client: int, _ts: int) -> bytes:
        outcome = self._outcomes.get(op.txid)
        return _UNKNOWN if outcome is None else ReplyDecision(outcome).encode()

    def _gc(self) -> None:
        """Bound the finished-transaction tables (oldest evicted first).

        Dict insertion order is identical at every replica of the group
        (same operations, same order, and the tables persist in insertion
        order), so eviction is deterministic.  Dropping an old outcome only
        weakens idempotency for extremely late duplicates; dropping an abort
        decision is free under presumed abort.  Commit decisions outlive
        both — see ``retain_limit`` in ``__init__``.
        """
        while len(self._outcomes) > self.retain_limit:
            del self._outcomes[next(iter(self._outcomes))]
        excess = max(len(self._decisions) - self.retain_limit, 0)
        for txid in [t for t, d in self._decisions.items() if d == DECISION_ABORT][:excess]:
            del self._decisions[txid]
        while len(self._decisions) > 4 * self.retain_limit:
            del self._decisions[next(iter(self._decisions))]

    # -- migration handlers (live rebalancing, DESIGN.md §12) -----------------

    def _migrate(self, hook: str, *args):
        """The inner application's ``migrate_<hook>``, or a refusal: no
        hooks, a unit it cannot move, a table it does not have."""
        function = getattr(self.inner, "migrate_" + hook, None)
        if function is None:
            raise _Refused("application does not support migration")
        try:
            return function(*args)
        except (StateError, SqlError) as exc:
            raise _Refused(str(exc)) from exc

    def _holders_of(self, mig_id: bytes) -> tuple[tuple[bytes, int], ...]:
        """The prepared transactions still holding locks on the migration's
        unit: the freeze blocks new ones, the rebalancer drains these."""
        unit = self._migrations[mig_id].unit
        return tuple(
            (txid, self._prepared[txid].coordinator) for txid in sorted(self._prepared)
            if any(unit.covers(key) for key in self._prepared[txid].keys)
        )

    def _freeze(self, op: MigFreeze, _client: int, _ts: int) -> bytes:
        self._migrations[op.mig_id] = Migration(op.mig_id, ROLE_SRC, op.unit, op.dst)
        self._applied("migrations_frozen", "mig_freeze", op.mig_id)
        return self._holders(op, _client, _ts)

    def _holders(self, op: MigFreeze, _client: int, _ts: int) -> bytes:
        return _mig(FreezePayload(self._holders_of(op.mig_id)))

    def _export(self, op: MigExport, _client: int, _ts: int) -> bytes:
        if self._holders_of(op.mig_id):
            return _err("export before prepared holders drained")
        # Deterministic: the unit is frozen, so every replica serializes
        # the identical chunk for the identical (cursor, budget).
        unit = self._migrations[op.mig_id].unit
        chunk, next_cursor, done = self._migrate("export", unit, op.cursor, op.budget)
        self._accumulated_ns += 2 * len(chunk)
        self._count("chunks_exported")
        return _mig(ExportPayload(next_cursor, done, chunk))

    def _begin(self, op: MigBegin, _client: int, _ts: int) -> bytes:
        self._migrations[op.mig_id] = Migration(op.mig_id, ROLE_DST, op.unit, op.src)
        self._applied("migrations_incoming", "mig_begin", op.mig_id)
        return _DONE

    def _install(self, op: MigInstall, _client: int, _ts: int) -> bytes:
        mig = self._migrations[op.mig_id]
        if op.chunk_index < mig.chunks_done:
            # A rebalancer re-driving after a crash re-exports from
            # cursor 0; chunks already installed dedupe by index.
            self._count("chunks_deduped")
            return _mig(InstallPayload(False, mig.chunks_done))
        if op.chunk_index > mig.chunks_done:
            return _err(f"install gap: chunk {op.chunk_index} after {mig.chunks_done}")
        self._migrate("install", mig.unit, op.chunk)
        self._accumulated_ns += 2 * len(op.chunk)
        self._migrations[op.mig_id] = replace(mig, chunks_done=mig.chunks_done + 1)
        self._count("chunks_installed")
        self._persist()
        return _mig(InstallPayload(True, mig.chunks_done + 1))

    def _activate(self, op: MigActivate, _client: int, _ts: int) -> bytes:
        del self._migrations[op.mig_id]
        self._owned[op.mig_id] = (op.unit, op.version)
        while len(self._owned) > self.moved_retain_limit:
            del self._owned[next(iter(self._owned))]
        self._applied("migrations_activated", "mig_activate", op.mig_id)
        return _DONE

    def _mig_commit(self, op: MigCommit, _client: int, _ts: int) -> bytes:
        mig = self._migrations[op.mig_id]
        self._migrate("purge", mig.unit)
        del self._migrations[op.mig_id]
        self._moved[op.mig_id] = (mig.unit, op.dst, op.version)
        while len(self._moved) > self.moved_retain_limit:
            del self._moved[next(iter(self._moved))]
            self._count("moved_facts_evicted")
        self._applied("migrations_committed", "mig_commit", op.mig_id)
        return _DONE

    def _cancel(self, op: MigAbort, _client: int, _ts: int) -> bytes:
        mig = self._migrations[op.mig_id]
        if mig.role == ROLE_DST and hasattr(self.inner, "migrate_purge"):
            # Drop the half-installed copy; the source still has it all.
            self._migrate("purge", mig.unit)
        del self._migrations[op.mig_id]
        self._applied("migrations_aborted", "mig_abort", op.mig_id)
        return _DONE

    def _progress(self, op: MigStatus, _client: int, _ts: int) -> bytes:
        mig = self._migrations.get(op.mig_id)  # None: unknown here, moved or owned
        return _mig(StatusPayload(self._mig_phase(op), mig.chunks_done if mig else 0))

    # The one table: what an op draws, by where its transaction or migration
    # stands here when the op is ordered — a fixed reply (idempotent re-drives
    # and refusals), or the handler for the phase in which the op does
    # something.  ``None`` is every phase not listed.
    _TABLE = {
        TxPrepare: (_tx_phase, {
            NEW: _prepare, PREPARED: _OK, COMMITTED: _OK,
            # The transaction was aborted here; a retransmitted PREPARE
            # must not re-acquire locks.
            ABORTED: _TOMBSTONE,
        }),
        TxCommit: (_tx_phase, {
            PREPARED: _commit, COMMITTED: _OK,
            NEW: _err("commit for unprepared transaction"),
            # The atomicity bug invariant #6 hunts for: refuse loudly.
            ABORTED: _err("commit after abort"),
        }),
        TxAbort: (_tx_phase, {
            NEW: _abort, PREPARED: _abort, ABORTED: _OK, COMMITTED: _err("abort after commit"),
        }),
        TxDecide: (_decision_phase, {UNDECIDED: _decide, DECIDED: _decided}),
        TxResolve: (_decision_phase, {UNDECIDED: _resolve, DECIDED: _decided}),
        TxForget: (_decision_phase, {UNDECIDED: _OK, DECIDED: _forget}),
        TxStatus: (_decision_phase, {UNDECIDED: _outcome, DECIDED: _decided}),
        MigFreeze: (_mig_phase, {
            MIG_UNKNOWN: _freeze, MIG_SRC_ACTIVE: _holders,
            MIG_MOVED: _NO_HOLDERS,  # already committed
            None: _err("freeze at the migration's destination"),
        }),
        MigExport: (_mig_phase, {
            MIG_SRC_ACTIVE: _export, None: _err("export without an active source migration"),
        }),
        MigBegin: (_mig_phase, {MIG_UNKNOWN: _begin, None: _DONE}),
        MigInstall: (_mig_phase, {
            MIG_DST_ACTIVE: _install,
            MIG_OWNED: _mig(InstallPayload(False, 0)),  # everything is already in
            MIG_SRC_ACTIVE: _err("install at the migration source"),
            None: _err("install without MIG_BEGIN"),
        }),
        MigActivate: (_mig_phase, {
            MIG_DST_ACTIVE: _activate, MIG_OWNED: _DONE,
            None: _err("activate without an incoming migration"),
        }),
        MigCommit: (_mig_phase, {
            MIG_SRC_ACTIVE: _mig_commit, MIG_MOVED: _DONE,
            None: _err("commit without an active source migration"),
        }),
        MigAbort: (_mig_phase, {MIG_SRC_ACTIVE: _cancel, MIG_DST_ACTIVE: _cancel, None: _DONE}),
        MigStatus: (_mig_phase, {None: _progress}),
    }

    # -- inspection (harness / invariant checks) ------------------------------

    def prepared_txids(self) -> tuple[bytes, ...]:
        return tuple(sorted(self._prepared))

    def prepared_entry(self, txid: bytes) -> Optional[PreparedTx]:
        return self._prepared.get(txid)

    def outcomes(self) -> dict[bytes, int]:
        return dict(self._outcomes)

    def decisions(self) -> dict[bytes, int]:
        return dict(self._decisions)

    def migrations(self) -> dict[bytes, Migration]:
        """In-flight migrations, either role, by migration id."""
        return dict(self._migrations)

    def moved_units(self) -> dict[bytes, tuple]:
        """Source-side tombstones: mig_id -> (unit, dst_shard, version)."""
        return dict(self._moved)

    def owned_units(self) -> dict[bytes, tuple]:
        """Destination-side facts: mig_id -> (unit, version)."""
        return dict(self._owned)

    # -- replicated persistence ----------------------------------------------

    def _persist(self) -> None:
        """Write the tables into the reserved pages, or refuse before the first byte."""
        image = TxTableImage(TxTable(
            prepared=tuple(self._prepared[txid] for txid in sorted(self._prepared)),
            outcomes=self._outcomes.items(),  # (the views: at hundreds of entries these two
            decisions=self._decisions.items(),  # are most of what every 2PC op re-encodes)
            migrations=tuple(self._migrations.values()),
            moved=tuple((mig_id, *fact) for mig_id, fact in self._moved.items()),
            owned=tuple((mig_id, *fact) for mig_id, fact in self._owned.items()),
        )).encode()
        if len(image) > self.tx_bytes:
            raise _Refused(f"transaction table ({len(image) - 8} bytes) overflows its "
                           f"{self.tx_bytes}-byte reservation — raise tx_pages")
        self.state.modify(self.tx_offset, len(image))
        self.state.write(self.tx_offset, image)

    def _load_from_state(self) -> None:
        header = self.state.read(self.tx_offset, 8)
        if header[:4] != _STATE_MAGIC:
            return self._adopt(_EMPTY_TABLE)  # a fresh region
        image = self.state.read(self.tx_offset, 8 + int.from_bytes(header[4:], "big"))
        self._adopt(decode_exact(TxTableImage, image).table)

    def _adopt(self, table: TxTable) -> None:
        self._prepared = {entry.txid: entry for entry in table.prepared}
        self._locks = {key: entry.txid for entry in table.prepared for key in entry.keys}
        self._outcomes = dict(table.outcomes)
        self._decisions = dict(table.decisions)
        self._migrations = {mig.mig_id: mig for mig in table.migrations}
        self._moved = {mig_id: tuple(fact) for mig_id, *fact in table.moved}
        self._owned = {mig_id: tuple(fact) for mig_id, *fact in table.owned}
