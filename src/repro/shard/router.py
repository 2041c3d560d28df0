"""The shard router: placement-aware client driving one PbftClient per group.

A router is the client-side half of the sharding layer.  It owns one
:class:`~repro.pbft.client.PbftClient` *per shard group* (each registered
with that group like any other client), consults the
:class:`~repro.shard.directory.ShardDirectory` through an app-specific
codec, and:

* routes **single-shard** operations directly to the owning group — no
  extra round trips, the scaling fast path;
* drives **cross-shard transactions** through the deterministic 2PC of
  :mod:`repro.shard.txapp`: PREPARE at every participant, a durable
  DECIDE ordered in the coordinator shard's log, then COMMIT/ABORT
  everywhere.  The decision is recorded *before* any commit is sent, so
  a router crash after the decision can never yield a mixed outcome;
* runs **recovery** when it collides with a stranded transaction: a
  LOCKED reply names the holder and its coordinator shard, so any router
  can RESOLVE the holder there (presumed abort, first writer wins) and
  deliver the resolved outcome to the shard it is blocked on.

Timeout behaviour: a participant that does not answer PREPARE within
``PREPARE_TIMEOUT_NS`` causes an abort decision — a stalled or
partitioned shard delays only transactions that touch it, it cannot
wedge the others.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.apps.kvstore import keys_of_op as kv_keys_of_op
from repro.apps.sqlapp import decode_sql_op, tables_of_sql
from repro.common.errors import ShardError
from repro.common.units import MILLISECOND
from repro.crypto.digests import md5_digest
from repro.shard.directory import ShardDirectory
from repro.shard.txapp import (
    DECISION_ABORT,
    DECISION_COMMIT,
    ReplyDecision,
    ReplyFrozen,
    ReplyLocked,
    ReplyOk,
    ReplyTombstone,
    ReplyWrongShard,
    TxDecide,
    TxForget,
    TxPrepare,
    TxResolve,
    decode_tx_reply,
    outcome_op,
)

# A participant silent this long after PREPARE gets the transaction
# aborted.
PREPARE_TIMEOUT_NS = 400 * MILLISECOND
# Re-sends of a COMMIT/ABORT outcome a participant did not acknowledge.
OUTCOME_RETRY_LIMIT = 3
# A LOCKED single-shard op retries after a linear backoff (the same step
# spaces outcome re-sends).
LOCKED_RETRY_LIMIT = 4
LOCKED_BACKOFF_NS = 10 * MILLISECOND
# Rebalancing resilience: a WRONG_SHARD redirect re-routes after installing
# the learned placement fact (version-compared, and vouched for by f+1
# matching replica replies — a single lying replica can never form the
# quorum the underlying PBFT client requires, so a Byzantine redirect cannot
# plant a false route); a FROZEN refusal backs off and retries while the
# unit is mid-migration.
REDIRECT_RETRY_LIMIT = 3
FROZEN_RETRY_LIMIT = 10
FROZEN_BACKOFF_NS = 20 * MILLISECOND


class KvShardCodec:
    """Placement and lock units for the kvstore: the keys themselves."""

    def __init__(self, directory: ShardDirectory) -> None:
        self.directory = directory

    def keys_of(self, op: bytes) -> tuple[bytes, ...]:
        return kv_keys_of_op(op)

    def shards_of(self, op: bytes) -> tuple[int, ...]:
        return tuple(sorted(
            {self.directory.shard_of_key(k) for k in kv_keys_of_op(op)}
        ))


class SqlShardCodec:
    """Placement by table; lock units are whole tables (``table:<name>``).

    Table placement is memoized against the directory version so routing
    stays O(1) per statement yet re-routes immediately after a
    reassignment bumps the version.
    """

    def __init__(self, directory: ShardDirectory) -> None:
        self.directory = directory
        self._memo: dict[str, int] = {}
        self._memo_version = directory.version

    def _shard_of_table(self, table: str) -> int:
        if self.directory.version != self._memo_version:
            self._memo.clear()
            self._memo_version = self.directory.version
        shard = self._memo.get(table)
        if shard is None:
            shard = self._memo[table] = self.directory.shard_of_table(table)
        return shard

    def _tables(self, op: bytes) -> tuple[str, ...]:
        sql, _params = decode_sql_op(op)
        return tables_of_sql(sql)

    def keys_of(self, op: bytes) -> tuple[bytes, ...]:
        return tuple(f"table:{t}".encode() for t in self._tables(op))

    def shards_of(self, op: bytes) -> tuple[int, ...]:
        return tuple(sorted({self._shard_of_table(t) for t in self._tables(op)}))


class TxnResult:
    """Outcome of one routed operation or transaction."""

    __slots__ = ("txid", "committed", "replies", "reason")

    def __init__(self, txid: bytes, committed: bool, replies=(), reason: str = ""):
        self.txid = txid
        self.committed = committed
        self.replies = replies
        self.reason = reason


class _Txn:
    """In-flight 2PC bookkeeping for one transaction."""

    __slots__ = ("txid", "per_shard_ops", "per_shard_keys", "participants",
                 "coordinator", "votes", "timer", "decision", "outcome_acks",
                 "replies", "callback", "started_at", "reason", "stranded",
                 "forgettable", "forgotten")

    def __init__(self, txid, per_shard_ops, per_shard_keys, callback, now):
        self.txid = txid
        self.per_shard_ops = per_shard_ops
        self.per_shard_keys = per_shard_keys
        self.participants = tuple(sorted(per_shard_ops))
        self.coordinator = self.participants[0]
        self.votes: dict[int, bool] = {}
        self.timer = None
        self.decision: Optional[int] = None
        self.outcome_acks: set[int] = set()
        self.replies: dict[int, tuple] = {}
        self.callback = callback
        self.started_at = now
        self.reason = ""
        # (holder txid, holder coordinator, shard) of a transaction we
        # collided with: recovered after our own abort completes.
        self.stranded: Optional[tuple[bytes, int, int]] = None
        # End-of-transaction bookkeeping (presumed-abort GC): the
        # decision record may be FORGOTTEN at the coordinator only once
        # every participant genuinely acked the outcome.
        self.forgettable = True
        self.forgotten = False


class ShardRouter:
    """One logical client of the sharded deployment.

    Routers are closed-loop: one operation or transaction in flight at a
    time (mirroring the PBFT client contract each underlying client
    already enforces per group).
    """

    def __init__(
        self,
        router_id: int,
        directory: ShardDirectory,
        clients: dict[int, object],  # shard -> PbftClient
        sim,
        codec,
        obs=None,
    ) -> None:
        self.router_id = router_id
        self.directory = directory
        self.clients = clients
        self.sim = sim
        self.codec = codec
        self.obs = obs
        self._txn_seq = 0
        self._active: Optional[_Txn] = None
        self._single_active = False
        self.crashed = False
        # Testing hook: "after_prepare" / "after_decide" crash the router
        # at that point of its *next* transaction, stranding it for other
        # routers' recovery (the coordinator-crash abort paths).
        self.crash_point: Optional[str] = None
        self.completed_singles = 0
        self.committed_txns = 0
        self.aborted_txns = 0
        if obs is not None:
            self.stats = obs.registry.view(f"router{router_id}.")
            self.tracer = obs.tracer
        else:
            from repro.obs import Observability

            self.stats = Observability().registry.view(f"router{router_id}.")
            self.tracer = None
        self._track = f"router{router_id}"
        # When a campaign sets this to a list, every completed underlying
        # PBFT request is recorded as (shard, client_id, req_id) — the
        # committed-loss invariant's evidence of client-observed commits.
        self.completion_log: Optional[list[tuple[int, int, int]]] = None

    # -- helpers --------------------------------------------------------------

    def _client_invoke(self, shard: int, op: bytes, callback, readonly=False):
        """Invoke on a group client, recording the completion if asked."""
        client = self.clients[shard]
        holder = {}

        def wrapped(result: bytes, latency: int) -> None:
            if self.completion_log is not None and "req" in holder:
                self.completion_log.append(
                    (shard, client.node_id, holder["req"].req_id)
                )
            callback(result, latency)

        holder["req"] = client.invoke(op, readonly=readonly, callback=wrapped)
        return holder["req"]

    @property
    def busy(self) -> bool:
        return self._active is not None or self._single_active

    def _next_txid(self) -> bytes:
        self._txn_seq += 1
        return md5_digest(
            self.router_id.to_bytes(8, "big") + self._txn_seq.to_bytes(8, "big")
        )

    def _mark(self, phase: str, txn: _Txn, shard: Optional[int] = None) -> None:
        if self.tracer is not None and self.tracer.enabled:
            args = {"txid": txn.txid.hex()[:8], "shards": list(txn.participants)}
            if shard is not None:
                args["shard"] = shard
            self.tracer.event(self._track, f"txn.{phase}", cat="shard", args=args)

    def _crash(self) -> None:
        """Stop cold: cancel client timers, fire no callbacks."""
        self.crashed = True
        self._active = None
        self._single_active = False
        for client in self.clients.values():
            client.cancel_pending()

    def stop(self) -> None:
        self._crash()
        for client in self.clients.values():
            client.stop()

    # -- single-shard path ----------------------------------------------------

    def invoke(
        self,
        op: bytes,
        callback: Optional[Callable[[TxnResult], None]] = None,
        readonly: bool = False,
    ) -> None:
        """Route one single-shard operation directly to its owning group."""
        if self.busy or self.crashed:
            raise ShardError(f"router {self.router_id} is busy")
        shards = self.codec.shards_of(op)
        if len(shards) != 1:
            raise ShardError(
                f"operation touches shards {shards}; use invoke_txn for "
                "cross-shard work"
            )
        self._single_active = True
        self._invoke_single(op, shards[0], callback, readonly, attempt=0)

    def _invoke_single(self, op, shard, callback, readonly, attempt,
                       redirects: int = 0, frozen: int = 0) -> None:
        def fail(reason: str) -> None:
            self._single_active = False
            self.stats.inc("failed_singles")
            if callback is not None:
                callback(TxnResult(b"", False, reason=reason))

        def on_reply(result: bytes, _latency: int) -> None:
            if self.crashed:
                return
            tx = decode_tx_reply(result)
            if tx is not None:
                if type(tx) is ReplyLocked and attempt < LOCKED_RETRY_LIMIT:
                    # Blocked on a (possibly stranded) transaction: resolve
                    # it at its coordinator, deliver the outcome here, then
                    # retry after a deterministic backoff.
                    self.stats.inc("lock_conflicts")
                    self._recover_holder(
                        tx.holder_txid, tx.holder_coordinator, shard,
                        lambda: self.sim.schedule(
                            LOCKED_BACKOFF_NS * (attempt + 1),
                            lambda: self._invoke_single(
                                op, shard, callback, readonly, attempt + 1,
                                redirects, frozen,
                            ),
                        ),
                    )
                    return
                if type(tx) is ReplyWrongShard:
                    # The unit moved: install the learned fact (a no-op if
                    # our directory already knows something newer) and
                    # re-route.  Each redirect carries a strictly newer
                    # version than the route that drew it, so the retry
                    # count is bounded by the moves we are behind.
                    self.stats.inc("wrong_shard_redirects")
                    if redirects < REDIRECT_RETRY_LIMIT:
                        self._learn_fact(tx)
                        new_shards = self.codec.shards_of(op)
                        if len(new_shards) == 1 and new_shards[0] != shard:
                            self._invoke_single(
                                op, new_shards[0], callback, readonly,
                                attempt, redirects + 1, frozen,
                            )
                            return
                    fail("wrong-shard")
                    return
                if type(tx) is ReplyFrozen:
                    # Mid-migration: the unit will thaw at the source (on
                    # abort), redirect from it (on commit), or activate at
                    # the destination — back off and retry in place.
                    self.stats.inc("frozen_refusals")
                    if frozen < FROZEN_RETRY_LIMIT:
                        self.sim.schedule(
                            FROZEN_BACKOFF_NS * (frozen + 1),
                            lambda: self._invoke_single(
                                op, shard, callback, readonly, attempt,
                                redirects, frozen + 1,
                            ),
                        )
                        return
                    fail("frozen")
                    return
                fail("locked")
                return
            self._single_active = False
            self.completed_singles += 1
            self.stats.inc("singles_completed")
            if callback is not None:
                callback(TxnResult(b"", True, replies=(result,)))

        self._client_invoke(shard, op, on_reply, readonly=readonly)

    def _learn_fact(self, tx: ReplyWrongShard) -> None:
        """Install the placement fact a WRONG_SHARD redirect carries."""
        tx.unit.place(self.directory, tx.shard, tx.version)

    # -- recovery -------------------------------------------------------------

    def _recover_holder(
        self, holder_txid: bytes, coordinator: int, blocked_shard: int,
        on_done: Callable[[], None],
    ) -> None:
        """RESOLVE a stranded transaction, then unblock ``blocked_shard``."""
        self.stats.inc("recoveries")
        coord_client = self.clients.get(coordinator)
        if coord_client is None or coord_client.busy:
            on_done()  # cannot recover right now; retry will find out
            return

        def on_resolved(result: bytes, _latency: int) -> None:
            if self.crashed:
                return
            tx = decode_tx_reply(result)
            decision = tx.decision if type(tx) is ReplyDecision else DECISION_ABORT
            blocked_client = self.clients[blocked_shard]
            if blocked_client.busy:
                on_done()
                return
            self._client_invoke(
                blocked_shard, outcome_op(holder_txid, decision), lambda _r, _l: on_done()
            )

        self._client_invoke(coordinator, TxResolve(holder_txid).encode(), on_resolved)

    # -- cross-shard transactions ---------------------------------------------

    def invoke_txn(
        self,
        ops: Iterable[bytes],
        callback: Optional[Callable[[TxnResult], None]] = None,
    ) -> bytes:
        """Run a multi-operation transaction atomically across its shards.

        Each operation must itself be single-shard; the transaction is the
        unit that spans shards.  Returns the transaction id.
        """
        if self.busy or self.crashed:
            raise ShardError(f"router {self.router_id} is busy")
        per_shard_ops: dict[int, list[bytes]] = {}
        per_shard_keys: dict[int, list[bytes]] = {}
        for op in ops:
            shards = self.codec.shards_of(op)
            if len(shards) != 1:
                raise ShardError("each transaction operation must be single-shard")
            shard = shards[0]
            per_shard_ops.setdefault(shard, []).append(op)
            keys = per_shard_keys.setdefault(shard, [])
            for key in self.codec.keys_of(op):
                if key not in keys:
                    keys.append(key)
        if not per_shard_ops:
            raise ShardError("a transaction needs at least one operation")
        txn = _Txn(
            self._next_txid(), per_shard_ops, per_shard_keys, callback,
            self.sim.now,
        )
        self._active = txn
        self.stats.inc("txns_started")
        self._mark("prepare", txn)
        txn.timer = self.sim.schedule(
            PREPARE_TIMEOUT_NS, lambda: self._on_prepare_timeout(txn)
        )
        for shard in txn.participants:
            prepare = TxPrepare(
                txn.txid, txn.coordinator, txn.participants,
                tuple(txn.per_shard_ops[shard]), tuple(txn.per_shard_keys[shard]),
            )
            self._client_invoke(
                shard, prepare.encode(),
                lambda result, _lat, s=shard: self._on_vote(txn, s, result),
            )
        return txn.txid

    def _on_vote(self, txn: _Txn, shard: int, result: bytes) -> None:
        if self._active is not txn or txn.decision is not None or self.crashed:
            return
        tx = decode_tx_reply(result)
        vote = type(tx) is ReplyOk
        if type(tx) is ReplyLocked:
            # No blocking lock waits (wound-free 2PC keeps the design
            # deadlock-proof): our transaction aborts, and once the
            # abort is fully delivered we recover the holder so its
            # locks cannot strand the keys forever.
            txn.reason = "locked"
            txn.stranded = (tx.holder_txid, tx.holder_coordinator, shard)
            self.stats.inc("lock_conflicts")
        elif type(tx) is ReplyTombstone:
            txn.reason = "tombstone"
        elif type(tx) is ReplyWrongShard:
            # A participant's unit moved mid-flight: vote no (the
            # transaction aborts presumed-abort), but learn the fact
            # so the caller's retry routes to the new home.
            txn.reason = "wrong-shard"
            self._learn_fact(tx)
            self.stats.inc("wrong_shard_redirects")
        elif type(tx) is ReplyFrozen:
            # Mid-migration: abort now; the caller may retry once the
            # move settles.  Prepares must not wait out a freeze —
            # held locks on other shards would stall their traffic.
            txn.reason = "frozen"
            self.stats.inc("frozen_refusals")
        txn.votes[shard] = vote
        if not vote:
            self._decide(txn, DECISION_ABORT)
        elif len(txn.votes) == len(txn.participants):
            self._decide(txn, DECISION_COMMIT)

    def _on_prepare_timeout(self, txn: _Txn) -> None:
        if self._active is not txn or txn.decision is not None or self.crashed:
            return
        txn.timer = None
        txn.reason = txn.reason or "prepare-timeout"
        self.stats.inc("prepare_timeouts")
        # Unanswered participants may be partitioned away: stop waiting,
        # decide abort.  Their PBFT clients are cancelled so the sockets
        # are free for the outcome delivery below.
        for shard in txn.participants:
            if shard not in txn.votes:
                self.clients[shard].cancel_pending()
        self._decide(txn, DECISION_ABORT)

    def _decide(self, txn: _Txn, wanted: int) -> None:
        if txn.decision is not None:
            return
        if txn.timer is not None:
            txn.timer.cancel()
            txn.timer = None
        if self.crash_point == "after_prepare":
            self._crash()
            return
        txn.decision = -1  # decision in flight
        self._mark("decide", txn, txn.coordinator)
        coord = self.clients[txn.coordinator]
        if coord.busy:
            # Aborting before the coordinator's own PREPARE answered: free
            # its client so the DECIDE can go out.
            coord.cancel_pending()
        self._client_invoke(
            txn.coordinator, TxDecide(txn.txid, wanted).encode(),
            lambda result, _lat: self._on_decided(txn, wanted, result),
        )

    def _on_decided(self, txn: _Txn, wanted: int, result: bytes) -> None:
        if self._active is not txn or self.crashed:
            return
        tx = decode_tx_reply(result)
        # The first writer may have beaten us.
        txn.decision = tx.decision if type(tx) is ReplyDecision else wanted
        if self.crash_point == "after_decide":
            self._crash()
            return
        self._deliver_outcomes(txn)

    def _deliver_outcomes(self, txn: _Txn) -> None:
        self._mark("commit" if txn.decision == DECISION_COMMIT else "abort", txn)
        for shard in txn.participants:
            self._deliver_outcome(txn, shard, attempt=0)

    def _deliver_outcome(self, txn: _Txn, shard: int, attempt: int) -> None:
        if self._active is not txn or self.crashed:
            return
        op = outcome_op(txn.txid, txn.decision)
        client = self.clients[shard]
        if client.busy:
            client.cancel_pending()

        def on_ack(result: bytes, _latency: int) -> None:
            if self._active is not txn or self.crashed:
                return
            tx = decode_tx_reply(result)
            if type(tx) is ReplyOk:
                txn.replies[shard] = tx.inner_replies
                txn.outcome_acks.add(shard)
                self._maybe_finish(txn)
                return
            if attempt < OUTCOME_RETRY_LIMIT:
                self.sim.schedule(
                    LOCKED_BACKOFF_NS,
                    lambda: self._deliver_outcome(txn, shard, attempt + 1),
                )
            else:
                # Give up on this shard's ack: the decision is durable at
                # the coordinator, so the reconciliation sweep (or any
                # router that collides with the leftover locks) will
                # finish delivery.  Count it and finish the transaction —
                # but the decision must NOT be forgotten: this shard may
                # still hold prepared state that a later RESOLVE needs
                # the true decision for.
                self.stats.inc("outcome_delivery_failures")
                txn.forgettable = False
                txn.outcome_acks.add(shard)
                self._maybe_finish(txn)

        self._client_invoke(shard, op, on_ack)

    def _maybe_finish(self, txn: _Txn) -> None:
        if len(txn.outcome_acks) != len(txn.participants):
            return
        if txn.stranded is not None:
            # Our abort is fully delivered; now recover the transaction we
            # collided with, then report.  Keeps the router busy so the
            # recovery traffic is serialized like any other work.
            holder_txid, holder_coordinator, shard = txn.stranded
            txn.stranded = None
            self._recover_holder(
                holder_txid, holder_coordinator, shard,
                lambda: self._maybe_finish(txn),
            )
            return
        if txn.forgettable and not txn.forgotten:
            # End of transaction: every participant acked, so nobody can
            # ever need to RESOLVE this txid again — tell the coordinator
            # to drop the decision record (presumed-abort GC).  Abort
            # decisions are evictable anyway, but forgetting them early
            # keeps the table small.
            txn.forgotten = True
            coord = self.clients[txn.coordinator]
            if not coord.busy:
                self._client_invoke(
                    txn.coordinator, TxForget(txn.txid).encode(),
                    lambda _r, _l: self._maybe_finish(txn),
                )
                return
        self._active = None
        committed = txn.decision == DECISION_COMMIT
        if committed:
            self.committed_txns += 1
            self.stats.inc("txns_committed")
        else:
            self.aborted_txns += 1
            self.stats.inc("txns_aborted")
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.complete(
                self._track, "txn", txn.started_at, self.sim.now, cat="shard",
                args={
                    "txid": txn.txid.hex()[:8],
                    "shards": list(txn.participants),
                    "outcome": "commit" if committed else "abort",
                    "reason": txn.reason,
                },
            )
        if txn.callback is not None:
            replies = tuple(
                reply
                for shard in txn.participants
                for reply in txn.replies.get(shard, ())
            )
            txn.callback(TxnResult(txn.txid, committed, replies, txn.reason))
