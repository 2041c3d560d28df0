"""ShardTxApplication unit tests: the replicated 2PC participant state.

Drives the wrapper directly (no cluster, no network) — ops arrive in
whatever order the test dictates, standing in for the group's PBFT log.
"""

import pytest

from repro.apps.kvstore import encode_put, keys_of_op
from repro.pbft.replica import Application
from repro.pbft.wire import Decoder, Encoder
from repro.shard.txapp import (
    DECISION_ABORT,
    DECISION_COMMIT,
    ReplyDecision,
    ReplyErr,
    ReplyLocked,
    ReplyOk,
    ReplyTombstone,
    ReplyUnknown,
    ShardTxApplication,
    TxAbort,
    TxCommit,
    TxDecide,
    TxForget,
    TxPrepare,
    TxResolve,
    TxStatus,
    decode_tx_reply,
    is_tx_reply,
)
from repro.statemgr.pages import PagedState


class RecordingApp(Application):
    """Inner application that records executions and replies b'ok'."""

    def __init__(self):
        self.executed = []

    def bind_state(self, state, app_offset):
        self.state = state
        self.offset = app_offset

    def execute(self, op, client_id, nondet_ts, readonly):
        self.executed.append((op, client_id))
        return b"\x00ok"


def txid(n: int) -> bytes:
    return n.to_bytes(16, "big")


def make_app(tx_pages: int = 4, retain_limit: int = 256,
             state: PagedState = None) -> ShardTxApplication:
    app = ShardTxApplication(
        RecordingApp(), keys_of=keys_of_op, shard_id=0,
        tx_pages=tx_pages, retain_limit=retain_limit,
    )
    app.bind_state(state or PagedState(num_pages=16, page_size=512), 0)
    return app


def prepare(app, n, keys=(b"k",), ops=None, coordinator=0,
            participants=(0, 1), client_id=7):
    ops = [encode_put(k, b"v") for k in keys] if ops is None else ops
    op = TxPrepare(txid(n), coordinator, tuple(participants), tuple(ops), tuple(keys)).encode()
    return decode_tx_reply(app.execute(op, client_id, 0, False))


def run(app, op, client_id=7):
    return decode_tx_reply(app.execute(op, client_id, 0, False))


class TestPrepareAndLocks:
    def test_prepare_acquires_locks(self):
        app = make_app()
        assert type(prepare(app, 1, keys=(b"a", b"b"))) is ReplyOk
        assert app.prepared_txids() == (txid(1),)
        # A plain op on a locked key is refused with the holder named.
        reply = run(app, encode_put(b"a", b"x"))
        assert type(reply) is ReplyLocked
        assert reply.holder_txid == txid(1)
        assert reply.holder_coordinator == 0

    def test_conflicting_prepare_names_holder(self):
        app = make_app()
        prepare(app, 1, keys=(b"k",), coordinator=3)
        reply = prepare(app, 2, keys=(b"k",))
        assert type(reply) is ReplyLocked
        assert reply.holder_txid == txid(1)
        assert reply.holder_coordinator == 3
        assert app.prepared_txids() == (txid(1),)

    def test_prepare_is_idempotent(self):
        app = make_app()
        assert type(prepare(app, 1)) is ReplyOk
        assert type(prepare(app, 1)) is ReplyOk
        assert app.prepared_txids() == (txid(1),)

    def test_unlocked_keys_pass_through(self):
        app = make_app()
        prepare(app, 1, keys=(b"a",))
        reply = app.execute(encode_put(b"other", b"x"), 7, 0, False)
        assert not is_tx_reply(reply)  # the inner application answered
        assert app.inner.executed


class TestCommitAbort:
    def test_commit_executes_inner_ops_and_releases_locks(self):
        app = make_app()
        prepare(app, 1, keys=(b"a",), client_id=42)
        reply = run(app, TxCommit(txid(1)).encode())
        assert type(reply) is ReplyOk
        assert reply.inner_replies == (b"\x00ok",)
        assert app.inner.executed == [(encode_put(b"a", b"v"), 42)]
        assert not is_tx_reply(app.execute(encode_put(b"a", b"x"), 7, 0, False))
        assert app.outcomes() == {txid(1): DECISION_COMMIT}

    def test_commit_is_idempotent_but_does_not_reexecute(self):
        app = make_app()
        prepare(app, 1)
        run(app, TxCommit(txid(1)).encode())
        assert type(run(app, TxCommit(txid(1)).encode())) is ReplyOk
        assert len(app.inner.executed) == 1

    def test_commit_unprepared_is_an_error(self):
        app = make_app()
        assert type(run(app, TxCommit(txid(9)).encode())) is ReplyErr

    def test_abort_releases_locks_and_tombstones(self):
        app = make_app()
        prepare(app, 1, keys=(b"a",))
        assert type(run(app, TxAbort(txid(1)).encode())) is ReplyOk
        assert not is_tx_reply(app.execute(encode_put(b"a", b"x"), 7, 0, False))
        # The tombstone blocks a late PREPARE retransmission forever.
        assert type(prepare(app, 1, keys=(b"a",))) is ReplyTombstone
        assert not app.inner.executed[:0]  # nothing committed

    def test_outcome_flips_are_refused(self):
        app = make_app()
        prepare(app, 1)
        run(app, TxCommit(txid(1)).encode())
        assert type(run(app, TxAbort(txid(1)).encode())) is ReplyErr
        prepare(app, 2)
        run(app, TxAbort(txid(2)).encode())
        assert type(run(app, TxCommit(txid(2)).encode())) is ReplyErr


class TestDecideResolve:
    def test_first_decide_wins(self):
        app = make_app()
        reply = run(app, TxDecide(txid(1), DECISION_COMMIT).encode())
        assert reply == ReplyDecision(DECISION_COMMIT)
        # A later conflicting DECIDE gets the recorded decision back.
        reply = run(app, TxDecide(txid(1), DECISION_ABORT).encode())
        assert reply.decision == DECISION_COMMIT

    def test_resolve_presumes_abort(self):
        app = make_app()
        reply = run(app, TxResolve(txid(1)).encode())
        assert reply == ReplyDecision(DECISION_ABORT)
        # A DECIDE(commit) arriving after the resolve is too late.
        assert run(app, TxDecide(txid(1), DECISION_COMMIT).encode()).decision == DECISION_ABORT

    def test_resolve_after_decide_returns_decision(self):
        app = make_app()
        run(app, TxDecide(txid(1), DECISION_COMMIT).encode())
        assert run(app, TxResolve(txid(1)).encode()).decision == DECISION_COMMIT

    def test_status_reports_decision_outcome_or_unknown(self):
        app = make_app()
        assert type(run(app, TxStatus(txid(1)).encode())) is ReplyUnknown
        run(app, TxDecide(txid(1), DECISION_COMMIT).encode())
        assert run(app, TxStatus(txid(1)).encode()).decision == DECISION_COMMIT
        prepare(app, 2)
        run(app, TxAbort(txid(2)).encode())
        assert run(app, TxStatus(txid(2)).encode()).decision == DECISION_ABORT


class TestForgetAndGc:
    def test_forget_drops_the_decision(self):
        app = make_app()
        run(app, TxDecide(txid(1), DECISION_COMMIT).encode())
        assert type(run(app, TxForget(txid(1)).encode())) is ReplyOk
        assert app.decisions() == {}
        # Forgetting twice (or an unknown txid) is harmless.
        assert type(run(app, TxForget(txid(1)).encode())) is ReplyOk
        # A resolve after forget presumes abort — safe, because FORGET is
        # only sent once every participant already acted on the outcome.
        assert run(app, TxResolve(txid(1)).encode()).decision == DECISION_ABORT

    def test_outcomes_evict_oldest_first(self):
        app = make_app(retain_limit=4)
        for n in range(1, 8):
            prepare(app, n, keys=(f"k{n}".encode(),))
            run(app, TxCommit(txid(n)).encode())
        kept = list(app.outcomes())
        assert len(kept) == 4
        assert kept == [txid(n) for n in (4, 5, 6, 7)]

    def test_abort_decisions_evict_but_commits_survive(self):
        app = make_app(retain_limit=4)
        run(app, TxDecide(txid(100), DECISION_COMMIT).encode())
        for n in range(1, 9):
            run(app, TxResolve(txid(n)).encode())  # 8 abort decisions
        decisions = app.decisions()
        assert decisions[txid(100)] == DECISION_COMMIT
        assert len(decisions) == 4

    def test_commit_decisions_hard_capped(self):
        app = make_app(retain_limit=2)
        for n in range(1, 12):
            run(app, TxDecide(txid(n), DECISION_COMMIT).encode())
        # Commit decisions only fall to the 4x hard cap, oldest first.
        decisions = list(app.decisions())
        assert len(decisions) == 4 * 2
        assert decisions[0] == txid(4)


class TestPersistence:
    def test_state_roundtrip_preserves_tables_and_order(self):
        state = PagedState(num_pages=16, page_size=512)
        app = make_app(state=state)
        prepare(app, 1, keys=(b"a", b"b"), participants=(0, 2), coordinator=2)
        for n in (5, 3, 9):  # deliberately non-sorted insertion order
            prepare(app, n, keys=(f"k{n}".encode(),))
            run(app, TxCommit(txid(n)).encode())
        run(app, TxDecide(txid(7), DECISION_COMMIT).encode())
        run(app, TxResolve(txid(8)).encode())

        # A replica catching up via state transfer sees the same pages.
        twin = make_app(state=state)
        assert twin.prepared_txids() == app.prepared_txids()
        entry = twin.prepared_entry(txid(1))
        assert entry.coordinator == 2
        assert entry.participants == (0, 2)
        assert entry.keys == (b"a", b"b")
        # Insertion order is replicated state: GC evicts oldest-first, so
        # the twin must adopt the order, not re-sort it.
        assert list(twin.outcomes()) == list(app.outcomes())
        assert list(twin.decisions()) == list(app.decisions())
        # Locks were rebuilt too.
        assert type(run(twin, encode_put(b"a", b"x"))) is ReplyLocked

    @pytest.mark.parametrize("entries", [0, 1, 300])
    def test_finished_tables_persist_as_the_per_entry_encoding(self, entries):
        """The per-entry ``Encoder`` loop ``_persist`` used to run, kept
        here as the reference for the one-join encoding: same bytes for
        empty, single-entry and evicting tables."""
        state = PagedState(num_pages=64, page_size=512)
        app = make_app(tx_pages=48, retain_limit=64, state=state)
        for n in range(1, entries + 1):
            prepare(app, n, keys=(f"k{n}".encode(),))
            run(app, TxAbort(txid(n)).encode() if n % 3 == 0 else TxCommit(txid(n)).encode())
            if n % 5 == 0:
                run(app, TxResolve(txid(1000 + n)).encode())  # an abort decision
            else:
                run(app, TxDecide(txid(1000 + n), DECISION_COMMIT).encode())
        app._persist()  # the empty tables have not been written yet
        assert len(app.outcomes()) == min(entries, 64)  # 300: evictions ran
        assert len(app.decisions()) == {0: 0, 1: 1, 300: 240}[entries]

        reference = Encoder().u32(0)  # nothing prepared
        for table in (app.outcomes(), app.decisions()):
            reference.u32(len(table))
            for tx, flag in table.items():
                reference.raw(tx).u8(flag)
        reference.u32(0).u32(0).u32(0)  # no migrations, moved or owned facts
        header = Decoder(state.read(app.tx_offset, 8))
        header.u32()
        assert state.read(app.tx_offset + 8, header.u32()) == reference.finish()
        twin = make_app(tx_pages=48, state=state)
        assert list(twin.outcomes().items()) == list(app.outcomes().items())
        assert list(twin.decisions().items()) == list(app.decisions().items())

    def test_overflow_is_refused_with_the_tables_as_before_the_op(self):
        state = PagedState(num_pages=16, page_size=512)
        app = make_app(tx_pages=1, state=state)
        big = bytes(300)
        replies = [
            prepare(app, n, keys=(f"k{n}".encode(),), ops=[encode_put(f"k{n}".encode(), big)])
            for n in range(1, 4)
        ]
        assert [type(reply) for reply in replies] == [ReplyOk, ReplyErr, ReplyErr]
        assert "overflows its 512-byte reservation" in replies[1].message
        # The refused prepares hold nothing, in memory or in the pages.
        assert app.prepared_txids() == (txid(1),)
        assert make_app(tx_pages=1, state=state).prepared_txids() == (txid(1),)
        assert not is_tx_reply(app.execute(encode_put(b"k2", b"x"), 7, 0, False))
        assert type(run(app, encode_put(b"k1", b"x"))) is ReplyLocked
        # Room again once the holder is gone.
        assert type(run(app, TxAbort(txid(1)).encode())) is ReplyOk
        assert type(prepare(app, 2, keys=(b"k2",), ops=[encode_put(b"k2", big)])) is ReplyOk

    def test_fresh_region_loads_empty(self):
        app = make_app()
        assert app.prepared_txids() == ()
        assert app.outcomes() == {}
