"""Migration-op unit tests: freeze, copy, activate, commit, tombstones.

Drives a pair of kv-backed ShardTxApplications directly (source shard 0,
destination shard 1), standing in for two groups' PBFT logs — the full
protocol over real state, without a cluster.
"""

from repro.apps.kvstore import KvApplication, Get, encode_put, keys_of_op
from repro.shard.directory import key_position
from repro.pbft.wire import decode_exact
from repro.shard.txapp import (
    MIG_DST_ACTIVE,
    MIG_MOVED,
    MIG_OWNED,
    MIG_SRC_ACTIVE,
    MIG_UNKNOWN,
    ExportPayload,
    FreezePayload,
    InstallPayload,
    MigAbort,
    MigActivate,
    MigBegin,
    MigCommit,
    MigExport,
    MigFreeze,
    MigInstall,
    MigStatus,
    RangeUnit,
    ReplyErr,
    ReplyFrozen,
    ReplyMig,
    ReplyOk,
    ReplyWrongShard,
    ShardTxApplication,
    StatusPayload,
    TxPrepare,
    decode_tx_reply,
)
from repro.statemgr.pages import PagedState


MIG = (7).to_bytes(16, "big")
TXID = (99).to_bytes(16, "big")
HALF = 1 << 31
LOW_UNIT = RangeUnit(0, HALF)  # the lower half of the hash space


def make_kv_app(shard_id: int) -> ShardTxApplication:
    app = ShardTxApplication(
        KvApplication(num_slots=64, value_size=32), keys_of=keys_of_op,
        shard_id=shard_id, tx_pages=4,
    )
    app.bind_state(PagedState(num_pages=24, page_size=512), 0)
    return app


def key_in(lo: int, hi: int, tag: str) -> bytes:
    for i in range(10_000):
        key = f"{tag}-{i}".encode()
        if lo <= key_position(key) < hi:
            return key
    raise AssertionError("no key found in range")


def run(app, op, readonly=False, client=1):
    return app.execute(op, client, 0, readonly)


def mig_payload(reply: bytes, cls=None):
    """The migration reply's payload, decoded as ``cls`` when one is expected."""
    tx = decode_tx_reply(reply)
    assert type(tx) is ReplyMig, tx
    return decode_exact(cls, tx.payload) if cls else tx.payload


def migrate(src, dst, unit=LOW_UNIT, mig=MIG, budget=64):
    """Drive the whole protocol between two apps; returns chunk count."""
    frozen = mig_payload(run(src, MigFreeze(mig, unit, dst.shard_id).encode()), FreezePayload)
    assert frozen.holders == ()
    mig_payload(run(dst, MigBegin(mig, unit, src.shard_id).encode()))
    cursor, index = 0, 0
    while True:
        exported = mig_payload(run(src, MigExport(mig, cursor, budget).encode()), ExportPayload)
        cursor = exported.next_cursor
        mig_payload(run(dst, MigInstall(mig, index, exported.chunk).encode()), InstallPayload)
        index += 1
        if exported.done:
            break
    mig_payload(run(dst, MigActivate(mig, unit, 1).encode()))
    mig_payload(run(src, MigCommit(mig, unit, dst.shard_id, 1).encode()))
    return index


class TestFreeze:
    def test_freeze_blocks_writes_allows_reads(self):
        src = make_kv_app(0)
        key = key_in(0, HALF, "frozen")
        assert run(src, encode_put(key, b"v1"))[:1] == b"\x01"
        run(src, MigFreeze(MIG, LOW_UNIT, 1).encode())
        blocked = decode_tx_reply(run(src, encode_put(key, b"v2")))
        assert type(blocked) is ReplyFrozen
        # Reads still serve: the data is authoritative here until commit.
        assert b"v1" in run(src, Get(key).encode(), readonly=True)
        # Keys outside the unit are untouched by the freeze.
        other = key_in(HALF, 1 << 32, "other")
        assert run(src, encode_put(other, b"w"))[:1] == b"\x01"

    def test_freeze_reports_prepared_holders_and_blocks_new_prepares(self):
        src = make_kv_app(0)
        key = key_in(0, HALF, "held")
        prepare = TxPrepare(TXID, 0, (0,), [encode_put(key, b"x")], [key]).encode()
        assert type(decode_tx_reply(run(src, prepare))) is ReplyOk
        frozen = mig_payload(run(src, MigFreeze(MIG, LOW_UNIT, 1).encode()), FreezePayload)
        assert frozen.holders == ((TXID, 0),)
        # Export refuses while a holder could still commit into the unit.
        export = decode_tx_reply(run(src, MigExport(MIG, 0, 256).encode()))
        assert type(export) is ReplyErr
        # New prepares touching the unit are refused outright.
        other_txid = (5).to_bytes(16, "big")
        prepare2 = TxPrepare(
            other_txid, 0, (0,), [encode_put(key, b"y")], [key]
        ).encode()
        assert type(decode_tx_reply(run(src, prepare2))) is ReplyFrozen


class TestFullMigration:
    def test_moves_exactly_the_unit_and_leaves_a_tombstone(self):
        src, dst = make_kv_app(0), make_kv_app(1)
        inside = [key_in(0, HALF, f"in{i}") for i in range(8)]
        outside = [key_in(HALF, 1 << 32, f"out{i}") for i in range(4)]
        for key in inside + outside:
            run(src, encode_put(key, b"val-" + key))
        chunks = migrate(src, dst)
        assert chunks >= 2  # the budget forced a multi-chunk copy
        # Destination serves every moved key; source redirects with the
        # authoritative (unit, shard, version) fact, reads included.
        for key in inside:
            assert b"val-" + key in run(dst, Get(key).encode(), readonly=True)
            redirect = decode_tx_reply(run(src, Get(key).encode(), readonly=True))
            assert type(redirect) is ReplyWrongShard
            assert redirect.shard == 1
            assert redirect.version == 1
            assert redirect.unit == LOW_UNIT
            write = decode_tx_reply(run(src, encode_put(key, b"stale")))
            assert type(write) is ReplyWrongShard
        # Keys outside the unit never left the source.
        for key in outside:
            assert b"val-" + key in run(src, Get(key).encode(), readonly=True)
            assert run(dst, Get(key).encode(), readonly=True)[:1] == b"\x00"
        assert src.moved_units()[MIG] == (LOW_UNIT, 1, 1)
        assert dst.owned_units()[MIG] == (LOW_UNIT, 1)
        assert src.migrations() == {} and dst.migrations() == {}

    def test_steps_are_idempotent(self):
        src, dst = make_kv_app(0), make_kv_app(1)
        key = key_in(0, HALF, "idem")
        run(src, encode_put(key, b"v"))
        migrate(src, dst)
        # Re-driving every step (a resumed driver) changes nothing.
        frozen = mig_payload(run(src, MigFreeze(MIG, LOW_UNIT, 1).encode()), FreezePayload)
        assert frozen.holders == ()
        mig_payload(run(dst, MigBegin(MIG, LOW_UNIT, 0).encode()))
        redone = mig_payload(run(dst, MigInstall(MIG, 0, b"").encode()), InstallPayload)
        assert not redone.applied
        mig_payload(run(dst, MigActivate(MIG, LOW_UNIT, 1).encode()))
        mig_payload(run(src, MigCommit(MIG, LOW_UNIT, 1, 1).encode()))
        assert b"v" in run(dst, Get(key).encode(), readonly=True)

    def test_install_gap_is_refused(self):
        src, dst = make_kv_app(0), make_kv_app(1)
        run(src, MigFreeze(MIG, LOW_UNIT, 1).encode())
        run(dst, MigBegin(MIG, LOW_UNIT, 0).encode())
        gap = decode_tx_reply(run(dst, MigInstall(MIG, 3, b"").encode()))
        assert type(gap) is ReplyErr

    def test_status_reports_phases(self):
        src, dst = make_kv_app(0), make_kv_app(1)
        status = lambda app: mig_payload(run(app, MigStatus(MIG).encode()), StatusPayload).phase
        assert status(src) == MIG_UNKNOWN
        run(src, MigFreeze(MIG, LOW_UNIT, 1).encode())
        assert status(src) == MIG_SRC_ACTIVE
        run(dst, MigBegin(MIG, LOW_UNIT, 0).encode())
        assert status(dst) == MIG_DST_ACTIVE
        run(dst, MigActivate(MIG, LOW_UNIT, 1).encode())
        assert status(dst) == MIG_OWNED
        run(src, MigCommit(MIG, LOW_UNIT, 1, 1).encode())
        assert status(src) == MIG_MOVED


class TestAbort:
    def test_abort_thaws_source_and_purges_destination(self):
        src, dst = make_kv_app(0), make_kv_app(1)
        key = key_in(0, HALF, "abort")
        run(src, encode_put(key, b"v"))
        run(src, MigFreeze(MIG, LOW_UNIT, 1).encode())
        run(dst, MigBegin(MIG, LOW_UNIT, 0).encode())
        chunk = mig_payload(run(src, MigExport(MIG, 0, 4096).encode()), ExportPayload).chunk
        run(dst, MigInstall(MIG, 0, chunk).encode())
        run(src, MigAbort(MIG).encode())
        run(dst, MigAbort(MIG).encode())
        # The source serves writes again; the half-copied data is gone
        # from the destination.
        assert run(src, encode_put(key, b"v2"))[:1] == b"\x01"
        assert run(dst, Get(key).encode(), readonly=True)[:1] == b"\x00"
        assert src.migrations() == {} and dst.migrations() == {}


class TestPersistence:
    def test_migration_state_survives_reload(self):
        state_src = PagedState(num_pages=24, page_size=512)
        state_dst = PagedState(num_pages=24, page_size=512)
        src = ShardTxApplication(
            KvApplication(num_slots=64, value_size=32), keys_of=keys_of_op,
            shard_id=0, tx_pages=4,
        )
        src.bind_state(state_src, 0)
        dst = ShardTxApplication(
            KvApplication(num_slots=64, value_size=32), keys_of=keys_of_op,
            shard_id=1, tx_pages=4,
        )
        dst.bind_state(state_dst, 0)
        key = key_in(0, HALF, "persist")
        run(src, encode_put(key, b"v"))
        migrate(src, dst)

        # A replica catching up via state transfer loads the same tables.
        src2 = ShardTxApplication(
            KvApplication(num_slots=64, value_size=32), keys_of=keys_of_op,
            shard_id=0, tx_pages=4,
        )
        src2.bind_state(state_src, 0)
        dst2 = ShardTxApplication(
            KvApplication(num_slots=64, value_size=32), keys_of=keys_of_op,
            shard_id=1, tx_pages=4,
        )
        dst2.bind_state(state_dst, 0)
        assert src2.moved_units() == {MIG: (LOW_UNIT, 1, 1)}
        assert dst2.owned_units() == {MIG: (LOW_UNIT, 1)}
        redirect = decode_tx_reply(run(src2, Get(key).encode(), readonly=True))
        assert type(redirect) is ReplyWrongShard
        assert b"v" in run(dst2, Get(key).encode(), readonly=True)

    def test_moved_facts_are_bounded(self):
        src = make_kv_app(0)
        dst = make_kv_app(1)
        src.moved_retain_limit = 4
        lo_step = HALF // 8
        for i in range(6):
            mig = (1000 + i).to_bytes(16, "big")
            unit = RangeUnit(i * lo_step, (i + 1) * lo_step)
            run(src, MigFreeze(mig, unit, 1).encode())
            run(src, MigCommit(mig, unit, 1, i + 1).encode())
        assert len(src.moved_units()) == 4
        # Oldest facts were evicted first.
        assert (1000).to_bytes(16, "big") not in src.moved_units()
        assert (1005).to_bytes(16, "big") in src.moved_units()
