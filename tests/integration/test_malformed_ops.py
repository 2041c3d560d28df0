"""An ordered operation nobody can decode is answered, not fatal.

By the time an executor looks inside ``Request.op`` the request has a
sequence number at every correct replica: an exception there used to
leave the event loop at all of them.  Each op below did exactly that.
"""

import pytest

from repro.apps.kvstore import Get, KvApplication, encode_put, keys_of_op
from repro.apps.sqlapp import (
    SqlApplication, SqlFailure, SqlOp, decode_sql_op, encode_sql_op, tables_of_sql,
)
from repro.common.errors import SqlSyntaxError
from repro.common.units import SECOND
from repro.membership import join_client
from repro.membership.manager import REPLY_DENIED
from repro.membership.messages import Join2Payload
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.replica import REPLY_MALFORMED_OP
from repro.shard.txapp import (
    MigExport, MigFreeze, RangeUnit, ReplyErr, ReplyMig, ReplyOk, ShardTxApplication,
    TableUnit, TxCommit, TxPrepare, decode_tx_reply,
)
from repro.sqlstate.engine import Database

JOIN2_BAD_UTF8_HOST = Join2Payload(
    temp_client=1, pubkey_n=b"\x01" * 8, nonce=b"n", response=bytes(16),
    idbuf=b"user:9", session_keys=(), host="h", port=1,
).encode().replace(b"\x00\x00\x00\x01h", b"\x00\x00\x00\x01\xff")


def joined_cluster():
    cluster = build_cluster(PbftConfig(dynamic_clients=True, num_clients=2), seed=5)
    for app in cluster.apps:
        app.authorize_join = lambda idbuf: int(idbuf[5:])
    rng = cluster.rng.stream("test-joins")
    for i, client in enumerate(cluster.clients):
        join_client(client, f"user:{i}".encode(), rng)
    cluster.run_for(2 * SECOND)
    assert all(client.joined for client in cluster.clients)
    return cluster


def check_answered_everywhere(cluster, op, expected, stat):
    sender, other = cluster.clients
    assert cluster.invoke_and_wait(sender, op) == expected
    cluster.run_for(SECOND // 10)  # let the slowest replica execute it too
    replies = {r.reqstore.last_reply[sender.node_id].result for r in cluster.replicas}
    assert replies == {expected}
    assert [r.stats[stat] for r in cluster.replicas] == [1] * 4
    return other


@pytest.mark.parametrize(
    "op",
    [b"\xff\x01garbage", b"\xff\x07", b"\xff", JOIN2_BAD_UTF8_HOST],
    ids=["truncated-join2", "unknown-kind", "prefix-only", "join2-host-not-utf8"],
)
def test_malformed_system_op_is_denied_by_every_replica_and_the_group_goes_on(op):
    cluster = joined_cluster()
    other = check_answered_everywhere(cluster, op, REPLY_DENIED, "joins_malformed")
    assert len(cluster.invoke_and_wait(other, b"\x00next")) == 1024
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1
    assert len({tuple(sorted(r.membership.table)) for r in cluster.replicas}) == 1


def test_truncated_kv_put_is_answered_by_every_replica_and_the_group_goes_on():
    cluster = build_cluster(PbftConfig(num_clients=2), seed=5, app_factory=KvApplication)
    cluster.invoke_and_wait(cluster.clients[0], encode_put(b"k", b"before"))
    other = check_answered_everywhere(
        cluster, b"\x01\x00\x00", REPLY_MALFORMED_OP, "malformed_ops"
    )
    assert cluster.invoke_and_wait(other, Get(b"k").encode()).endswith(b"before")
    # The read-only fast path executes without ordering; same answer there.
    assert cluster.invoke_and_wait(other, b"\x02\x00", readonly=True) == REPLY_MALFORMED_OP
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1


# -- the ten ops of PR 24: each raised out of every replica's event loop ----------


def sql_op(record: bytes, sql: bytes = b"SELECT 1") -> bytes:
    """A SQL op packed by hand: the tag, the text, a parameter record."""
    return b"\x01" + len(sql).to_bytes(4, "big") + sql + len(record).to_bytes(4, "big") + record


@pytest.mark.parametrize(
    "op",
    [
        b"\x02" + encode_sql_op("SELECT 1")[1:],
        sql_op(b"\x00", sql=b"SELECT \xff"),
        sql_op(b"\t"),
        sql_op(b"\xff" * 9),
        sql_op(b""),
    ],
    ids=["wrong-tag", "text-not-utf8", "record-short", "record-bad-tag", "record-empty"],
)
def test_malformed_sql_op_is_answered_by_every_replica_and_the_group_goes_on(op):
    schema = "CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT);"
    cluster = build_cluster(
        PbftConfig(num_clients=2), seed=5, app_factory=lambda: SqlApplication(schema_sql=schema)
    )
    assert SqlOp("SELECT 1", b"\x00").encode() == sql_op(b"\x00")  # the hand packing is honest
    other = check_answered_everywhere(cluster, op, REPLY_MALFORMED_OP, "malformed_ops")
    insert = encode_sql_op("INSERT INTO t VALUES (?, ?)", (1, "next"))
    assert cluster.invoke_and_wait(other, insert) == b"\x02" + (1).to_bytes(8, "big")
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1


def test_unparseable_sql_is_answered_with_the_parse_error_by_every_replica():
    """SQL the engine cannot parse has no lock keys at a shard's replicas;
    the op reaches the engine, whose parse error is every replica's answer."""
    schema = "CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT);"

    def lock_keys(op):
        return tuple(f"table:{t}".encode() for t in tables_of_sql(decode_sql_op(op)[0]))

    cluster = build_cluster(
        PbftConfig(num_clients=2), seed=5,
        app_factory=lambda: ShardTxApplication(SqlApplication(schema_sql=schema), lock_keys),
    )
    sender, other = cluster.clients
    with pytest.raises(SqlSyntaxError) as parse_error:
        Database().execute("SELEC v FROM t")
    expected = SqlFailure(str(parse_error.value)).encode()
    assert cluster.invoke_and_wait(sender, encode_sql_op("SELEC v FROM t")) == expected
    cluster.run_for(SECOND // 10)
    assert {r.reqstore.last_reply[sender.node_id].result for r in cluster.replicas} == {expected}
    insert = encode_sql_op("INSERT INTO t VALUES (?, ?)", (1, "next"))
    assert cluster.invoke_and_wait(other, insert) == b"\x02" + (1).to_bytes(8, "big")
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1


def shard_group(num_slots: int = 64, tx_pages: int = 1):
    """One PBFT group whose application is a shard's: what a router's (or
    anybody's) ``PbftClient`` reaches."""
    def app():
        return ShardTxApplication(
            KvApplication(num_slots=num_slots, value_size=16), keys_of_op, tx_pages=tx_pages
        )
    return build_cluster(PbftConfig(num_clients=2), seed=5, app_factory=app)


def shard_stat(cluster, name: str) -> list[int]:
    return [cluster.obs.registry.view(f"{r.host.name}.shard.")[name] for r in cluster.replicas]


def check_group_goes_on(cluster, client, key: bytes = b"after") -> None:
    assert cluster.invoke_and_wait(client, encode_put(key, b"next")) == b"\x01OK"
    cluster.run_for(SECOND // 10)
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1


def test_migration_freeze_of_an_unknown_unit_kind_is_malformed():
    cluster = shard_group()
    freeze = MigFreeze(bytes(16), RangeUnit(0, 1), 1).encode()
    op = freeze[:17] + b"\x07" + freeze[18:]
    other = check_answered_everywhere(cluster, op, REPLY_MALFORMED_OP, "malformed_ops")
    check_group_goes_on(cluster, other)
    assert all(r.app.migrations() == {} for r in cluster.replicas)


def test_prepare_of_an_undecodable_inner_op_takes_no_lock_and_commit_applies_nothing():
    cluster = shard_group()
    txid = bytes(15) + b"\x01"
    prepare = TxPrepare(txid, 0, (0,), (encode_put(b"k", b"v"), b"\x01\x00\x00"), (b"k",))
    other = check_answered_everywhere(
        cluster, prepare.encode(), REPLY_MALFORMED_OP, "malformed_ops"
    )
    commit = cluster.invoke_and_wait(other, TxCommit(txid).encode())
    assert decode_tx_reply(commit) == ReplyErr("commit for unprepared transaction")
    assert cluster.invoke_and_wait(other, Get(b"k").encode()) == b"\x00MISS"  # no prefix applied
    check_group_goes_on(cluster, other, key=b"k")  # ...and no lock left behind
    assert all(r.app.prepared_txids() == () for r in cluster.replicas)


def test_a_full_kv_store_refuses_the_put_at_every_replica():
    cluster = build_cluster(
        PbftConfig(num_clients=2), seed=5, app_factory=lambda: KvApplication(num_slots=8)
    )
    sender, other = cluster.clients
    for n in range(8):
        assert cluster.invoke_and_wait(sender, encode_put(b"key%d" % n, b"v")) == b"\x01OK"
    full = b"\x00ERR kv store is full"
    assert cluster.invoke_and_wait(sender, encode_put(b"ninth", b"v")) == full
    cluster.run_for(SECOND // 10)
    assert {r.reqstore.last_reply[sender.node_id].result for r in cluster.replicas} == {full}
    assert [r.app.puts for r in cluster.replicas] == [8] * 4
    assert cluster.invoke_and_wait(other, Get(b"ninth").encode(), readonly=True) == b"\x00MISS"
    assert cluster.invoke_and_wait(other, encode_put(b"key3", b"next")) == b"\x01OK"
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1


def test_tx_table_overflow_is_refused_with_locks_and_pages_as_before():
    cluster = shard_group(tx_pages=1)
    sender, other = cluster.clients
    replies = []
    for n in range(1, 4):
        key = bytes([n]) * 3000
        prepare = TxPrepare(bytes(15) + bytes([n]), 0, (0,), (encode_put(b"k", b"v"),), (key,))
        replies.append(decode_tx_reply(cluster.invoke_and_wait(sender, prepare.encode())))
    assert [type(reply) for reply in replies] == [ReplyOk, ReplyErr, ReplyErr]
    assert "overflows its 4096-byte reservation" in replies[1].message
    cluster.run_for(SECOND // 10)
    assert shard_stat(cluster, "refusals") == [2] * 4
    assert all(r.app.prepared_txids() == (bytes(15) + b"\x01",) for r in cluster.replicas)
    # The refused prepares hold no lock: their keys are plain keys again.
    assert cluster.invoke_and_wait(other, encode_put(b"\x02" * 3000, b"v")) == b"\x01OK"
    check_group_goes_on(cluster, other)


def test_export_of_a_unit_the_application_cannot_move_is_refused():
    cluster = shard_group()
    sender, other = cluster.clients
    mig = bytes(15) + b"\x09"
    frozen = cluster.invoke_and_wait(sender, MigFreeze(mig, TableUnit("accounts"), 1).encode())
    assert type(decode_tx_reply(frozen)) is ReplyMig
    refusal = ReplyErr("kv stores migrate key ranges, not tables").encode()
    assert cluster.invoke_and_wait(sender, MigExport(mig, 0, 2048).encode()) == refusal
    cluster.run_for(SECOND // 10)
    assert {r.reqstore.last_reply[sender.node_id].result for r in cluster.replicas} == {refusal}
    assert shard_stat(cluster, "refusals") == [1] * 4
    check_group_goes_on(cluster, other)
