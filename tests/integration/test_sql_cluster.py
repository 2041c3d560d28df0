"""The SQL state abstraction running under PBFT (paper section 3.2)."""

import pytest

from repro.apps.sqlapp import SqlApplication, decode_rows_reply, encode_sql_op
from repro.common.errors import SqlError
from repro.common.units import MILLISECOND, SECOND
from repro.net.fabric import DropRule
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig

SCHEMA = (
    "CREATE TABLE votes (id INTEGER PRIMARY KEY, voter TEXT NOT NULL UNIQUE, "
    "vote TEXT NOT NULL, cast_at INTEGER NOT NULL, receipt BLOB NOT NULL);"
)


def make_cluster(acid=True, **overrides):
    options = dict(num_clients=3, checkpoint_interval=8, log_window=16)
    options.update(overrides)
    return build_cluster(
        PbftConfig(**options),
        seed=41,
        app_factory=lambda: SqlApplication(schema_sql=SCHEMA, acid=acid),
    )


def insert_op(voter, vote="yes"):
    return encode_sql_op(
        "INSERT INTO votes (voter, vote, cast_at, receipt) "
        "VALUES (?, ?, now(), randomblob(8))",
        (voter, vote),
    )


def test_insert_through_the_cluster():
    cluster = make_cluster()
    reply = cluster.invoke_and_wait(cluster.clients[0], insert_op("alice"))
    assert decode_rows_reply(reply) == 1


def test_select_sees_ordered_inserts():
    cluster = make_cluster()
    for i, name in enumerate(["alice", "bob", "carol"]):
        cluster.invoke_and_wait(cluster.clients[i], insert_op(name, f"c{i}"))
    reply = cluster.invoke_and_wait(
        cluster.clients[0],
        encode_sql_op("SELECT voter, vote FROM votes ORDER BY id"),
    )
    assert decode_rows_reply(reply) == [
        ("alice", "c0"), ("bob", "c1"), ("carol", "c2")
    ]


def test_replies_identical_despite_timestamp_and_random():
    """The paper's section 4.2 check: 'We purposefully added the timestamp
    and random value to test that replies are indeed identical across all
    replicas' — the client quorum would never complete otherwise."""
    cluster = make_cluster()
    reply = cluster.invoke_and_wait(cluster.clients[0], insert_op("dana"))
    assert decode_rows_reply(reply) == 1
    rows = decode_rows_reply(
        cluster.invoke_and_wait(
            cluster.clients[0],
            encode_sql_op("SELECT cast_at, hex(receipt) FROM votes WHERE voter='dana'"),
        )
    )
    assert len(rows) == 1
    ts, receipt = rows[0]
    assert ts > 0 and len(receipt) == 16
    roots = {r.state.refresh_tree() for r in cluster.replicas}
    assert len(roots) == 1


def test_readonly_select_uses_fast_path():
    cluster = make_cluster()
    cluster.invoke_and_wait(cluster.clients[0], insert_op("erin"))
    seqs = [r.next_seq for r in cluster.replicas]
    rows = decode_rows_reply(
        cluster.invoke_and_wait(
            cluster.clients[1],
            encode_sql_op("SELECT COUNT(*) FROM votes"),
            readonly=True,
        )
    )
    assert rows == [(1,)]
    assert [r.next_seq for r in cluster.replicas] == seqs


def test_constraint_violation_is_a_deterministic_reply():
    cluster = make_cluster()
    cluster.invoke_and_wait(cluster.clients[0], insert_op("frank"))
    reply = cluster.invoke_and_wait(cluster.clients[1], insert_op("frank"))
    with pytest.raises(SqlError, match="UNIQUE"):
        decode_rows_reply(reply)
    # The failed insert must not diverge the replicas.
    roots = {r.state.refresh_tree() for r in cluster.replicas}
    assert len(roots) == 1


def test_database_survives_replica_restart():
    """Durability through the PBFT checkpoint + the engine's reopen path."""
    cluster = make_cluster()
    for i in range(10):
        cluster.invoke_and_wait(cluster.clients[i % 3], insert_op(f"v{i}"))
    victim = cluster.replicas[3]
    victim.crash()
    cluster.run_for(int(0.1 * SECOND))
    victim.restart()
    cluster.run_for(2 * SECOND)
    # The restarted replica answers queries over the recovered database.
    reply = victim.app.execute(
        encode_sql_op("SELECT COUNT(*) FROM votes"), 0, 0, True
    )
    count = decode_rows_reply(reply)[0][0]
    assert count >= 8  # at least the stable-checkpoint prefix


def test_sql_state_transfer_brings_lagging_replica_forward():
    from repro.net.fabric import DropRule

    cluster = make_cluster(checkpoint_interval=8, log_window=16)
    # Starve replica 3 of all request bodies for a while.
    rule = DropRule(
        lambda p: p.kind == "Request" and p.dst[0] == "replica3",
        count=5,
        name="starve",
    )
    cluster.fabric.add_drop_rule(rule)
    for i in range(20):
        cluster.invoke_and_wait(
            cluster.clients[i % 3], insert_op(f"w{i}"), max_wait_ns=5 * SECOND
        )
    cluster.run_for(2 * SECOND)
    victim = cluster.replicas[3]
    max_exec = max(r.last_exec for r in cluster.replicas)
    assert max_exec - victim.last_exec <= cluster.config.checkpoint_interval
    reply = victim.app.execute(encode_sql_op("SELECT COUNT(*) FROM votes"), 0, 0, True)
    assert decode_rows_reply(reply)[0][0] >= 12


def test_noacid_mode_runs_and_agrees():
    cluster = make_cluster(acid=False)
    for i in range(6):
        cluster.invoke_and_wait(cluster.clients[i % 3], insert_op(f"n{i}"))
    rows = decode_rows_reply(
        cluster.invoke_and_wait(
            cluster.clients[0], encode_sql_op("SELECT COUNT(*) FROM votes")
        )
    )
    assert rows == [(6,)]
    roots = {r.state.refresh_tree() for r in cluster.replicas}
    assert len(roots) == 1


def test_update_and_aggregate_queries_through_cluster():
    cluster = make_cluster()
    for i in range(6):
        cluster.invoke_and_wait(
            cluster.clients[i % 3], insert_op(f"u{i}", "yes" if i % 2 else "no")
        )
    count = decode_rows_reply(
        cluster.invoke_and_wait(
            cluster.clients[0],
            encode_sql_op("UPDATE votes SET vote = 'abstain' WHERE vote = 'no'"),
        )
    )
    assert count == 3
    tally = decode_rows_reply(
        cluster.invoke_and_wait(
            cluster.clients[1],
            encode_sql_op(
                "SELECT vote, COUNT(*) FROM votes GROUP BY vote ORDER BY vote"
            ),
        )
    )
    assert tally == [("abstain", 3), ("yes", 3)]


def test_rollback_before_the_first_checkpoint_keeps_the_database():
    """A view change before any checkpoint is stable rolls every replica
    back to genesis, stable checkpoint 0: the post-bind image with the
    schema in it, not all-zero pages."""
    cluster = build_cluster(
        PbftConfig(num_clients=4),
        seed=3,
        app_factory=lambda: SqlApplication(schema_sql=SCHEMA),
    )
    sim = cluster.sim
    heal = 300 * MILLISECOND
    # Every Commit is lost for a while: batches only execute tentatively,
    # and the primary is deposed before a checkpoint can stabilize.
    cluster.fabric.add_drop_rule(DropRule(
        lambda p: p.kind == "Commit" and 2 * MILLISECOND <= sim.now < heal,
        name="drop-commits",
    ))
    outcomes = {"ok": 0, "failed": 0}
    issued = [0]

    def insert_until(client, stop):
        issued[0] += 1

        def done(reply, _latency):
            if sim.now >= heal:
                try:
                    decode_rows_reply(reply)
                    outcomes["ok"] += 1
                except SqlError:
                    outcomes["failed"] += 1
            if sim.now < stop:
                insert_until(client, stop)

        client.invoke(insert_op(f"voter{issued[0]}"), callback=done)

    for client in cluster.clients:
        insert_until(client, 800 * MILLISECOND)
    cluster.run_for(SECOND)
    assert all(r.stats["rollbacks"] >= 1 and r.view > 0 for r in cluster.replicas)
    assert [r.app.db.table_names() for r in cluster.replicas] == [["votes"]] * 4
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1
    assert outcomes["ok"] > 100 and outcomes["failed"] == 0


def test_statement_past_max_depth_is_answered_alike_everywhere():
    cluster = make_cluster()
    client = cluster.clients[0]
    too_deep = "SELECT " + "(" * 200 + "1" + ")" * 200
    reply = cluster.invoke_and_wait(client, encode_sql_op(too_deep))
    with pytest.raises(SqlError, match="expression tree is too large"):
        decode_rows_reply(reply)
    answers = {r.reqstore.cached_reply(client.node_id).result for r in cluster.replicas}
    assert answers == {reply}
    # The group keeps ordering and executing.
    assert decode_rows_reply(cluster.invoke_and_wait(client, insert_op("after"))) == 1
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1


def test_wide_from_list_is_answered_alike_everywhere():
    """A FROM list past the engine's join cap used to raise
    RecursionError out of ordered execution at every replica."""
    cluster = make_cluster()
    client = cluster.clients[0]
    wide = "SELECT count(*) FROM " + ", ".join(f"votes v{i}" for i in range(900))
    reply = cluster.invoke_and_wait(client, encode_sql_op(wide))
    with pytest.raises(SqlError, match="at most 64 tables in a join"):
        decode_rows_reply(reply)
    answers = {r.reqstore.cached_reply(client.node_id).result for r in cluster.replicas}
    assert answers == {reply}
    # The group keeps ordering and executing.
    assert decode_rows_reply(cluster.invoke_and_wait(client, insert_op("after"))) == 1
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1
