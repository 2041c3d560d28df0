"""Whole-cluster restart: recovery from durable checkpoints alone."""

from repro.apps.sqlapp import SqlApplication, decode_rows_reply, encode_sql_op
from repro.common.units import SECOND
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig


def test_all_replicas_restart_and_resume():
    cluster = build_cluster(
        PbftConfig(num_clients=3, checkpoint_interval=8, log_window=16),
        seed=151,
        real_crypto=False,
    )
    for i in range(12):  # past a checkpoint
        cluster.invoke_and_wait(cluster.clients[i % 3], bytes([0, i]))
    stable_before = min(r.checkpoints.stable_seq for r in cluster.replicas)
    assert stable_before >= 8

    for replica in cluster.replicas:
        replica.crash()
    cluster.run_for(int(0.2 * SECOND))
    for slot in range(len(cluster.replicas)):
        cluster.restart(slot)
    cluster.run_for(1 * SECOND)

    # The group resumes from its durable prefix and serves new requests.
    result = cluster.invoke_and_wait(
        cluster.clients[0], b"\x00after-reboot", max_wait_ns=10 * SECOND
    )
    assert len(result) == 1024
    roots = {r.state.refresh_tree() for r in cluster.replicas}
    assert len(roots) == 1


def test_sql_database_survives_full_reboot():
    schema = "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);"
    cluster = build_cluster(
        PbftConfig(num_clients=3, checkpoint_interval=4, log_window=8),
        seed=152,
        app_factory=lambda: SqlApplication(schema_sql=schema),
    )
    for i in range(8):
        cluster.invoke_and_wait(
            cluster.clients[i % 3],
            encode_sql_op("INSERT INTO t (v) VALUES (?)", (f"row{i}",)),
        )
    for replica in cluster.replicas:
        replica.crash()
    cluster.run_for(int(0.2 * SECOND))
    for slot in range(len(cluster.replicas)):
        cluster.restart(slot)
    cluster.run_for(1 * SECOND)
    rows = decode_rows_reply(
        cluster.invoke_and_wait(
            cluster.clients[0],
            encode_sql_op("SELECT COUNT(*) FROM t"),
            max_wait_ns=10 * SECOND,
        )
    )
    # Everything up to the last stable checkpoint survived (the tail past
    # it was volatile, exactly as the checkpointed durability model says).
    assert rows[0][0] >= 4
