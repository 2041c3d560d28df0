"""An ordered operation nobody can decode is answered, not fatal.

By the time an executor looks inside ``Request.op`` the request has a
sequence number at every correct replica: an exception there used to
leave the event loop at all of them.  Each op below did exactly that.
"""

import pytest

from repro.apps.kvstore import KvApplication, encode_get, encode_put
from repro.common.units import SECOND
from repro.membership import join_client
from repro.membership.manager import REPLY_DENIED
from repro.membership.messages import Join2Payload
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.replica import REPLY_MALFORMED_OP

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
    assert cluster.invoke_and_wait(other, encode_get(b"k")).endswith(b"before")
    # The read-only fast path executes without ordering; same answer there.
    assert cluster.invoke_and_wait(other, b"\x02\x00", readonly=True) == REPLY_MALFORMED_OP
    assert len({r.state.refresh_tree() for r in cluster.replicas}) == 1
