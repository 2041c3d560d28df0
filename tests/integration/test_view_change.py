"""View changes: deposing a crashed or silent primary."""

import pytest

from repro.common.units import MILLISECOND, SECOND
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig


def make_cluster(**overrides):
    options = dict(
        num_clients=3,
        checkpoint_interval=8,
        log_window=16,
        view_change_timeout_ns=200 * MILLISECOND,
        client_retransmit_ns=80 * MILLISECOND,
    )
    options.update(overrides)
    return build_cluster(PbftConfig(**options), seed=21)


def test_primary_crash_triggers_view_change_and_service_continues():
    cluster = make_cluster()
    cluster.invoke_and_wait(cluster.clients[0], b"\x00before")
    cluster.replicas[0].crash()  # the view-0 primary
    result = cluster.invoke_and_wait(
        cluster.clients[1], b"\x00after", max_wait_ns=5 * SECOND
    )
    assert len(result) == 1024
    live_views = {r.view for r in cluster.replicas if not r.crashed}
    assert live_views == {1}
    assert cluster.replicas[1].is_primary


def test_requests_in_flight_at_crash_still_execute():
    cluster = make_cluster()
    done = []
    for i, client in enumerate(cluster.clients):
        client.invoke(bytes([0, i]), callback=lambda r, l: done.append(1))
    cluster.replicas[0].crash()  # crash before anything commits
    cluster.run_for(5 * SECOND)
    assert len(done) == 3


def test_consecutive_primary_crashes():
    cluster = make_cluster()
    cluster.invoke_and_wait(cluster.clients[0], b"\x00a")
    cluster.replicas[0].crash()
    cluster.invoke_and_wait(cluster.clients[0], b"\x00b", max_wait_ns=5 * SECOND)
    cluster.replicas[1].crash()
    # f=1: two crashed replicas exceed the fault budget for liveness with
    # 4 replicas... but the remaining two cannot commit.  Restart one.
    cluster.restart(0)
    result = cluster.invoke_and_wait(
        cluster.clients[1], b"\x00c", max_wait_ns=10 * SECOND
    )
    assert len(result) == 1024


def test_state_consistent_after_view_change():
    cluster = make_cluster()
    for i in range(10):
        cluster.invoke_and_wait(cluster.clients[i % 3], bytes([0, i]))
    cluster.replicas[0].crash()
    for i in range(10):
        cluster.invoke_and_wait(
            cluster.clients[i % 3], bytes([0, 100 + i]), max_wait_ns=5 * SECOND
        )
    roots = {r.state.refresh_tree() for r in cluster.replicas if not r.crashed}
    assert len(roots) == 1


def test_executed_requests_not_reexecuted_across_view_change():
    cluster = make_cluster()
    client = cluster.clients[0]
    cluster.invoke_and_wait(client, b"\x00keep")
    executed = {
        r.node_id: r.stats["requests_executed"] for r in cluster.replicas[1:]
    }
    cluster.replicas[0].crash()
    cluster.invoke_and_wait(client, b"\x00next", max_wait_ns=5 * SECOND)
    for replica in cluster.replicas[1:]:
        # Exactly one more execution (the new request), no replays.
        assert replica.stats["requests_executed"] == executed[replica.node_id] + 1


def test_healthy_cluster_under_load_stays_in_view_zero():
    cluster = make_cluster()
    done = []

    def loop(client):
        def cb(r, l):
            done.append(1)
            client.invoke(b"\x00more", callback=cb)
        client.invoke(b"\x00more", callback=cb)

    for client in cluster.clients:
        loop(client)
    cluster.run_for(3 * SECOND)
    cluster.stop_clients()
    assert all(r.view == 0 for r in cluster.replicas)
    assert all(r.stats["view_changes_started"] == 0 for r in cluster.replicas)
    assert len(done) > 100


def test_view_change_timer_exponential_backoff_reaches_working_primary():
    """With replicas 0 AND 1 silent from the start, the cluster cannot
    commit (only 2 of 4 left); after replica 1 alone is silent the group
    must skip past it if 0 is also the failed primary — exercised by
    crashing 0 (primary of view 0) and 1 (primary of view 1) around a
    restart."""
    cluster = make_cluster()
    cluster.invoke_and_wait(cluster.clients[0], b"\x00warm")
    cluster.replicas[1].crash()  # future primary of view 1
    cluster.replicas[0].crash()  # current primary
    cluster.restart(1)
    cluster.run_for(1 * SECOND)
    result = cluster.invoke_and_wait(
        cluster.clients[2], b"\x00go", max_wait_ns=20 * SECOND
    )
    assert len(result) == 1024
    views = {r.view for r in cluster.replicas if not r.crashed}
    assert len(views) == 1


def test_stale_queued_digest_does_not_block_resubmission_after_view_change():
    """Regression: the incoming primary rebuilds its batching queue.

    Before the fix, a new primary carried its old ``queued_digests`` set
    across the view boundary; any stale entry (left over from a batch the
    new view re-proposed, or planted by an earlier life as primary)
    permanently blocked that request's re-submission, because admission
    drops requests whose digest is already marked queued.
    """
    from repro.pbft.messages import Request

    cluster = make_cluster()
    client = cluster.clients[0]
    cluster.invoke_and_wait(client, b"\x00warm")

    # The exact request the client will submit next.
    op = b"\x00next"
    upcoming = Request(
        client=client.node_id,
        req_id=client.next_req_id + 1,
        op=op,
        big=cluster.config.is_big(len(op)),
    )
    incoming_primary = cluster.replicas[1]
    incoming_primary.queued_digests.add(upcoming.digest)  # stale leftover

    cluster.replicas[0].crash()  # depose view 0; replica1 takes over
    result = cluster.invoke_and_wait(client, op, max_wait_ns=5 * SECOND)
    assert len(result) == 1024
    assert incoming_primary.is_primary
