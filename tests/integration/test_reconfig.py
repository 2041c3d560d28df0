"""Dynamic *replica* membership: ordered reconfiguration end to end.

Companion to tests/integration/test_membership.py (dynamic clients,
paper section 3): join/leave/replace of replica slots ordered through
the protocol, epoch installation at checkpoint boundaries, bootstrap of
a physically replaced machine, proactive recovery, and the membership
safety invariant under churn and packet loss.
"""

from repro.common.units import MILLISECOND, SECOND
from repro.faults import run_schedule
from repro.faults.invariants import check_agreement, check_membership_safety
from repro.faults.library import backup_markov_churn, replace_replica_under_loss
from repro.membership.messages import (
    RECONFIG_JOIN,
    RECONFIG_LEAVE,
    RECONFIG_REPLACE,
    encode_reconfig_op,
)
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.reconfig import (
    REPLY_RECONFIG_BUSY,
    REPLY_RECONFIG_OK,
    refresh_replica_keys,
)


def make_cluster(seed=11, **overrides):
    options = dict(
        num_clients=2,
        checkpoint_interval=8,
        log_window=16,
        max_node_entries=8,
    )
    options.update(overrides)
    return build_cluster(PbftConfig(**options), seed=seed, real_crypto=False)


def pad(cluster, ops, client=None):
    """Advance the sequence space with null ops."""
    client = client or cluster.clients[0]
    for _ in range(ops):
        cluster.invoke_and_wait(client, b"\x00pad")


def live(cluster):
    return [r for r in cluster.replicas if not r.crashed]


def assert_no_violations(cluster):
    violations = check_agreement(cluster) + check_membership_safety(cluster)
    assert violations == [], [v.detail for v in violations]


def test_replace_is_ordered_and_installs_at_boundary():
    cluster = make_cluster()
    pad(cluster, 3)
    reply = cluster.invoke_and_wait(
        cluster.clients[1], encode_reconfig_op(RECONFIG_REPLACE, 2)
    )
    assert reply == REPLY_RECONFIG_OK
    # Accepted but pending: nothing installed until the boundary.
    assert all(r.reconfig.epoch == 0 for r in cluster.replicas)
    pad(cluster, 8)  # cross the checkpoint boundary
    for replica in cluster.replicas:
        assert replica.reconfig.epoch == 1
        assert replica.reconfig.slots[2].incarnation == 1
        assert replica.reconfig.slots[2].changed_epoch == 1
        assert replica.current_epoch == 1
    # Every replica installed it at the same boundary.
    marks = {tuple(r.reconfig.epoch_marks) for r in cluster.replicas}
    assert len(marks) == 1
    assert_no_violations(cluster)


def test_second_reconfig_before_boundary_is_busy():
    cluster = make_cluster()
    assert (
        cluster.invoke_and_wait(
            cluster.clients[0], encode_reconfig_op(RECONFIG_LEAVE, 3)
        )
        == REPLY_RECONFIG_OK
    )
    # seq 2 < checkpoint_interval: the first op is still pending.
    assert (
        cluster.invoke_and_wait(
            cluster.clients[1], encode_reconfig_op(RECONFIG_REPLACE, 2)
        )
        == REPLY_RECONFIG_BUSY
    )
    pad(cluster, 8)
    assert all(not r.reconfig.slots[3].active for r in cluster.replicas)
    # Past the boundary the next reconfiguration is accepted again.
    assert (
        cluster.invoke_and_wait(
            cluster.clients[0], encode_reconfig_op(RECONFIG_JOIN, 3)
        )
        == REPLY_RECONFIG_OK
    )
    pad(cluster, 8)
    for replica in cluster.replicas:
        assert replica.reconfig.epoch == 2
        assert replica.reconfig.slots[3].active
        assert replica.reconfig.slots[3].incarnation == 1
    assert_no_violations(cluster)


def test_leave_then_rejoin_keeps_group_live():
    """A leave drops the group to 3 live slots (still >= 2f+1): ops keep
    completing, the departed slot's traffic is gated, and a later join
    restores it with a fresh incarnation."""
    cluster = make_cluster()
    assert (
        cluster.invoke_and_wait(
            cluster.clients[0], encode_reconfig_op(RECONFIG_LEAVE, 3)
        )
        == REPLY_RECONFIG_OK
    )
    pad(cluster, 10)
    for replica in cluster.replicas:
        assert not replica.reconfig.slots[3].active
        assert not replica.reconfig.admit_sender(3, replica.reconfig.epoch)
    cluster.replicas[3].crash()  # decommission the departed machine
    pad(cluster, 12)  # three remaining replicas keep making progress
    assert (
        cluster.invoke_and_wait(
            cluster.clients[0], encode_reconfig_op(RECONFIG_JOIN, 3)
        )
        == REPLY_RECONFIG_OK
    )
    pad(cluster, 8)
    assert all(r.reconfig.slots[3].active for r in live(cluster))
    # The new machine for the slot bootstraps from the group.
    refresh_replica_keys(cluster, 3)
    cluster.restart(3)
    pad(cluster, 4)
    cluster.run_for(1 * SECOND)
    rejoined = cluster.replicas[3]
    frontier = max(r.last_exec for r in live(cluster))
    assert rejoined.last_exec >= frontier - cluster.config.checkpoint_interval
    assert rejoined.reconfig.epoch == 2
    assert_no_violations(cluster)


def test_physical_replace_bootstraps_with_no_committed_loss():
    cluster = make_cluster()
    pad(cluster, 20)
    executed_before = cluster.replicas[0].stats["requests_executed"]
    assert (
        cluster.invoke_and_wait(
            cluster.clients[0], encode_reconfig_op(RECONFIG_REPLACE, 2)
        )
        == REPLY_RECONFIG_OK
    )
    pad(cluster, 8)
    replacement = cluster.replace_replica(2)
    pad(cluster, 16)
    cluster.run_for(1 * SECOND)
    assert not replacement.crashed and not replacement.recovering
    frontier = max(r.last_exec for r in cluster.replicas)
    assert replacement.last_exec >= frontier - cluster.config.checkpoint_interval
    assert replacement.reconfig.epoch == 1
    assert replacement.reconfig.slots[2].incarnation == 1
    # The group lost nothing across the swap.
    assert cluster.replicas[0].stats["requests_executed"] > executed_before
    assert_no_violations(cluster)


def test_reconfig_survives_view_change():
    """A primary crash between acceptance and the boundary must not fork
    the configuration: the pending op rides the view change and installs
    at the same boundary everywhere."""
    cluster = make_cluster(seed=13)
    pad(cluster, 2)
    assert (
        cluster.invoke_and_wait(
            cluster.clients[0], encode_reconfig_op(RECONFIG_REPLACE, 3)
        )
        == REPLY_RECONFIG_OK
    )
    cluster.replicas[0].crash()  # primary of view 0, mid-transition
    pad(cluster, 12, client=cluster.clients[1])
    survivors = live(cluster)
    assert all(r.view >= 1 for r in survivors)
    assert all(r.reconfig.epoch == 1 for r in survivors)
    marks = {tuple(r.reconfig.epoch_marks) for r in survivors}
    assert len(marks) == 1
    assert_no_violations(cluster)


def test_proactive_recovery_cycles_all_replicas():
    # Recoveries are staggered interval/n apart, so the interval must
    # leave each restarted replica a few status-gossip rounds to catch
    # up before the next slot goes down.  One full round: fires land at
    # interval + rid*interval/n, all within [600ms, 1200ms).
    cluster = make_cluster(
        seed=17,
        proactive_recovery_interval_ns=600 * MILLISECOND,
        status_interval_ns=30 * MILLISECOND,
        status_retry_ns=20 * MILLISECOND,
        client_retransmit_ns=60 * MILLISECOND,
        view_change_timeout_ns=250 * MILLISECOND,
    )
    for _ in range(10):
        pad(cluster, 2)
        cluster.run_for(120 * MILLISECOND)
        if all(r.stats["proactive_recoveries"] >= 1 for r in cluster.replicas):
            break
    cluster.recovery_scheduler.stop()
    cluster.run_for(500 * MILLISECOND)
    recoveries = [r.stats["proactive_recoveries"] for r in cluster.replicas]
    assert all(count >= 1 for count in recoveries)  # every slot refreshed
    # The group never lost liveness across the staggered restarts.
    pad(cluster, 4)
    assert_no_violations(cluster)


def test_proactive_recovery_mid_state_transfer():
    """A proactive restart of one replica while another is still pulling a
    checkpoint must not wedge either: the transfer retries against the
    remaining quorum and both converge."""
    cluster = make_cluster(seed=19)
    cluster.replicas[3].crash()
    pad(cluster, 40)  # push the frontier far past the log window
    cluster.restart(3)
    # Step until the state transfer is actually in flight.
    for _ in range(200):
        cluster.run_for(1 * MILLISECOND)
        if cluster.replicas[3].transfer is not None:
            break
    assert cluster.replicas[3].transfer is not None
    # Proactive recovery fires on replica 1 mid-transfer.
    refresh_replica_keys(cluster, 1)
    cluster.replicas[1].stats["proactive_recoveries"] += 1
    cluster.replicas[1].crash()
    cluster.restart(1)
    pad(cluster, 8)
    cluster.run_for(2 * SECOND)
    frontier = max(r.last_exec for r in cluster.replicas)
    for replica in cluster.replicas:
        assert not replica.crashed
        assert replica.last_exec >= frontier - cluster.config.checkpoint_interval
    assert_no_violations(cluster)


def test_replace_under_packet_loss_schedule():
    """The campaign schedule: 1% ambient loss across the swap window; all
    seven invariants (zero committed-op loss, membership safety) hold."""
    result = run_schedule(replace_replica_under_loss(), seed=3)
    assert result.ok, [v.detail for v in result.violations]
    assert result.completed_ops > 0


def test_markov_churn_schedule_membership_safety():
    result = run_schedule(backup_markov_churn(), seed=2)
    assert result.ok, [v.detail for v in result.violations]
    assert result.completed_ops > 0
