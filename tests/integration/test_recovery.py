"""Replica restart and recovery — the paper's section 2.3 experiment."""

import pytest

from repro.common.units import MILLISECOND, SECOND
from repro.harness.experiments import run_recovery_experiment
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig


def make_cluster(**overrides):
    options = dict(
        num_clients=4,
        checkpoint_interval=16,
        log_window=32,
        authenticator_rebroadcast_ns=int(0.4 * SECOND),
    )
    options.update(overrides)
    return build_cluster(PbftConfig(**options), seed=33, real_crypto=False)


def run_load(cluster, duration_ns):
    payload = bytes(256)

    def loop(client):
        def done(_r, _l):
            client.invoke(payload, callback=done)
        client.invoke(payload, callback=done)

    for client in cluster.clients:
        loop(client)
    cluster.run_for(duration_ns)


def test_crashed_replica_does_not_block_service():
    cluster = make_cluster()
    cluster.replicas[3].crash()
    run_load(cluster, 1 * SECOND)
    cluster.stop_clients()
    assert cluster.total_completed() > 100


def test_restart_recovers_from_stable_checkpoint_and_log_replay():
    cluster = make_cluster()
    run_load(cluster, int(0.3 * SECOND))
    victim = cluster.replicas[3]
    victim.crash()
    cluster.run_for(int(0.1 * SECOND))
    victim = cluster.restart(3)
    cluster.run_for(2 * SECOND)
    cluster.stop_clients()
    assert not victim.recovering
    max_exec = max(r.last_exec for r in cluster.replicas)
    assert max_exec - victim.last_exec <= cluster.config.checkpoint_interval


def test_mac_recovery_stalls_on_missing_authenticators():
    """Section 2.3: the restarted replica 'was unable to execute the few
    requests remaining in the log after that point, because they failed
    the authentication test.'"""
    result = run_recovery_experiment(
        use_macs=True, rebroadcast_interval_ns=1 * SECOND
    )
    assert result.caught_up
    assert result.replay_auth_failures > 0
    # The log tail never validates: with the group serving at full speed
    # the replica reaches it by checkpoint transfer, still keyless ...
    assert result.catch_up_time_ns < 250 * MILLISECOND
    # ... and validates client requests again only at the blind
    # rebroadcast: restarted at 0.25 s, keys re-sent at 1.0 s.
    assert result.recovery_time_ns > 200 * MILLISECOND
    assert abs(result.recovery_time_ns - 750 * MILLISECOND) <= 2 * MILLISECOND


def test_recovery_time_tracks_rebroadcast_interval():
    """'The only way to lower the time frame for this service interruption
    is to reduce the authenticator retransmission timeout.'"""
    short = run_recovery_experiment(
        use_macs=True, rebroadcast_interval_ns=int(0.4 * SECOND)
    )
    long = run_recovery_experiment(
        use_macs=True, rebroadcast_interval_ns=2 * SECOND
    )
    assert short.caught_up and long.caught_up
    assert short.replay_auth_failures > 0 and long.replay_auth_failures > 0
    assert long.recovery_time_ns > 2 * short.recovery_time_ns
    # Restarted at 0.25 s; the next rebroadcasts are at 0.4 s and 2.0 s.
    assert abs(short.recovery_time_ns - 150 * MILLISECOND) <= 2 * MILLISECOND
    assert abs(long.recovery_time_ns - 1750 * MILLISECOND) <= 2 * MILLISECOND
    # With its keys back inside the view-change timeout the replica goes
    # straight back to executing requests through agreement.
    assert short.resumed_execution and short.final_lag <= 2


def test_signature_mode_recovers_immediately():
    """With signatures, public keys are static knowledge: replay validates
    at once and recovery does not stall."""
    result = run_recovery_experiment(use_macs=False, rebroadcast_interval_ns=1 * SECOND)
    assert result.caught_up
    assert result.replay_auth_failures == 0
    assert result.recovery_time_ns < 100 * MILLISECOND
    assert result.resumed_execution


def test_restarted_replica_rejoins_agreement():
    cluster = make_cluster()
    run_load(cluster, int(0.3 * SECOND))
    victim = cluster.replicas[2]
    victim.crash()
    cluster.run_for(int(0.2 * SECOND))
    victim = cluster.restart(2)
    cluster.run_for(2 * SECOND)
    executed_at_restart = victim.stats["requests_executed"]
    cluster.run_for(1 * SECOND)
    cluster.stop_clients()
    # It executes new traffic again, not only replays.
    assert victim.stats["requests_executed"] > executed_at_restart


def test_state_roots_converge_after_recovery():
    cluster = make_cluster()
    run_load(cluster, int(0.3 * SECOND))
    victim = cluster.replicas[3]
    victim.crash()
    cluster.run_for(int(0.2 * SECOND))
    victim = cluster.restart(3)
    cluster.run_for(2 * SECOND)
    cluster.stop_clients()
    cluster.run_for(1 * SECOND)  # drain
    # Compare at the last common stable checkpoint.
    stable = min(r.checkpoints.stable_seq for r in cluster.replicas)
    roots = set()
    for replica in cluster.replicas:
        checkpoint = replica.checkpoints.get(stable)
        if checkpoint is not None:
            roots.add(checkpoint.root)
    assert len(roots) == 1
