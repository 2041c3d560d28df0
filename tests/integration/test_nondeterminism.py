"""Non-determinism validation on the cluster (paper section 2.5)."""

from repro.common.units import MILLISECOND, SECOND
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.nondet import TimeDeltaValidator


def make_cluster(recovery_aware: bool, seed=47):
    config = PbftConfig(
        num_clients=4,
        checkpoint_interval=16,
        log_window=32,
        # Signature mode isolates the section 2.5 effect: request replay
        # authenticates from public keys, so only the non-determinism
        # validator can stall it (MAC mode would stall on section 2.3's
        # missing session keys first).
        use_macs=False,
    )
    validators = []

    def factory():
        validator = TimeDeltaValidator(
            delta_ns=250 * MILLISECOND, recovery_aware=recovery_aware
        )
        validators.append(validator)
        return validator

    cluster = build_cluster(
        config, seed=seed, real_crypto=False, nondet_validator_factory=factory
    )
    return cluster, validators


def run_load(cluster, duration_ns):
    payload = bytes(128)

    def loop(client):
        def done(_r, _l):
            client.invoke(payload, callback=done)
        client.invoke(payload, callback=done)

    for client in cluster.clients:
        loop(client)
    cluster.run_for(duration_ns)


def test_normal_operation_passes_time_delta_validation():
    """'In the normal, fault-free lifetime of a request, the validation
    happens as soon as the Pre-Prepare message is received ... thus
    validating against a time delta is viable.'"""
    cluster, validators = make_cluster(recovery_aware=False)
    run_load(cluster, 1 * SECOND)
    cluster.stop_clients()
    assert cluster.total_completed() > 100
    assert all(v.rejections == 0 for v in validators)
    assert all(r.stats["nondet_rejections"] == 0 for r in cluster.replicas)


def test_replay_during_recovery_fails_naive_validation():
    """'When a request is replayed from the log during recovery, the time
    drift can be quite large and validating using a time delta will fail
    and impede the recovery process.'

    The scenario needs log entries *older than the delta* at replay time:
    traffic stops, the victim restarts after an idle gap, and the log tail
    beyond the last stable checkpoint is replayed with a large drift.
    """
    cluster, validators = make_cluster(recovery_aware=False)
    run_load(cluster, int(0.3 * SECOND))
    cluster.stop_clients()  # freeze the log tail
    victim = cluster.replicas[3]
    victim.crash()
    # Stay down long past the 250 ms validation delta.
    cluster.run_for(2 * SECOND)
    victim = cluster.restart(3)
    cluster.run_for(2 * SECOND)
    # The replayed batches were rejected by the time-delta validator, and
    # recovery is impeded: the victim is still behind the group.
    assert victim.stats["replay_nondet_failures"] > 0
    max_exec = max(r.last_exec for r in cluster.replicas if not r.crashed)
    assert victim.last_exec < max_exec


def test_recovery_aware_validator_fixes_replay():
    """The paper's proposed solution: 'completely skip non-deterministic
    data validation during recovery.'"""
    cluster, validators = make_cluster(recovery_aware=True)
    run_load(cluster, int(0.3 * SECOND))
    cluster.stop_clients()
    victim = cluster.replicas[3]
    victim.crash()
    cluster.run_for(2 * SECOND)
    victim = cluster.restart(3)
    cluster.run_for(2 * SECOND)
    assert victim.stats["replay_nondet_failures"] == 0
    max_exec = max(r.last_exec for r in cluster.replicas)
    assert victim.last_exec == max_exec  # fully caught up


def test_clock_skew_within_delta_tolerated():
    config = PbftConfig(num_clients=2, checkpoint_interval=16, log_window=32)
    cluster = build_cluster(
        config,
        seed=48,
        real_crypto=False,
        nondet_validator_factory=lambda: TimeDeltaValidator(250 * MILLISECOND),
        clock_skew_ns=50 * MILLISECOND,
    )
    run_load(cluster, 1 * SECOND)
    cluster.stop_clients()
    assert cluster.total_completed() > 100
    assert all(r.stats["nondet_rejections"] == 0 for r in cluster.replicas)
