"""Experiment drivers — one per paper artifact (see DESIGN.md section 3)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.units import MILLISECOND, SECOND
from repro.harness.configs import (
    FIG5_CONFIGS,
    TABLE1_CONFIGS,
    ConfigRow,
    build_config,
)
from repro.harness.measure import Measurement, run_null_workload, run_sql_workload
from repro.net.fabric import DropRule
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.replica import NullApplication


# ==== E1: Table 1 =====================================================================


def run_table1(
    payload_size: int = 1024,
    warmup_s: float = 0.2,
    measure_s: float = 0.5,
    seed: int = 3,
    rows: tuple[ConfigRow, ...] = TABLE1_CONFIGS,
) -> list[tuple[ConfigRow, Measurement]]:
    """Null-op TPS for every library configuration of the paper's Table 1."""
    results = []
    for row in rows:
        config = build_config(row)
        measurement = run_null_workload(
            config,
            name=row.name,
            payload_size=payload_size,
            warmup_s=warmup_s,
            measure_s=measure_s,
            seed=seed,
        )
        results.append((row, measurement))
    return results


# ==== E2: Figure 4 ====================================================================


def run_fig4_size_sweep(
    sizes: tuple[int, ...] = (256, 1024, 2048, 4096),
    rows: tuple[ConfigRow, ...] = TABLE1_CONFIGS,
    warmup_s: float = 0.2,
    measure_s: float = 0.4,
    seed: int = 3,
) -> dict[int, list[tuple[ConfigRow, Measurement]]]:
    """Figure 4: the configuration matrix swept over payload sizes.

    "The results for varying request and response sizes are similar" —
    the assertion the benchmark checks is exactly that similarity of
    *shape* across sizes.
    """
    return {
        size: run_table1(
            payload_size=size, warmup_s=warmup_s, measure_s=measure_s,
            seed=seed, rows=rows,
        )
        for size in sizes
    }


# ==== E3: Figure 5 ====================================================================


def run_fig5_sql(
    warmup_s: float = 0.3,
    measure_s: float = 1.0,
    seed: int = 3,
    rows: tuple[ConfigRow, ...] = FIG5_CONFIGS,
) -> list[tuple[ConfigRow, Measurement]]:
    """SQL insert TPS across configurations (batching on, ACID on)."""
    results = []
    for row in rows:
        config = build_config(row)
        measurement = run_sql_workload(
            config, name=row.name, acid=True,
            warmup_s=warmup_s, measure_s=measure_s, seed=seed,
        )
        results.append((row, measurement))
    return results


# ==== E4: ACID vs No-ACID ==============================================================


def run_acid_comparison(
    warmup_s: float = 0.3,
    measure_s: float = 1.0,
    seed: int = 3,
) -> tuple[Measurement, Measurement]:
    """Section 4.2's isolation of disk cost: the most robust configuration
    with dynamic clients, with and without ACID (534 vs 1155 TPS)."""
    row = ConfigRow("sql_acid_vs_noacid", False, False, False, True)
    config = build_config(row)
    acid = run_sql_workload(
        config, name="acid", acid=True, warmup_s=warmup_s, measure_s=measure_s, seed=seed
    )
    noacid = run_sql_workload(
        config, name="noacid", acid=False, warmup_s=warmup_s, measure_s=measure_s, seed=seed
    )
    return acid, noacid


def _start_closed_loop(cluster, payload: bytes) -> None:
    """Every client keeps one ``payload`` operation outstanding from now on."""

    def loop(client):
        def done(_res, _lat):
            client.invoke(payload, callback=done)
        client.invoke(payload, callback=done)

    for client in cluster.clients:
        loop(client)


# ==== E6: section 2.3 — authenticator staleness at recovery ============================


@dataclass
class RecoveryResult:
    """Outcome of one crash/restart run."""

    use_macs: bool
    rebroadcast_interval_ns: int
    # Restart until the replica validates client requests itself again:
    # caught up *and* holding every client's session key.  Exact with
    # signatures (no key to wait for), at 1 ms resolution with MACs.
    recovery_time_ns: Optional[int]
    # Restart until ``last_exec`` reached the recovery target — by log
    # replay, or by checkpoint state transfer when replay cannot validate.
    catch_up_time_ns: Optional[int]
    replay_auth_failures: int
    caught_up: bool
    # In the 100 ms after that, did the replica execute requests itself
    # (agreement or validated replay) rather than only install checkpoints?
    resumed_execution: bool
    final_lag: int


def run_recovery_experiment(
    use_macs: bool = True,
    rebroadcast_interval_ns: int = 1 * SECOND,
    seed: int = 5,
) -> RecoveryResult:
    """Crash and restart one backup replica under load (paper section 2.3):
    down at 0.2 s, back at 0.25 s, watched for up to 4 s.

    With MACs, the restarted replica replays the log but every request
    fails authentication: it lost the session keys, and only the clients'
    periodic blind rebroadcast re-delivers them.  Until then it cannot
    validate a request — replayed or new — and keeps up with the group
    only by jumping from one stable checkpoint to the next, so the time
    until it is a working replica again tracks the rebroadcast interval.
    With signatures, replay validates immediately.
    """
    config = PbftConfig(
        use_macs=use_macs,
        authenticator_rebroadcast_ns=rebroadcast_interval_ns,
        checkpoint_interval=64,
        log_window=128,
    )
    cluster = build_cluster(config, seed=seed, real_crypto=False)
    _start_closed_loop(cluster, bytes(256))

    cluster.run_for(200 * MILLISECOND)
    cluster.replicas[3].crash()  # a backup (primary is replica 0 in view 0)
    cluster.run_for(50 * MILLISECOND)
    victim = cluster.restart(3)

    def validates_clients() -> bool:
        return not use_macs or all(
            ("client", client.node_id) in victim.session_keys
            for client in cluster.clients
        )

    deadline = cluster.sim.now + 4 * SECOND
    while (
        victim.recovering or not validates_clients()
    ) and cluster.sim.now < deadline:
        cluster.run_for(MILLISECOND)
    caught_up = not victim.recovering and validates_clients()
    catch_up_time = recovery_time = None
    if victim.recovery_completed_at is not None:
        catch_up_time = victim.recovery_completed_at - victim.recovery_started_at
    if caught_up:
        recovery_time = (
            cluster.sim.now - victim.recovery_started_at if use_macs else catch_up_time
        )
    executed = victim.stats["requests_executed"]
    cluster.run_for(100 * MILLISECOND)
    max_exec = max(r.last_exec for r in cluster.replicas if not r.crashed)
    result = RecoveryResult(
        use_macs=use_macs,
        rebroadcast_interval_ns=rebroadcast_interval_ns,
        recovery_time_ns=recovery_time,
        catch_up_time_ns=catch_up_time,
        replay_auth_failures=victim.stats["replay_auth_failures"],
        caught_up=caught_up,
        resumed_execution=victim.stats["requests_executed"] > executed,
        final_lag=max_exec - victim.last_exec,
    )
    cluster.stop_clients()
    return result


# ==== E7: section 2.4 — UDP packet loss vs the big-request optimization ================


@dataclass
class PacketLossResult:
    """Outcome of dropping exactly one datagram."""

    all_big: bool
    dropped_kind: str
    wedged_replicas: list[int]
    wedge_duration_ns: Optional[int]
    state_transfers: int
    client_retransmissions: int
    all_caught_up: bool
    completed_ops: int


def run_packet_loss_experiment(
    all_big: bool = True,
    seed: int = 7,
) -> PacketLossResult:
    """Drop one client→replica datagram and watch the middleware for 3 s.

    With the all-big optimization (paper section 2.4): the victim replica
    agrees on the digest but cannot execute — it is "stuck at this point
    until the next checkpoint arrives and the recovery process kicks in".
    Without it: the client's retransmission heals the loss and no replica
    wedges.
    """
    config = PbftConfig(
        big_request_threshold=0 if all_big else None,
        checkpoint_interval=32,
        log_window=64,
        num_clients=4,
    )
    cluster = build_cluster(config, seed=seed, real_crypto=False)
    victim_host = "replica3"
    if all_big:
        # Lose one request body on its way from a client to one replica.
        rule = DropRule(
            lambda p: p.kind == "Request" and p.dst[0] == victim_host
            and p.src[0].startswith("clienthost"),
            count=1,
            name="drop-big-request-body",
        )
        dropped_kind = "client→replica request body"
    else:
        # Lose one request on its way to the primary.
        rule = DropRule(
            lambda p: p.kind == "Request" and p.dst[0] == "replica0"
            and p.src[0].startswith("clienthost"),
            count=1,
            name="drop-request-to-primary",
        )
        dropped_kind = "client→primary request"
    cluster.fabric.add_drop_rule(rule)
    _start_closed_loop(cluster, bytes(512))
    cluster.run_for(3 * SECOND)

    victim = cluster.replicas[3]
    wedged = [r.node_id for r in cluster.replicas if r.stats["wedged_events"] > 0]
    wedge_duration = victim.stats.get("wedge_duration_ns")
    transfers = sum(r.stats["state_transfers_completed"] for r in cluster.replicas)
    max_exec = max(r.last_exec for r in cluster.replicas)
    caught_up = all(
        max_exec - r.last_exec <= config.checkpoint_interval for r in cluster.replicas
    )
    result = PacketLossResult(
        all_big=all_big,
        dropped_kind=dropped_kind,
        wedged_replicas=wedged,
        wedge_duration_ns=wedge_duration,
        state_transfers=transfers,
        client_retransmissions=sum(c.retransmissions for c in cluster.clients),
        all_caught_up=caught_up,
        completed_ops=cluster.total_completed(),
    )
    cluster.stop_clients()
    return result


# ==== Degraded service: a 3-of-4 group must serve at rate ================================


@dataclass
class DegradedResult:
    """Throughput before one replica crash and well after it."""

    crashed_replica: int
    before_tps: float
    after_tps: float
    # Crash until every live replica is in one new view; 0 for a backup.
    failover_ns: int
    cluster: object = field(repr=False, default=None)

    @property
    def ratio(self) -> float:
        return self.after_tps / self.before_tps


def run_degraded_experiment(crash_replica: int = 2, seed: int = 3) -> DegradedResult:
    """Crash one replica under the 12-client 1 KiB null load and compare
    ops/sim-s before the crash with 0.4 s after it (after the view change,
    if the primary was the one crashed).

    Three live replicas of four are a full quorum; what used to slow them
    to 2 % was every fourth reply body being the dead replica's to send
    (DESIGN.md "Why a 3-of-4 group served at 2 %").
    """
    size = 1024
    cluster = build_cluster(
        PbftConfig(), seed=seed, real_crypto=False,
        app_factory=lambda: NullApplication(reply_size=size),
    )

    def rate(window_ns: int) -> float:
        start = cluster.total_completed()
        cluster.run_for(window_ns)
        return (cluster.total_completed() - start) * SECOND / window_ns

    _start_closed_loop(cluster, bytes(size))
    cluster.run_for(50 * MILLISECOND)
    before = rate(100 * MILLISECOND)
    victim = cluster.replicas[crash_replica]
    was_primary = victim.is_primary
    victim.crash()
    crashed_at = cluster.sim.now
    if was_primary:
        live = [r for r in cluster.replicas if not r.crashed]
        deadline = crashed_at + 5 * SECOND
        while cluster.sim.now < deadline and not all(
            r.view > victim.view and not r.in_view_change for r in live
        ):
            cluster.run_for(10 * MILLISECOND)
    failover = cluster.sim.now - crashed_at if was_primary else 0
    cluster.run_for(400 * MILLISECOND)
    after = rate(200 * MILLISECOND)
    cluster.stop_clients()
    return DegradedResult(
        crashed_replica=crash_replica,
        before_tps=before,
        after_tps=after,
        failover_ns=failover,
        cluster=cluster,
    )


def run_fault_campaign(
    schedules=None,
    seeds=(1, 2, 3, 4, 5),
    config: Optional[PbftConfig] = None,
    artifact_dir: Optional[str] = None,
    **run_kwargs,
):
    """Sweep the fault-injection campaign: schedules × seeds.

    Runs every :class:`repro.faults.FaultSchedule` (the built-in library
    by default) at every seed and checks the six single-group
    invariants — agreement, no committed-op loss, monotone checkpoint
    stability, client liveness, flood liveness, membership safety —
    after each run.  With ``artifact_dir`` set, failing
    runs are deterministically re-executed with tracing enabled and dump
    a Chrome trace plus a minimized event log for forensics.  Extra
    keyword arguments (``run_ns``, ``drain_ns``, ``settle_ns``) pass
    through to :func:`repro.faults.run_campaign` to resize the phases.
    """
    from repro.faults.campaign import run_campaign
    from repro.faults.library import builtin_schedules

    if schedules is None:
        schedules = builtin_schedules()
    return run_campaign(
        schedules, list(seeds), config=config, artifact_dir=artifact_dir,
        **run_kwargs,
    )
