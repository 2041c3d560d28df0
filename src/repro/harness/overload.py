"""What the open-loop overload engine (:mod:`repro.harness.workload`)
shares with its drivers: the cluster it runs against, the closed-loop
capacity anchor, and the overload counters sampled around a window.

The paper's benchmarks are closed-loop — every client waits for its reply
before issuing the next operation — so offered load can never exceed what
the group sustains, and overload behaviour goes unmeasured.  Driving the
cluster *open loop* past saturation shows whether the admission pipeline
(bounded queues, per-client caps, BUSY backpressure — see DESIGN.md,
"Overload model and graceful degradation") degrades gracefully: goodput
should plateau near capacity while shed rate and latency absorb the
excess, instead of collapsing under queue growth.
"""

from __future__ import annotations

from repro.pbft.cluster import Cluster
from repro.pbft.config import PbftConfig

# Per-replica overload counters sampled around the measured window.
_REPLICA_STATS = (
    "requests_shed",
    "busy_sent",
    "inflight_capped",
    "waiting_shed",
    "duplicate_inflight",
    "oversized_rejected",
    "penalty_box_drops",
)
_CLIENT_STATS = ("busy_received", "busy_retries", "retransmissions")


def overload_config() -> PbftConfig:
    """The cluster the sweep runs against: more clients than the queue
    budget admits at once, so saturation actually presses the shedding
    policy rather than just the batching pipeline."""
    return PbftConfig(
        num_clients=24,
        checkpoint_interval=64,
        log_window=128,
        pending_queue_budget=12,
        busy_retry_hint_ns=10_000_000,       # 10 ms
        client_busy_backoff_ns=10_000_000,   # 10 ms
        client_busy_backoff_cap_ns=160_000_000,
    )


def estimate_capacity(
    config: PbftConfig,
    payload_size: int = 256,
    warmup_s: float = 0.2,
    measure_s: float = 0.4,
    seed: int = 3,
) -> float:
    """Closed-loop throughput of the same cluster: the sweep's 1.0× anchor."""
    from repro.harness.measure import run_null_workload

    measurement = run_null_workload(
        config,
        name="capacity-estimate",
        payload_size=payload_size,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
    )
    return measurement.tps


def _snapshot(cluster: Cluster) -> tuple[dict, dict, int]:
    replica = {
        key: sum(r.stats[key] for r in cluster.replicas) for key in _REPLICA_STATS
    }
    client = {
        key: sum(c.stats[key] for c in cluster.clients) for key in _CLIENT_STATS
    }
    views = sum(r.stats["view_changes_started"] for r in cluster.replicas)
    return replica, client, views
