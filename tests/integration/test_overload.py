"""The open-loop overload sweep: graceful degradation, determinism."""

from repro.harness.workload import run_aggregate_overload_sweep
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.messages import PrePrepare, Request


def mini_sweep(multipliers=(1.0, 2.0), capacity_tps=26000.0):
    """A CI-sized sweep: pinned capacity (skips the closed-loop estimate),
    short windows, the stock overload cluster."""
    return run_aggregate_overload_sweep(
        scenario="uniform",
        multipliers=multipliers,
        warmup_s=0.15,
        measure_s=0.2,
        seed=3,
        capacity_tps=capacity_tps,
    )


def test_goodput_degrades_gracefully_past_saturation():
    sweep = mini_sweep()
    at_1x = sweep.point_at(1.0)
    at_2x = sweep.point_at(2.0)
    # Doubling offered load must not collapse goodput...
    assert at_2x.goodput_tps >= 0.8 * at_1x.goodput_tps
    assert sweep.graceful(at=2.0, reference=1.0, threshold=0.8)
    # ...and the excess shows up as explicit backpressure, not silence:
    # the cluster sheds work with BUSY replies and the clients hear them.
    assert at_2x.shed > 0
    assert at_2x.busy_replies >= at_2x.shed
    assert at_2x.client_stats["busy_received"] > 0
    # Arrivals that found their client busy or no free session are offered
    # load the cluster never saw: counted as drops, never as arrivals, and
    # every tick of the window is classified exactly once.
    assert at_2x.dropped_arrivals > 0
    assert at_2x.submitted == round(at_2x.arrived_tps * 0.2)
    assert at_2x.offered_tps > at_2x.arrived_tps
    assert at_2x.ticks == (
        at_2x.completed
        + (at_2x.outstanding_end - at_2x.outstanding_start)
        + at_2x.dropped_arrivals
    )
    # Overload never destabilizes the group into view changes.
    assert at_2x.view_changes == 0


def test_sweep_is_deterministic():
    first = mini_sweep()
    second = mini_sweep()
    for a, b in zip(first.points, second.points):
        assert a.goodput_tps == b.goodput_tps
        assert a.replica_stats == b.replica_stats  # identical shed sets
        assert a.client_stats == b.client_stats
        assert a.dropped_arrivals == b.dropped_arrivals
        assert (a.p50_latency_ns, a.p99_latency_ns) == (
            b.p50_latency_ns, b.p99_latency_ns
        )


def test_backup_body_store_bounds_only_unordered_bodies():
    """The backup's waiting set refuses a flood's surplus but never a
    body whose predecessor is merely ordered-and-not-yet-executed here —
    that refusal would recreate the paper's §2.4 wedge."""
    config = PbftConfig(num_clients=2, big_request_threshold=0)
    cluster = build_cluster(config, seed=5, real_crypto=False)
    backup = cluster.replicas[1]
    client = cluster.clients[0].node_id
    first = Request(client=client, req_id=1, op=b"a", big=True)
    second = Request(client=client, req_id=2, op=b"b", big=True)

    backup.on_request(first)
    assert first.digest in backup.waiting_requests
    # Two unordered bodies from one client: the second is the flood case.
    backup.on_request(second)
    assert second.digest not in backup.waiting_requests
    assert backup.stats["waiting_shed"] == 1

    # Once an accepted pre-prepare references the first body, it is
    # ordered work this backup must keep — it stops counting against the
    # client even though it has not executed yet (the backup lags).
    pp = PrePrepare(
        view=0, seq=1, request_digests=(first.digest,), nondet=b"", sender=0
    )
    backup.log.slot(1).view_slot(0).accept(pp)
    backup.on_request(second)
    assert second.digest in backup.waiting_requests
    assert backup.stats["waiting_shed"] == 1


def test_underload_sees_no_backpressure():
    sweep = mini_sweep(multipliers=(0.5,))
    point = sweep.point_at(0.5)
    # Below saturation the pipeline is invisible: nothing shed, no BUSY.
    assert point.shed == 0
    assert point.busy_replies == 0
    assert point.completed > 0
    assert point.goodput_tps > 0.9 * point.offered_tps
