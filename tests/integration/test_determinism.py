"""Seed-determinism regression: same seed, same everything.

The whole repo leans on the simulation being a pure function of
(scenario, seed): the perf ledger requires same-seed repetitions of a
workload to agree exactly, and the fault campaign replays failures by
seed.  These tests pin both claims at the integration level — a run
repeated with the same seed must produce identical measurements, an
identical metrics registry, and an identical fault log.
"""

from repro.common.units import MILLISECOND
from repro.faults import run_schedule
from repro.faults.library import lossy_replica_links
from repro.harness.measure import run_null_workload
from repro.pbft.config import PbftConfig

WINDOW = dict(warmup_s=0.05, measure_s=0.15, seed=11)


def _null_run():
    captured = {}
    m = run_null_workload(
        PbftConfig(),
        name="determinism",
        payload_size=256,
        cluster_hook=lambda c: captured.update(cluster=c),
        **WINDOW,
    )
    snapshot = captured["cluster"].obs.registry.snapshot()
    fingerprint = (
        m.completed,
        m.tps,
        m.mean_latency_ns,
        m.p50_latency_ns,
        m.p99_latency_ns,
        m.retransmissions,
        m.view_changes,
    )
    return fingerprint, snapshot


def test_normal_operation_same_seed_twice_is_identical():
    first, first_metrics = _null_run()
    second, second_metrics = _null_run()
    assert first == second
    assert first_metrics == second_metrics


def test_fault_campaign_same_seed_twice_is_identical():
    fast = dict(run_ns=400 * MILLISECOND, drain_ns=1200 * MILLISECOND)
    first = run_schedule(lossy_replica_links(), seed=2, **fast)
    second = run_schedule(lossy_replica_links(), seed=2, **fast)
    assert (
        first.ok, first.invoked_ops, first.completed_ops, first.max_view, first.sim_time_ns
    ) == (
        second.ok, second.invoked_ops, second.completed_ops, second.max_view, second.sim_time_ns
    )
    assert first.fault_log and first.fault_log == second.fault_log
