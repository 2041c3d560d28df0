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
from repro.harness.configs import build_config, row_by_name
from repro.harness.measure import run_null_workload
from repro.pbft.config import PbftConfig

WINDOW = dict(warmup_s=0.05, measure_s=0.15, seed=11)


def _null_run(config, **kwargs):
    captured = {}
    m = run_null_workload(
        config,
        name="determinism",
        payload_size=256,
        cluster_hook=lambda c: captured.update(cluster=c),
        **WINDOW,
        **kwargs,
    )
    fingerprint = (
        m.completed,
        m.tps,
        m.mean_latency_ns,
        m.p50_latency_ns,
        m.p99_latency_ns,
        m.retransmissions,
        m.view_changes,
    )
    return fingerprint, captured["cluster"]


def test_normal_operation_same_seed_twice_is_identical():
    first, first_cluster = _null_run(PbftConfig())
    second, second_cluster = _null_run(PbftConfig())
    assert first == second
    assert first_cluster.obs.registry.snapshot() == second_cluster.obs.registry.snapshot()


def test_signature_mode_run_is_pinned_to_recorded_values():
    """Table 1's robust row (signatures, joined clients, real crypto)
    against literals recorded before the signer's salt search was
    rewritten (PR 20).  A different salt or root changes a signature's byte
    length, hence a wire time, hence these numbers — so a signer that is
    merely self-consistent does not pass.  ``bytes_sent`` is the sharpest
    of them: it moves when one signature in the run is a byte longer."""
    fingerprint, cluster = _null_run(
        build_config(row_by_name("nosta_nomac_noallbig_batch")), real_crypto=True
    )
    assert fingerprint == (168, 1120.0, 10639865.5, 10588322, 12711751, 0, 0)
    assert cluster.sim.events_scheduled == 5111
    assert (cluster.fabric.packets_sent, cluster.fabric.bytes_sent) == (2337, 504363)
    assert [r.messages_handled for r in cluster.replicas] == [510, 268, 268, 268]
    assert not any(node.auth_failures for node in cluster.replicas + cluster.clients)
    assert {r.state.refresh_tree().hex() for r in cluster.replicas} == {
        "b8571c8f91dfe91be8e1f0de4bc35134"
    }


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
