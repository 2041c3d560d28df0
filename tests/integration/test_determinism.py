"""Seed-determinism regression: same seed, same everything.

The whole repo leans on the simulation being a pure function of
(scenario, seed): the perf ledger requires same-seed repetitions of a
workload to agree exactly, and the fault campaign replays failures by
seed.  These tests pin both claims at the integration level — a run
repeated with the same seed must produce identical measurements, an
identical metrics registry, and an identical fault log.
"""

import pytest

from repro.common.units import MILLISECOND
from repro.faults import run_schedule
from repro.faults.library import lossy_replica_links, primary_crash_restart
from repro.harness.configs import build_config, row_by_name
from repro.harness.measure import run_null_workload
from repro.harness.membershipbench import (
    MEMBERSHIP_SCENARIOS,
    SMOKE_CHURN_NS,
    run_markov_scenario,
)
from repro.pbft.config import PbftConfig
from repro.shard.campaign import run_shard_scenario, shard_scenarios

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
    of them: it moves when one signature in the run is a byte longer.
    (Its three ``BatchRetransmit``s lost their 10-byte ``commit_proof``
    since: that moved the mean, ``bytes_sent`` and, through the request
    timestamps the joined sessions' table records, the state root.)"""
    fingerprint, cluster = _null_run(
        build_config(row_by_name("nosta_nomac_noallbig_batch")), real_crypto=True
    )
    assert fingerprint == (168, 1120.0, 10639858.0, 10588322, 12711751, 0, 0)
    assert cluster.sim.events_scheduled == 5111
    assert (cluster.fabric.packets_sent, cluster.fabric.bytes_sent) == (2337, 504336)
    assert [r.messages_handled for r in cluster.replicas] == [510, 268, 268, 268]
    assert not any(node.auth_failures for node in cluster.replicas + cluster.clients)
    assert {r.state.refresh_tree().hex() for r in cluster.replicas} == {
        "18ddf9904d7f077552cbb0eb08730e4f"
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


# The fault-run executor (repro.faults.campaign), pinned to recorded
# values for each deployment kind it carries: one group, two shards under
# 2PC, two shards with a live move, one group under Markov churn with the
# quorum sampler installed.  The orderings these hold in place: observers
# before injector.start(), the rebalancer timer after it, fault_log read
# at the end of the run.


def _verdict(result):
    return (
        result.ok, result.invoked_ops, result.completed_ops, result.max_view,
        result.sim_time_ns, len(result.fault_log),
    )


def test_group_executor_is_pinned_to_recorded_values():
    result = run_schedule(
        primary_crash_restart(), seed=1,
        run_ns=800 * MILLISECOND, drain_ns=2000 * MILLISECOND,
    )
    assert _verdict(result) == (True, 2937, 2937, 1, 1_210_000_000, 2)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("coordinator-crash-mid-prepare", (True, 2017, 2016, 0, 1_410_000_000, 0)),
        ("rebalance-driver-crash-after-copy", (True, 447, 447, 0, 2_130_000_000, 1)),
    ],
)
def test_shard_executor_is_pinned_to_recorded_values(name, expected):
    scenario = {s.name: s for s in shard_scenarios()}[name]
    result = run_shard_scenario(
        scenario, seed=1, run_ns=600 * MILLISECOND, drain_ns=2500 * MILLISECOND
    )
    assert _verdict(result) == expected


def test_churn_executor_is_pinned_to_recorded_values():
    healthy = MEMBERSHIP_SCENARIOS[0]
    row = run_markov_scenario(healthy, seed=1, churn_ns=SMOKE_CHURN_NS)
    assert healthy.name == "healthy"
    assert row["measured_availability"] == 0.7655860349127181
    assert row["goodput_in_window_ops_per_s"] == 837.5
    assert row["completed_ops"] == 1786
    assert row["violations"] == []
    # The honest column (ROADMAP 3d): a quorum is up 77 % of the window,
    # the group completes an operation in 17 of its 80 10 ms bins.
    assert row["service_availability"] == 17 / 80
