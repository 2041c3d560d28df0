"""The measurement harness itself."""

from repro.harness.measure import (
    Measurement,
    run_analytics_workload,
    run_null_workload,
    run_sql_workload,
)
from repro.pbft.config import PbftConfig


def test_null_workload_produces_sane_measurement():
    m = run_null_workload(PbftConfig(num_clients=4), measure_s=0.1, warmup_s=0.1)
    assert m.tps > 100
    assert m.completed > 10
    assert m.p50_latency_ns > 0
    assert m.p99_latency_ns >= m.p50_latency_ns
    assert m.mean_latency_ns > 0
    assert m.view_changes == 0


class FakeCluster:
    clients = []
    replicas = []


def test_measurement_from_cluster_percentiles():
    # Nearest-rank: p-th percentile of n values is the ceil(p*n)-th
    # smallest, so for 1..100 the p50 is 50 and the p99 is 99.
    latencies = list(range(1, 101))
    m = Measurement.from_cluster("x", FakeCluster(), completed=100,
                                 latencies=latencies, duration_s=2.0)
    assert m.tps == 50
    assert m.p50_latency_ns == 50
    assert m.p99_latency_ns == 99
    assert m.mean_latency_ns == 50.5


def test_percentiles_nearest_rank_small_lists():
    m = Measurement.from_cluster("x", FakeCluster(), 1, [7], 1.0)
    assert m.p50_latency_ns == 7
    assert m.p99_latency_ns == 7
    # Odd length: nearest-rank p50 of 5 values is the 3rd smallest.
    m = Measurement.from_cluster("x", FakeCluster(), 5, [10, 20, 30, 40, 50], 1.0)
    assert m.p50_latency_ns == 30
    assert m.p99_latency_ns == 50
    # Even length: ceil(0.5 * 4) = 2nd smallest, never above the median.
    m = Measurement.from_cluster("x", FakeCluster(), 4, [1, 2, 3, 4], 1.0)
    assert m.p50_latency_ns == 2
    assert m.p99_latency_ns == 4
    # Unsorted input is sorted before ranking.
    m = Measurement.from_cluster("x", FakeCluster(), 3, [30, 10, 20], 1.0)
    assert m.p50_latency_ns == 20


def test_measurement_with_no_latencies():
    class FakeCluster:
        clients = []
        replicas = []

    m = Measurement.from_cluster("x", FakeCluster(), 0, [], 1.0)
    assert m.tps == 0 and m.p50_latency_ns == 0


def test_null_workload_deterministic_given_seed():
    a = run_null_workload(PbftConfig(num_clients=4), measure_s=0.1, seed=5)
    b = run_null_workload(PbftConfig(num_clients=4), measure_s=0.1, seed=5)
    assert a.tps == b.tps
    assert a.completed == b.completed


def test_sql_workload_reports_agreeing_replicas():
    m = run_sql_workload(
        PbftConfig(num_clients=4), measure_s=0.2, warmup_s=0.1
    )
    assert m.tps > 50
    counts = m.extras["replica_exec_counts"]
    assert max(counts) - min(counts) <= 64


def test_analytics_workload_pins():
    # INSERTs interleaved with join + GROUP BY rollups, n=4, MACs: the
    # only replicated run of multi-table statements, so its results and
    # database contents are pinned.
    m = run_analytics_workload(
        PbftConfig(), warmup_s=0.2, measure_s=0.6, seed=3, real_crypto=True
    )
    assert m.completed == 516
    assert m.tps == 860.0
    assert m.extras["state_root"] == "33ae553e312a43fb316f0b0c5cc9005c"
