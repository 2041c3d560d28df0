"""Normal-case protocol operation on a full simulated cluster."""

import pytest

from repro.common.units import SECOND
from repro.obs import chrome_trace_events
from repro.obs.report import packets
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig


@pytest.fixture()
def cluster():
    config = PbftConfig(num_clients=3, checkpoint_interval=8, log_window=16)
    return build_cluster(config, seed=7)


def test_single_request_executes_on_all_replicas(cluster):
    result = cluster.invoke_and_wait(cluster.clients[0], b"\x00hello")
    assert len(result) == 1024  # NullApplication's reply size
    assert all(r.stats["requests_executed"] == 1 for r in cluster.replicas)


def test_figure_1_message_flow(cluster):
    """The normal-case flow of the paper's Figure 1: request, pre-prepare,
    prepare, commit, replies."""
    cluster.obs.tracer.enabled = True
    cluster.invoke_and_wait(cluster.clients[0], b"\x00op")
    kinds = [p.kind for p in packets(chrome_trace_events(cluster.obs.tracer))]
    for expected in ("Request", "PrePrepare", "Prepare", "Commit", "Reply"):
        assert expected in kinds, f"missing {expected} in {set(kinds)}"
    # 3-phase ordering: the first PrePrepare precedes the first Commit.
    assert kinds.index("PrePrepare") < kinds.index("Commit")


def test_sequential_requests_from_one_client(cluster):
    client = cluster.clients[0]
    for i in range(10):
        cluster.invoke_and_wait(client, bytes([0, i]))
    assert client.completed_ops == 10
    assert all(r.last_exec >= 1 for r in cluster.replicas)


def test_concurrent_clients_all_complete(cluster):
    done = []
    for i, client in enumerate(cluster.clients):
        client.invoke(bytes([0, i]), callback=lambda r, l: done.append(1))
    cluster.run_for(1 * SECOND)
    assert len(done) == 3


def test_replicas_agree_on_state_root(cluster):
    for i in range(20):
        cluster.invoke_and_wait(cluster.clients[i % 3], bytes([0, i]))
    roots = {r.state.refresh_tree() for r in cluster.replicas}
    assert len(roots) == 1


def test_replicas_execute_in_identical_order(cluster):
    for i in range(15):
        cluster.invoke_and_wait(cluster.clients[i % 3], bytes([0, i]))
    journals = []
    for replica in cluster.replicas:
        executed = []
        for seq in sorted(replica.exec_journal):
            _pp, requests = replica.exec_journal[seq]
            executed.extend((r.client, r.req_id) for r in requests)
        journals.append(executed)
    # All replicas kept the same suffix of the execution history.
    minimum = min(len(j) for j in journals)
    assert minimum > 0
    assert len({tuple(j[-minimum:]) for j in journals}) == 1


def test_duplicate_request_executed_once(cluster):
    client = cluster.clients[0]
    cluster.invoke_and_wait(client, b"\x00once")
    primary = cluster.replicas[0]
    executed_before = primary.stats["requests_executed"]
    # Hand-retransmit the same request object.
    request = primary.exec_journal[max(primary.exec_journal)][1][0]
    client.broadcast_to_replicas(request)
    cluster.run_for(int(0.2 * SECOND))
    assert primary.stats["requests_executed"] == executed_before
    assert primary.stats["replies_resent"] >= 1


def test_batching_groups_concurrent_requests():
    config = PbftConfig(num_clients=8, checkpoint_interval=8, log_window=16)
    cluster = build_cluster(config, seed=9, real_crypto=False)
    done = []
    for client in cluster.clients:
        client.invoke(b"\x00req", callback=lambda r, l: done.append(1))
    cluster.run_for(1 * SECOND)
    assert len(done) == 8
    primary = cluster.replicas[0]
    assert primary.stats["batches_issued"] < 8  # at least some batching


def test_no_batching_gives_one_seq_per_request():
    config = PbftConfig(
        num_clients=4, batching=False, checkpoint_interval=8, log_window=16
    )
    cluster = build_cluster(config, seed=9, real_crypto=False)
    done = []
    for client in cluster.clients:
        client.invoke(b"\x00req", callback=lambda r, l: done.append(1))
    cluster.run_for(1 * SECOND)
    assert len(done) == 4
    primary = cluster.replicas[0]
    assert primary.stats["batches_issued"] == 4
    assert primary.stats["batched_requests"] == 4


def test_readonly_fast_path(cluster):
    cluster.invoke_and_wait(cluster.clients[0], b"\x00write")
    before = [r.next_seq for r in cluster.replicas]
    result = cluster.invoke_and_wait(cluster.clients[0], b"\x00read", readonly=True)
    assert len(result) == 1024
    # Read-only requests are not sequenced.
    assert [r.next_seq for r in cluster.replicas] == before
    assert all(r.stats["readonly_executed"] >= 1 for r in cluster.replicas)


def test_signature_mode_works_end_to_end():
    config = PbftConfig(
        num_clients=2, use_macs=False, checkpoint_interval=8, log_window=16
    )
    cluster = build_cluster(config, seed=5)
    result = cluster.invoke_and_wait(cluster.clients[0], b"\x00signed")
    assert len(result) == 1024
    assert all(r.auth_failures == 0 for r in cluster.replicas)


def test_non_big_requests_inline_in_preprepare():
    config = PbftConfig(
        num_clients=2, big_request_threshold=None, checkpoint_interval=8, log_window=16
    )
    cluster = build_cluster(config, seed=5)
    cluster.obs.tracer.enabled = True
    cluster.invoke_and_wait(cluster.clients[0], b"\x00" * 300)
    # The request goes to the primary only; no client multicast.
    request_packets = [
        p for p in packets(chrome_trace_events(cluster.obs.tracer))
        if p.kind == "Request" and p.src.startswith("clienthost")
    ]
    assert len(request_packets) == 1
    assert request_packets[0].dst == "replica0"
