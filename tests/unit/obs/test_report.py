"""The paper's section 2.2 summaries over the common-clock trace."""

import json

from repro.net.fabric import DropRule
from repro.obs import Observability, chrome_trace_events
from repro.obs.report import (
    main,
    messages_per_request,
    packets,
    quadratic_rounds,
    timeline,
    traffic,
)
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig


def traced_cluster(**overrides):
    options = dict(num_clients=2, checkpoint_interval=8, log_window=16)
    options.update(overrides)
    return build_cluster(
        PbftConfig(**options), seed=77, obs=Observability(tracing=True)
    )


def events_of(cluster):
    return chrome_trace_events(cluster.obs.tracer)


def five_unbatched_requests():
    cluster = traced_cluster(batching=False, num_clients=1)
    for i in range(5):
        cluster.invoke_and_wait(cluster.clients[0], bytes([0, i]))
    return events_of(cluster)


def test_traffic_counts_protocol_messages():
    cluster = traced_cluster()
    cluster.invoke_and_wait(cluster.clients[0], b"\x00one")
    events = events_of(cluster)
    summary = traffic(events)
    assert summary.messages_by_kind == {
        "Request": 4, "PrePrepare": 3, "Prepare": 9, "Commit": 12, "Reply": 4,
    }
    assert summary.bytes_by_kind == {
        "Request": 204, "PrePrepare": 231, "Prepare": 513, "Commit": 684, "Reply": 1220,
    }
    assert sum(summary.messages_by_kind.values()) == len(packets(events)) == 32
    assert summary.messages_by_link[("clienthost0", "replica0")] == 1
    assert summary.messages_by_link[("replica1", "replica2")] == 2
    assert len(summary.messages_by_link) == 20
    assert summary.drops_by_reason == {}
    assert "Prepare" in summary.format()
    assert "total                  32         2852" in summary.format()


def test_drop_accounting():
    cluster = traced_cluster()
    cluster.fabric.add_drop_rule(
        DropRule(lambda p: p.kind == "Prepare", count=2, name="eat-prepares")
    )
    cluster.invoke_and_wait(cluster.clients[0], b"\x00x")
    events = events_of(cluster)
    assert traffic(events).drops_by_reason == {"eat-prepares": 2}
    dropped = [p for p in packets(events) if p.reason]
    assert [p.kind for p in dropped] == ["Prepare", "Prepare"]


def test_messages_per_request_without_batching():
    """With batching off, a 4-replica group spends 32 datagrams per
    request — the overhead the paper's WAN section worries about."""
    assert messages_per_request(five_unbatched_requests(), 5) == 32.0


def test_quadratic_rounds():
    # Prepares per round are (n-1)^2 = 9, commits n(n-1) = 12.
    assert quadratic_rounds(five_unbatched_requests(), n_replicas=4) == {
        "rounds": 5,
        "prepares_per_round": 9.0,
        "commits_per_round": 12.0,
        "expected_prepares_per_round": 9,
        "expected_commits_per_round": 12,
    }


def test_timeline_orders_phases():
    cluster = traced_cluster()
    cluster.invoke_and_wait(cluster.clients[0], b"\x00t")
    assert timeline(events_of(cluster)) == [
        "t=0.000ms first Request (clienthost0 -> replica0)",
        "t=0.086ms first PrePrepare (replica0 -> replica1)",
        "t=0.172ms first Prepare (replica1 -> replica0)",
        "t=0.259ms first Commit (replica1 -> replica0)",
        "t=0.259ms first Reply (replica1 -> clienthost0)",
    ]


def test_trace_file_reads_like_the_live_trace(tmp_path, capsys):
    cluster = traced_cluster()
    cluster.invoke_and_wait(cluster.clients[0], b"\x00disk")
    path = tmp_path / "run.trace.json"
    cluster.obs.write_chrome_trace(str(path))
    with open(path, encoding="utf-8") as fh:
        on_disk = json.load(fh)["traceEvents"]
    assert packets(on_disk) == packets(events_of(cluster))
    main([str(path), "traffic"])
    assert "Commit                 12" in capsys.readouterr().out
    main([str(path), "quadratic", "4"])
    assert "prepares_per_round" in capsys.readouterr().out
