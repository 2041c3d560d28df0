"""A 3-of-4 group serves at rate: the degraded-mode reply fast path.

With one replica down (or withholding), every n-th request has a dead
designated replier and ends in a digest quorum without a body.  The client
fetches the body from a responder instead of waiting out its retransmit
timer, so throughput after a crash stays within a few percent of before.
"""

from repro.apps.kvstore import Get, encode_put
from repro.common.units import MILLISECOND, SECOND
from repro.harness.experiments import run_degraded_experiment
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.replica import NullApplication
from repro.shard.campaign import key_for_shard
from repro.shard.topology import build_sharded_cluster


def rate(top, completed, window_ns):
    """Completions per simulated second over the next ``window_ns``."""
    before = completed[0]
    top.run_for(window_ns)
    return (completed[0] - before) * SECOND / window_ns


def test_backup_crash_keeps_90_percent_of_throughput():
    result = run_degraded_experiment(crash_replica=2)
    cluster = result.cluster
    assert result.before_tps > 10_000
    assert result.ratio >= 0.9, result
    assert {r.view for r in cluster.replicas} == {0}  # no view change involved
    # Each client paid one retransmit timeout to learn of the dead slot,
    # and none since.
    assert all(c.suspects == {2} for c in cluster.clients)
    assert sum(c.retransmissions for c in cluster.clients) == len(cluster.clients)
    assert sum(c.full_reply_fetches for c in cluster.clients) > 1000


def test_primary_crash_keeps_90_percent_of_throughput_after_the_view_change():
    result = run_degraded_experiment(crash_replica=0)
    cluster = result.cluster
    assert result.ratio >= 0.9, result
    assert 0 < result.failover_ns < 1 * SECOND
    assert len({r.view for r in cluster.replicas[1:]}) == 1
    # The deposed primary is suspected the moment a client learns of the
    # new view, so nobody stalls on it after the outage either.
    assert all(0 in c.suspects for c in cluster.clients)
    waited_out = cluster.config.client_retransmit_ns
    assert all(max(c.latencies_ns[-500:]) < waited_out // 2 for c in cluster.clients)


def test_sharded_group_with_a_replica_down_keeps_90_percent_through_the_router():
    shards, routers = 2, 8
    cluster = build_sharded_cluster(
        shards, config=PbftConfig().with_options(num_clients=0), seed=5,
        real_crypto=False, num_routers=routers, router_hosts=routers,
    )
    value = bytes(200)  # ordered GETs reply with it: well over a digest
    completed = [0]

    def start(router):
        key = key_for_shard(cluster.directory, router.router_id % shards,
                            f"r{router.router_id}")

        def read(result):
            assert result.committed and result.replies == (b"\x01" + value,)
            completed[0] += 1
            router.invoke(Get(key).encode(), callback=read)

        router.invoke(encode_put(key, value),
                      callback=lambda _r: router.invoke(Get(key).encode(), callback=read))

    for router in cluster.routers:
        start(router)
    cluster.run_for(50 * MILLISECOND)
    before = rate(cluster, completed, 100 * MILLISECOND)
    cluster.groups[0].replicas[1].crash()
    cluster.run_for(400 * MILLISECOND)
    after = rate(cluster, completed, 200 * MILLISECOND)
    cluster.stop()
    assert before > 5_000
    assert after >= 0.9 * before, (before, after)
    # Only the degraded group's clients ever fetch.
    fetches = [
        sum(router.clients[shard].full_reply_fetches for router in cluster.routers)
        for shard in range(shards)
    ]
    assert fetches[0] > 100 and fetches[1] == 0


def test_fault_free_run_is_untouched_by_the_fast_path():
    """Evidence gating: until a retransmit timeout or a view change there is
    no suspect, so a fault-free run fetches nothing and schedules exactly
    the events it did before the fast path existed (number pinned on the
    parent commit)."""
    cluster = build_cluster(
        PbftConfig(), seed=3, real_crypto=False,
        app_factory=lambda: NullApplication(reply_size=1024),
    )
    payload = bytes(1024)

    def loop(client):
        def done(_result, _latency):
            client.invoke(payload, callback=done)

        client.invoke(payload, callback=done)

    for client in cluster.clients:
        loop(client)
    cluster.run_for(200 * MILLISECOND)
    assert sum(c.full_reply_fetches for c in cluster.clients) == 0
    assert not any(c.suspects for c in cluster.clients)
    assert sum(c.retransmissions for c in cluster.clients) == 0
    assert cluster.total_completed() == 3469
    assert cluster.sim.events_scheduled == 89417
    cluster.stop_clients()
