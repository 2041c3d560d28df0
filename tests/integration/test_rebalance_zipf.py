"""Zipfian million-client differential test around a live rebalance.

A :class:`~repro.harness.workload.ZipfianPicker` over a **population of
one million simulated clients** generates a fixed operation stream (the
aggregate-workload idiom: per-client state only while an op is in
flight, so the population costs nothing).  The stream is partitioned
across routers by client id, which fixes each key's write order, and the
same stream is replayed twice against a deliberately skewed placement —
shard 0 owns 75% of the hash space:

* run A — no interference;
* run B — a :class:`ShardRebalancer` moves the surplus quarter to
  shard 1 mid-run, while the stream is still flowing.

The differential claim: both runs commit every operation and read back
**byte-identical final states** — the live move is invisible to the
committed history.  Run B additionally measures goodput around the move
and asserts the hot shard's load recovers after the handoff.
"""

import random

from repro.apps.kvstore import KvApplication, Get, encode_put
from repro.common.units import MILLISECOND, SECOND
from repro.harness.workload import ZipfianPicker
from repro.shard.campaign import shard_campaign_config
from repro.shard.topology import build_sharded_cluster
from repro.shard.directory import ShardDirectory, key_position

NUM_SIM_CLIENTS = 1_000_000
NUM_ROUTERS = 4
OPS_PER_ROUTER = 800
SEED = 7
MOVE_AT_NS = 60 * MILLISECOND

# Shard 0's default stripe is [0, 2^31); the skewed starting placement
# hands it the surplus quarter [2^31, 3 * 2^30) as well, and the mid-run
# rebalance gives that quarter back to shard 1.
SURPLUS_LO, SURPLUS_HI = 1 << 31, 3 << 30


def skewed_directory():
    directory = ShardDirectory(2)
    directory.move_range(SURPLUS_LO, SURPLUS_HI, 0)
    return directory


def zipfian_streams():
    """One op list per router, drawn once from the million-client picker.

    Each simulated client is pinned to ``client % NUM_ROUTERS``, so every
    key's writes flow through a single router in draw order — the final
    value per key is fixed by the stream alone, independent of how the
    routers' ops interleave across shards.
    """
    picker = ZipfianPicker(NUM_SIM_CLIENTS)
    rng = random.Random(SEED)
    streams = [[] for _ in range(NUM_ROUTERS)]
    serial = 0
    while min(len(s) for s in streams) < OPS_PER_ROUTER:
        client = picker.pick(rng)
        stream = streams[client % NUM_ROUTERS]
        if len(stream) < OPS_PER_ROUTER:
            stream.append((b"z%d" % client, b"v%d" % serial))
        serial += 1
    return streams


class StreamPump:
    """Replays one router's fixed op list, closed loop, recording when
    each commit lands (sim time + key position) for goodput windows."""

    def __init__(self, cluster, router, ops):
        self.cluster = cluster
        self.router = router
        self.ops = ops
        self.committed = {}
        self.failures = 0
        self.timeline = []  # (commit sim-time, key position)
        self._i = 0
        self.finished = False

    def start(self):
        self._next()

    def _next(self):
        if self._i >= len(self.ops):
            self.finished = True
            return
        key, value = self.ops[self._i]
        self._i += 1

        def on_done(result):
            if result.committed:
                self.committed[key] = value
                self.timeline.append((self.cluster.sim.now, key_position(key)))
            else:
                self.failures += 1
            self._next()

        self.router.invoke(encode_put(key, value), callback=on_done)


def run_stream(rebalance: bool):
    streams = zipfian_streams()
    cluster = build_sharded_cluster(
        2, config=shard_campaign_config(), seed=11, real_crypto=False,
        num_routers=NUM_ROUTERS, router_hosts=NUM_ROUTERS,
        directory=skewed_directory(),
        # The Zipf tail touches a few thousand distinct keys; trade value
        # bytes for slots so neither shard's store fills mid-stream.
        inner_app_factory=lambda s: KvApplication(
            num_slots=4096, value_size=32
        ),
    )
    pumps = [
        StreamPump(cluster, router, streams[router.router_id % NUM_ROUTERS])
        for router in cluster.routers
    ]
    for pump in pumps:
        pump.start()

    moves = []
    if rebalance:
        rebalancer = cluster.make_rebalancer(chunk_budget=1024)
        cluster.sim.schedule(
            MOVE_AT_NS,
            lambda: rebalancer.move_range(
                SURPLUS_LO, SURPLUS_HI, 1, on_done=moves.append
            ),
        )

    deadline = cluster.sim.now + 60 * SECOND
    while (not all(p.finished for p in pumps)
           and cluster.sim.now < deadline):
        cluster.run_for(10 * MILLISECOND)
    assert all(p.finished for p in pumps), "stream never drained"

    committed = {}
    for pump in pumps:
        assert pump.failures == 0
        committed.update(pump.committed)
    # Read back the final value of every touched key through a router.
    final = {}
    router = cluster.routers[0]
    for key in sorted(committed):
        results = []
        router.invoke(Get(key).encode(), callback=results.append)
        while not results and cluster.sim.now < deadline:
            cluster.run_for(10 * MILLISECOND)
        assert results and results[0].committed, key
        final[key] = results[0].replies[0]
    timeline = sorted(t for pump in pumps for t in pump.timeline)
    cluster.stop()
    return committed, final, timeline, moves


def rate(timeline, lo_ns, hi_ns, positions=None):
    hits = [
        (t, pos) for t, pos in timeline
        if lo_ns <= t < hi_ns
        and (positions is None or positions[0] <= pos < positions[1])
    ]
    return len(hits) / ((hi_ns - lo_ns) / SECOND)


class TestZipfianDifferential:
    def test_rebalance_is_invisible_to_the_committed_history(self):
        committed_a, final_a, _, _ = run_stream(rebalance=False)
        committed_b, final_b, timeline, moves = run_stream(rebalance=True)

        # The move completed mid-stream, not after it.
        assert moves and moves[0].state == "done", moves
        record = moves[0]
        last_commit = timeline[-1][0]
        assert record.finished_at < last_commit, (
            "the move finished after the stream drained — not a live move"
        )

        # Differential: every op committed in both runs, and the final
        # states are byte-identical key for key.
        assert committed_a == committed_b
        assert final_a == final_b
        for key, value in committed_a.items():
            assert value in final_a[key], key

        # Goodput recovery: the surplus quarter (the hot shard's extra
        # load) stalls while frozen, then recovers once shard 1 owns it.
        settle = record.finished_at + 150 * MILLISECOND
        window = 50 * MILLISECOND
        assert last_commit > settle + window, (
            "stream too short to observe the post-move window"
        )
        before = rate(timeline, MOVE_AT_NS - window, MOVE_AT_NS)
        after = rate(timeline, settle, settle + window)
        assert before > 0 and after >= 0.75 * before, (before, after)
        surplus_after = rate(
            timeline, settle, settle + window,
            positions=(SURPLUS_LO, SURPLUS_HI),
        )
        assert surplus_after > 0, "moved-range traffic never recovered"

    def test_population_is_skewed_but_memory_stays_bounded(self):
        streams = zipfian_streams()
        ops = [op for stream in streams for op in stream]
        keys = [key for key, _ in ops]
        distinct = set(keys)
        # A million-client population, but Zipf theta=.99 repeats keys a
        # heavy head would never repeat under a uniform picker (3200
        # uniform draws from 10^6 collide ~5 times); the hottest client
        # alone absorbs several percent of the whole stream.
        assert len(distinct) < 2 * len(ops) // 3
        hottest = max(distinct, key=keys.count)
        assert keys.count(hottest) > len(ops) // 25
