"""Live rebalancing end-to-end: range and table moves under real traffic.

Each test builds a full sharded deployment and drives a migration with
:class:`ShardRebalancer` while routers keep serving — the scenarios the
migration-safety battery in the shard campaign generalizes.
"""

from repro.apps.kvstore import Get, encode_put
from repro.apps.sqlapp import SqlApplication, encode_sql_op
from repro.common.units import MILLISECOND, SECOND
from repro.shard import (
    CHURN_REGRESSION_SEED,
    SqlShardCodec,
    build_sharded_cluster,
    key_for_shard,
    key_position,
    rebalance_scenarios,
    rebalance_smoke_scenarios,
    run_shard_scenario,
    shard_campaign_config,
)
from repro.shard.txapp import RangeUnit, ReplyWrongShard

QUARTER = 1 << 30  # with 2 shards, [0, 2^30) is the lower half of stripe 0


def build_kv(seed=11, **kwargs):
    return build_sharded_cluster(
        2, config=shard_campaign_config(), seed=seed, real_crypto=False,
        num_routers=1, router_hosts=1, **kwargs,
    )


def _drive(cluster, box_filled, limit_ns=30 * SECOND):
    deadline = cluster.sim.now + limit_ns
    while not box_filled() and cluster.sim.now < deadline:
        cluster.run_for(10 * MILLISECOND)


def keys_in_range(lo, hi, count, tag="mig"):
    found = []
    i = 0
    while len(found) < count:
        key = f"{tag}-{i}".encode()
        if lo <= key_position(key) < hi:
            found.append(key)
        i += 1
    return found


def put_all(cluster, router, pairs):
    for key, value in pairs:
        results = []
        router.invoke(encode_put(key, value), callback=results.append)
        _drive(cluster, lambda: results)
        assert results and results[0].committed, (key, results)


def read(cluster, router, key):
    results = []
    router.invoke(Get(key).encode(), callback=results.append)
    _drive(cluster, lambda: results)
    assert results, f"read of {key!r} never completed"
    return results[0]


class Pump:
    """Closed-loop router traffic: one op in flight, next issued on reply."""

    def __init__(self, cluster, router, keys):
        self.cluster = cluster
        self.router = router
        self.keys = keys
        self.committed = {}   # key -> last committed value
        self.commits = 0
        self.failures = 0
        self.stopped = False
        self._i = 0
        self._idle = True

    def start(self):
        self._next()

    def stop(self):
        self.stopped = True

    @property
    def idle(self):
        return self._idle

    def _next(self):
        if self.stopped:
            self._idle = True
            return
        self._idle = False
        i = self._i
        self._i += 1
        key = self.keys[i % len(self.keys)]
        value = b"gen-%d" % i

        def on_done(result):
            if result.committed:
                self.committed[key] = value
                self.commits += 1
            else:
                self.failures += 1
            self._next()

        self.router.invoke(encode_put(key, value), callback=on_done)


class TestLiveRangeMove:
    def test_hot_range_moves_under_traffic_with_no_committed_loss(self):
        cluster = build_kv()
        router = cluster.routers[0]
        moving = keys_in_range(0, QUARTER, 3)
        staying = keys_in_range(QUARTER, 1 << 31, 2, tag="stay")
        other = [key_for_shard(cluster.directory, 1, "far")]
        put_all(cluster, router, [(k, b"seed-" + k) for k in
                                  moving + staying + other])
        for key in moving:
            assert cluster.directory.shard_of_key(key) == 0

        pump = Pump(cluster, router, moving + staying + other)
        pump.start()
        done = []
        rebalancer = cluster.make_rebalancer(chunk_budget=128)
        rebalancer.move_range(0, QUARTER, 1, on_done=done.append)
        _drive(cluster, lambda: done)
        pump.stop()
        _drive(cluster, lambda: pump.idle, limit_ns=5 * SECOND)

        record = done[0]
        assert record.state == "done", record.reason
        assert record.chunks >= 1
        assert cluster.directory.version == record.version == 1
        # Traffic never stopped: ops committed while the move was running.
        assert pump.commits > 0
        # Routing flipped for exactly the moved range.
        for key in moving:
            assert cluster.directory.shard_of_key(key) == 1
        for key in staying:
            assert cluster.directory.shard_of_key(key) == 0

        # Invariant #8, client-visible half: every committed write is
        # still readable at its new home — nothing lost in the move.
        expect = {k: b"seed-" + k for k in moving + staying + other}
        expect.update(pump.committed)
        for key, value in expect.items():
            result = read(cluster, router, key)
            assert result.committed
            assert value in result.replies[0], key
        # The source group left a tombstone, not data: its replicas all
        # agree the unit moved.
        for app in cluster.tx_apps(0):
            facts = app.moved_units()
            assert [f for f in facts.values()
                    if f[0] == RangeUnit(0, QUARTER)]
        cluster.stop()

    def test_move_to_current_owner_is_refused(self):
        cluster = build_kv()
        rebalancer = cluster.make_rebalancer()
        try:
            rebalancer.move_range(0, QUARTER, 0)
            raised = False
        except Exception:
            raised = True
        assert raised
        cluster.stop()


class TestTableMove:
    def test_sql_table_moves_between_groups(self):
        table_map = {"ledger0": 0, "ledger1": 1}

        def schema(shard):
            return (
                f"CREATE TABLE ledger{shard} (id INTEGER PRIMARY KEY, "
                "who TEXT NOT NULL, amount INTEGER NOT NULL);"
            )

        def lock_keys(op):
            from repro.apps.sqlapp import decode_sql_op, tables_of_sql
            sql, _ = decode_sql_op(op)
            return tuple(f"table:{t}".encode() for t in tables_of_sql(sql))

        cluster = build_sharded_cluster(
            2, config=shard_campaign_config(), seed=11, real_crypto=False,
            inner_app_factory=lambda s: SqlApplication(
                schema_sql=schema(0) + schema(1)
            ),
            codec_factory=SqlShardCodec, keys_of=lock_keys,
            table_map=table_map, num_routers=1, router_hosts=1,
        )
        router = cluster.routers[0]
        for who, amount in (("alice", 10), ("bob", 20), ("carol", 30)):
            results = []
            router.invoke(
                encode_sql_op(
                    "INSERT INTO ledger0 (who, amount) VALUES (?, ?)",
                    (who, amount),
                ),
                callback=results.append,
            )
            _drive(cluster, lambda: results)
            assert results and results[0].committed

        done = []
        rebalancer = cluster.make_rebalancer()
        rebalancer.move_table("ledger0", 1, on_done=done.append)
        _drive(cluster, lambda: done)
        record = done[0]
        assert record.state == "done", record.reason
        assert cluster.directory.shard_of_table("ledger0") == 1

        # The rows are served from the new group, through the router.
        results = []
        router.invoke(
            encode_sql_op("SELECT who, amount FROM ledger0", ()),
            callback=results.append,
        )
        _drive(cluster, lambda: results)
        assert results and results[0].committed
        reply = results[0].replies[0]
        for who in (b"alice", b"bob", b"carol"):
            assert who in reply
        cluster.stop()


class TestDriverCrash:
    def crash_and_resume(self, crash_point):
        cluster = build_kv()
        router = cluster.routers[0]
        moving = keys_in_range(0, QUARTER, 2)
        put_all(cluster, router, [(k, b"seed-" + k) for k in moving])

        rebalancer = cluster.make_rebalancer(chunk_budget=128)
        rebalancer.crash_point = crash_point
        rebalancer.move_range(0, QUARTER, 1)
        _drive(cluster, lambda: rebalancer.crashed)
        assert rebalancer.crashed
        assert cluster.directory.version == 0  # nothing published

        # A fresh driver reconstructs the move from replicated state.
        done = []
        successor = cluster.make_rebalancer(chunk_budget=128)
        mig_id = successor.resume(on_done=done.append)
        assert mig_id is not None
        _drive(cluster, lambda: done)
        record = done[0]
        assert record.state == "done", record.reason
        assert record.resumed
        assert cluster.directory.version == record.version

        for key in moving:
            assert cluster.directory.shard_of_key(key) == 1
            result = read(cluster, router, key)
            assert result.committed
            assert b"seed-" + key in result.replies[0]
        # Exactly-once: the moved data exists at the destination and only
        # a tombstone remains at the source.
        for app in cluster.tx_apps(0):
            assert app.migrations() == {}
            assert len(app.moved_units()) == 1
        cluster.stop()

    def test_crash_after_copy_then_resume(self):
        self.crash_and_resume("after_copy")

    def test_crash_after_activate_then_resume(self):
        self.crash_and_resume("after_activate")

    def test_resume_with_nothing_in_flight_returns_none(self):
        cluster = build_kv()
        rebalancer = cluster.make_rebalancer()
        assert rebalancer.resume() is None
        cluster.stop()


class TestRouterStaleness:
    def test_stale_router_heals_through_wrong_shard_redirect(self):
        cluster = build_kv()
        router = cluster.routers[0]
        key = keys_in_range(0, QUARTER, 1)[0]
        put_all(cluster, router, [(key, b"payload")])

        # This router snapshots the directory *before* the move and never
        # hears the publish: its first routed op goes to the old owner.
        stale = cluster.add_router(private_directory=True)
        assert stale.directory is not cluster.directory

        done = []
        rebalancer = cluster.make_rebalancer(chunk_budget=128)
        rebalancer.move_range(0, QUARTER, 1, on_done=done.append)
        _drive(cluster, lambda: done)
        assert done[0].state == "done", done[0].reason
        assert stale.directory.version == 0

        results = []
        stale.invoke(Get(key).encode(), callback=results.append)
        _drive(cluster, lambda: results)
        assert results and results[0].committed
        assert b"payload" in results[0].replies[0]
        # Healing took exactly one redirect — well under the retry bound —
        # and installed the authoritative version in the private copy.
        assert stale.stats["wrong_shard_redirects"] == 1
        assert stale.directory.version == done[0].version
        assert stale.directory.shard_of_key(key) == 1

        # The next op routes straight to the new owner: no new redirect.
        again = []
        stale.invoke(Get(key).encode(), callback=again.append)
        _drive(cluster, lambda: again)
        assert again and again[0].committed
        assert stale.stats["wrong_shard_redirects"] == 1
        cluster.stop()

    def test_byzantine_redirect_cannot_poison_the_directory(self):
        # One Byzantine replica forges a WRONG_SHARD redirect for a key
        # that never moved.  The client needs f+1 matching replies, and
        # the forger is alone: the honest quorum's answer wins, the op
        # succeeds, and the router learns no "fact".
        cluster = build_kv()
        router = cluster.routers[0]
        key = keys_in_range(0, QUARTER, 1)[0]
        put_all(cluster, router, [(key, b"truth")])

        target = Get(key).encode()
        liar = cluster.tx_apps(0)[0]
        honest_execute = liar.execute

        def forged(op, *args, **kwargs):
            if op == target:
                return ReplyWrongShard(RangeUnit(0, QUARTER), 1, 99).encode()
            return honest_execute(op, *args, **kwargs)

        liar.execute = forged

        results = []
        router.invoke(target, callback=results.append)
        _drive(cluster, lambda: results)
        assert results and results[0].committed
        assert b"truth" in results[0].replies[0]
        assert router.stats["wrong_shard_redirects"] == 0
        assert cluster.directory.version == 0
        assert cluster.directory.shard_of_key(key) == 0
        cluster.stop()


# Shortened phases for the campaign smoke runs: every rebalance scenario
# starts its move at 100ms and its latest fault at 150ms, well inside the
# window.
FAST = dict(run_ns=600 * MILLISECOND, drain_ns=2500 * MILLISECOND)


class TestRebalanceCampaign:
    def test_smoke_scenarios_pass_all_invariants(self):
        for scenario in rebalance_smoke_scenarios():
            result = run_shard_scenario(scenario, seed=1, **FAST)
            assert result.ok, (
                f"{scenario.name}: {[str(v) for v in result.violations]}"
            )
            assert result.completed_ops > 0

    def test_churn_overlapping_migration_regression_seed(self):
        # Pinned: at this seed the source group's churned replica crashes
        # inside the move's freeze/copy window (verified when the seed
        # was pinned — re-verify before changing either side).
        scenario = next(
            s for s in rebalance_scenarios()
            if s.name == "rebalance-under-churn"
        )
        result = run_shard_scenario(
            scenario, seed=CHURN_REGRESSION_SEED,
            run_ns=700 * MILLISECOND, drain_ns=2500 * MILLISECOND,
        )
        assert result.ok, [str(v) for v in result.violations]

    def test_battery_covers_driver_and_primary_crash_points(self):
        names = {s.name for s in rebalance_scenarios()}
        assert "rebalance-live" in names
        assert "rebalance-driver-crash-after-freeze" in names
        assert "rebalance-driver-crash-after-copy" in names
        assert "rebalance-driver-crash-after-activate" in names
        assert "rebalance-src-primary-crash" in names
        assert "rebalance-dst-primary-crash" in names
        assert "rebalance-under-churn" in names
