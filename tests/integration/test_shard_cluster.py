"""Sharded deployment end-to-end: routing, 2PC, recovery, campaign smoke.

Each test builds a real multi-group deployment (every shard a full
4-replica PBFT group on one simulated fabric) and drives it through
routers — the same stack the shard bench and fault campaign use.
"""

import pytest

from repro.apps.kvstore import Get, encode_put
from repro.apps.sqlapp import SqlApplication, encode_sql_op
from repro.common.errors import ShardError
from repro.common.units import MILLISECOND, SECOND
from repro.faults.invariants import check_cross_shard_atomicity
from repro.shard import (
    DECISION_COMMIT,
    SqlShardCodec,
    build_sharded_cluster,
    key_for_shard,
    run_shard_scenario,
    shard_campaign_config,
    smoke_scenarios,
)
from repro.shard.campaign import _execute_shard, shard_scenarios
from repro.shard.topology import ShardedCluster


def _drive(cluster, box_filled, limit_ns=5 * SECOND):
    deadline = cluster.sim.now + limit_ns
    while not box_filled() and cluster.sim.now < deadline:
        cluster.run_for(10 * MILLISECOND)


class TestKvSharding:
    def test_single_shard_put_routes_directly(self):
        cluster = build_sharded_cluster(
            2, config=shard_campaign_config(), seed=11, real_crypto=False,
            num_routers=1, router_hosts=1,
        )
        router = cluster.routers[0]
        key = key_for_shard(cluster.directory, 1, "solo")
        results = []
        router.invoke(encode_put(key, b"v1"), callback=results.append)
        _drive(cluster, lambda: results)
        assert results and results[0].committed
        cluster.stop()

    def test_cross_shard_txn_commits_atomically(self):
        cluster = build_sharded_cluster(
            2, config=shard_campaign_config(), seed=11, real_crypto=False,
            num_routers=1, router_hosts=1,
        )
        router = cluster.routers[0]
        k0 = key_for_shard(cluster.directory, 0, "pair")
        k1 = key_for_shard(cluster.directory, 1, "pair")
        results = []
        txid = router.invoke_txn(
            [encode_put(k0, b"left"), encode_put(k1, b"right")],
            callback=results.append,
        )
        _drive(cluster, lambda: results)
        assert results and results[0].committed

        # Every replica of both groups recorded the same commit outcome.
        for shard in range(2):
            for app in cluster.tx_apps(shard):
                assert app.outcomes().get(txid) == DECISION_COMMIT
        assert check_cross_shard_atomicity(cluster.groups) == []

        # The transaction's writes are visible on the direct path.
        reads = []
        router.invoke(Get(k1).encode(), callback=reads.append)
        _drive(cluster, lambda: reads)
        assert reads and b"right" in reads[0].replies[0]
        cluster.stop()


class TestSqlSharding:
    @staticmethod
    def ledger_cluster():
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

        return build_sharded_cluster(
            2, config=shard_campaign_config(), seed=11, real_crypto=False,
            inner_app_factory=lambda s: SqlApplication(schema_sql=schema(s)),
            codec_factory=SqlShardCodec, keys_of=lock_keys,
            table_map=table_map, num_routers=1, router_hosts=1,
        )

    def test_unparseable_statement_is_refused_at_invoke(self):
        cluster = self.ledger_cluster()
        with pytest.raises(ShardError, match=r"touches shards \(\)"):
            cluster.routers[0].invoke(encode_sql_op("SELEC who FROM ledger0"))
        cluster.stop()

    def test_cross_shard_transfer(self):
        cluster = self.ledger_cluster()
        router = cluster.routers[0]
        results = []
        router.invoke_txn(
            [
                encode_sql_op(
                    "INSERT INTO ledger0 (who, amount) VALUES (?, ?)",
                    ("alice", -40),
                ),
                encode_sql_op(
                    "INSERT INTO ledger1 (who, amount) VALUES (?, ?)",
                    ("alice", 40),
                ),
            ],
            callback=results.append,
        )
        _drive(cluster, lambda: results)
        assert results and results[0].committed
        assert check_cross_shard_atomicity(cluster.groups) == []
        cluster.stop()


class TestRecovery:
    def test_coordinator_crash_resolved_by_reconciliation(self):
        # Router 0 crashes right after its PREPAREs land: both shards
        # hold locks for a transaction whose coordinator will never
        # decide.  The reconciliation sweep must presume abort, release
        # the locks everywhere, and leave atomicity intact.
        cluster = build_sharded_cluster(
            2, config=shard_campaign_config(), seed=11, real_crypto=False,
            num_routers=1, router_hosts=1,
        )
        router = cluster.routers[0]
        router.crash_point = "after_prepare"
        k0 = key_for_shard(cluster.directory, 0, "stranded")
        k1 = key_for_shard(cluster.directory, 1, "stranded")
        txid = router.invoke_txn([encode_put(k0, b"x"), encode_put(k1, b"x")])
        _drive(cluster, lambda: router.crashed)
        cluster.run_for(200 * MILLISECOND)
        assert any(
            txid in app.prepared_txids() for app in cluster.tx_apps(0)
        )

        reconciled = cluster.reconcile()
        assert reconciled == 1
        cluster.run_for(200 * MILLISECOND)
        for shard in range(2):
            for app in cluster.tx_apps(shard):
                assert txid not in app.prepared_txids()
        assert check_cross_shard_atomicity(cluster.groups) == []
        cluster.stop()


# Shortened phases: every smoke scenario's faults still trigger and heal
# well inside the window (latest trigger is at 150ms).
FAST = dict(run_ns=600 * MILLISECOND, drain_ns=2500 * MILLISECOND)


class TestCampaignSmoke:
    def test_smoke_scenarios_pass_all_invariants(self):
        for scenario in smoke_scenarios():
            result = run_shard_scenario(scenario, seed=1, **FAST)
            assert result.ok, (
                f"{scenario.name}: {[str(v) for v in result.violations]}"
            )
            assert result.completed_ops > 0

    def test_sharded_runs_check_membership_safety(self, monkeypatch):
        # Invariant #7 holds per group of a sharded deployment too: forge
        # a divergent epoch boundary on one replica of shard 1 as the run
        # shuts down, and the per-group checks must report it.
        stop = ShardedCluster.stop

        def forge_then_stop(cluster):
            a, b = cluster.groups[1].replicas[:2]
            a.reconfig.epoch_marks = [(0, 0), (16, 1)]
            b.reconfig.epoch_marks = [(0, 0), (24, 1)]
            stop(cluster)

        monkeypatch.setattr(ShardedCluster, "stop", forge_then_stop)
        result = run_shard_scenario(
            smoke_scenarios()[0], seed=1,
            run_ns=100 * MILLISECOND, drain_ns=500 * MILLISECOND,
        )
        assert {v.invariant for v in result.violations} == {"membership-safety"}

    def test_traced_rerun_reproduces_the_untraced_run(self):
        # A failing run's forensic re-run turns tracing on; it must take
        # the same send path and so replay the same execution.  Lossy
        # links put the drop and link-fault path under both runs.
        scenario = {s.name: s for s in shard_scenarios()}["shard0-lossy-replica-links"]

        def fingerprint(trace):
            result, cluster = _execute_shard(scenario, seed=1, trace=trace, **FAST)
            roots = [
                replica.state.refresh_tree()
                for group in cluster.groups
                for replica in group.replicas
            ]
            return (
                cluster.sim.events_scheduled,
                result.invoked_ops,
                result.completed_ops,
                result.sim_time_ns,
                result.fault_log,
                roots,
            ), cluster.obs.tracer.events

        untraced, no_events = fingerprint(False)
        traced, events = fingerprint(True)
        assert no_events == [] and events
        assert traced == untraced

    def test_scenarios_cover_router_and_replica_faults(self):
        names = {s.name for s in shard_scenarios()}
        assert "coordinator-crash-mid-prepare" in names
        assert "participant-timeout" in names
        assert any("primary" in n for n in names)
