"""Fault campaigns against the sharded topology.

Runs on the spine of :mod:`repro.faults.campaign` — one
:class:`~repro.faults.injector.FaultInjector` per group, ``run_phases``
for run/drain/settle, ``group_violations`` per group, ``with_forensics``
for the deterministic traced re-run, ``run_campaign`` for the sweep —
and supplies only the sharding layer's own concerns (the group schedules
run unchanged: each injector resolves "replica0" or "replica*" to its
own group's "s0-replica0" or "s0-replica*"):

* **router workload** — closed-loop routers mix single-shard writes with
  cross-shard transactions on a small set of shared hot keys, so lock
  collisions, wound-free aborts, and stranded-transaction recovery all
  fire under faults;
* **coordinator-crash scenarios** — the router crash hooks
  (``after_prepare`` / ``after_decide``) strand a transaction mid-2PC,
  and the run only passes if recovery plus the reconciliation sweep
  restore atomicity;
* **invariant #6** — after :meth:`ShardedCluster.reconcile`, no
  transaction may have committed on one shard and aborted on another
  (:func:`repro.faults.invariants.check_cross_shard_atomicity`) and,
  when a range moved, **invariant #8** (``check_migration_safety``), on
  top of the four per-group invariants (agreement, committed-op loss,
  checkpoint monotonicity, membership safety) and the two liveness ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.kvstore import encode_put
from repro.common.errors import ShardError
from repro.common.units import MILLISECOND
from repro.faults.campaign import (
    Ledger,
    RunResult,
    campaign_config,
    group_violations,
    run_phases,
    with_forensics,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    Violation,
    check_cross_shard_atomicity,
    check_flood_liveness,
    check_liveness,
    check_migration_safety,
)
from repro.faults.library import (
    equivocating_primary,
    flooding_client,
    lossy_replica_links,
    primary_crash_restart,
    primary_partition,
)
from repro.faults.schedule import (
    CrashReplica,
    FaultSchedule,
    MarkovChurn,
    PartitionFault,
    Trigger,
)
from repro.obs import Observability
from repro.pbft.config import PbftConfig
from repro.shard.directory import ShardDirectory
from repro.shard.topology import ShardedCluster, build_sharded_cluster

PAYLOAD = bytes(96)

# Campaign topology: small and fast, like the single-group campaigns.
_NUM_SHARDS = 2
_NUM_ROUTERS = 4
_ROUTER_HOSTS = 2
_TXN_EVERY = 4  # every 4th router op is a cross-shard transaction
_HOT_PAIRS = 3  # distinct hot cross-shard key pairs shared by all routers

# Logical operation ids for the liveness ledger live in their own
# namespace so they cannot collide with real PBFT client ids.
_ROUTER_ID_BASE = 1000

# The unit rebalance scenarios move: the lower half of shard 0's default
# stripe.  With two shards that is a quarter of the hash space, so the
# move covers roughly half of shard 0's workload keys.
_MIG_LO, _MIG_HI = 0, 1 << 30

# Pinned regression seed for "rebalance-under-churn": at this seed the
# source replica's first churn outage falls inside the migration's
# freeze/copy window, so drain, re-freeze, and the checkpoint wait all
# run against a group that is flapping.  Keep it pinned — re-rolling the
# seed can move the outage outside the window and quietly stop testing
# the overlap.
CHURN_REGRESSION_SEED = 3


def shard_campaign_config() -> PbftConfig:
    """Per-group configuration for shard campaigns (no direct clients)."""
    return campaign_config().with_options(num_clients=0)


def key_for_shard(
    directory: ShardDirectory, shard: int, tag: str, limit: int = 100_000
) -> bytes:
    """Deterministically find a key the directory places on ``shard``."""
    for i in range(limit):
        key = f"{tag}-{i}".encode()
        if directory.shard_of_key(key) == shard:
            return key
    raise ShardError(f"no key with tag {tag!r} lands on shard {shard}")


_NO_FAULTS = FaultSchedule(
    name="no-faults",
    description="Empty schedule: the injector only samples checkpoints.",
    faults=(),
)


def _participant_timeout_schedule() -> FaultSchedule:
    """Cut shard 1's replicas off from every router host for a while.

    Cross-shard transactions touching shard 1 must abort via the prepare
    timeout instead of wedging; single-shard traffic to shard 0 keeps
    flowing, and after the heal everything drains.
    """
    return FaultSchedule(
        name="participant-timeout",
        description="Partition shard 1 away from the routers: prepares "
        "time out, transactions abort, shard 0 is unaffected.",
        faults=(
            PartitionFault(
                group_a=frozenset(
                    f"s1-replica{rid}" for rid in range(4)
                ),
                group_b=frozenset(
                    f"routerhost{h}" for h in range(_ROUTER_HOSTS)
                ),
                start=Trigger(at_ns=150 * MILLISECOND),
                duration_ns=500 * MILLISECOND,
            ),
        ),
    )


def _mid_migration_primary_crash() -> FaultSchedule:
    """Crash the target group's view-0 primary while a migration is in
    flight (the move starts at 100ms, the crash lands at 150ms)."""
    return FaultSchedule(
        name="mid-migration-primary-crash",
        description="Primary crash while a range migration is mid-copy: "
        "the rebalancer's ordered ops must survive the view change.",
        faults=(
            CrashReplica(
                replica=0,
                start=Trigger(at_ns=150 * MILLISECOND),
                restart_after_ns=250 * MILLISECOND,
            ),
        ),
    )


def _migration_churn_schedule() -> FaultSchedule:
    """Markov fail/repair churn on a source-group backup overlapping the
    whole migration window (satellite: MarkovChurn in the shard sweep)."""
    return FaultSchedule(
        name="migration-churn",
        description="A source-group replica flaps (Markov up/down) while "
        "the unit is frozen, copied, and committed away.",
        faults=(
            MarkovChurn(
                replica=2,
                mean_up_ns=30 * MILLISECOND,
                mean_down_ns=40 * MILLISECOND,
                duration_ns=400 * MILLISECOND,
                start=Trigger(at_ns=80 * MILLISECOND),
            ),
        ),
    )


@dataclass(frozen=True)
class ShardScenario:
    """One sharded campaign run: a schedule on ``target_shard`` plus router
    hooks."""

    name: str
    schedule: FaultSchedule
    target_shard: int = 0
    crash_router_point: Optional[str] = None  # "after_prepare"/"after_decide"
    # Live rebalancing: start moving [_MIG_LO, _MIG_HI) from shard 0 to
    # shard 1 at this sim time; optionally crash the driver at a protocol
    # point ("after_freeze"/"after_copy"/"after_activate") so a successor
    # has to resume() the move from replicated state.
    migrate_at_ns: Optional[int] = None
    rebalancer_crash_point: Optional[str] = None


def shard_scenarios() -> list[ShardScenario]:
    """The default sweep: group-level faults on shard 0 plus 2PC-specific
    coordinator-crash and participant-timeout scenarios."""
    return [
        ShardScenario("shard-baseline", _NO_FAULTS),
        ShardScenario("shard0-primary-crash-restart", primary_crash_restart()),
        ShardScenario("shard0-primary-partition", primary_partition()),
        ShardScenario("shard0-lossy-replica-links", lossy_replica_links()),
        ShardScenario("shard0-equivocating-primary", equivocating_primary()),
        ShardScenario("shard0-flooding-client", flooding_client()),
        ShardScenario(
            "coordinator-crash-mid-prepare",
            _NO_FAULTS,
            crash_router_point="after_prepare",
        ),
        ShardScenario(
            "coordinator-crash-after-decide",
            _NO_FAULTS,
            crash_router_point="after_decide",
        ),
        ShardScenario("participant-timeout", _participant_timeout_schedule()),
    ] + rebalance_scenarios()


def rebalance_scenarios() -> list[ShardScenario]:
    """The migration-safety battery: a live move under traffic, driver
    crashes at every protocol point, a primary crash on either side of
    the move, and churn overlapping the migration window."""
    start = 100 * MILLISECOND
    return [
        ShardScenario("rebalance-live", _NO_FAULTS, migrate_at_ns=start),
        ShardScenario(
            "rebalance-driver-crash-after-freeze",
            _NO_FAULTS,
            migrate_at_ns=start,
            rebalancer_crash_point="after_freeze",
        ),
        ShardScenario(
            "rebalance-driver-crash-after-copy",
            _NO_FAULTS,
            migrate_at_ns=start,
            rebalancer_crash_point="after_copy",
        ),
        ShardScenario(
            "rebalance-driver-crash-after-activate",
            _NO_FAULTS,
            migrate_at_ns=start,
            rebalancer_crash_point="after_activate",
        ),
        ShardScenario(
            "rebalance-src-primary-crash",
            _mid_migration_primary_crash(),
            target_shard=0,
            migrate_at_ns=start,
        ),
        ShardScenario(
            "rebalance-dst-primary-crash",
            _mid_migration_primary_crash(),
            target_shard=1,
            migrate_at_ns=start,
        ),
        ShardScenario(
            "rebalance-under-churn",
            _migration_churn_schedule(),
            target_shard=0,
            migrate_at_ns=start,
        ),
    ]


def smoke_scenarios() -> list[ShardScenario]:
    """The CI subset: one healthy run plus the two 2PC-critical paths."""
    wanted = {
        "shard-baseline",
        "coordinator-crash-mid-prepare",
        "participant-timeout",
    }
    return [s for s in shard_scenarios() if s.name in wanted]


def rebalance_smoke_scenarios() -> list[ShardScenario]:
    """The CI subset of the migration battery: one clean live move, one
    driver-crash resume, and one primary crash mid-migration."""
    wanted = {
        "rebalance-live",
        "rebalance-driver-crash-after-copy",
        "rebalance-src-primary-crash",
    }
    return [s for s in rebalance_scenarios() if s.name in wanted]


def _start_router_workload(
    cluster: ShardedCluster,
    ledger: Ledger,
    inflight: dict[int, tuple[int, int]],
    committed_writes: dict[bytes, bytes],
) -> None:
    """Closed-loop router workload: singles plus hot-key cross-shard txns.

    The hot pairs are shared by every router, so transactions collide:
    lock conflicts, wound-free aborts, and recovery of stranded holders
    all run as part of the normal workload.  A router armed with a
    ``crash_point`` makes its *first* operation a transaction so the
    crash hook fires early and the rest of the run exercises recovery.
    """
    hot_pairs = [
        (
            key_for_shard(cluster.directory, 0, f"hot{j}a"),
            key_for_shard(cluster.directory, 1, f"hot{j}b"),
        )
        for j in range(_HOT_PAIRS)
    ]

    def start(router) -> None:
        state = {"n": 0}

        def submit() -> None:
            if router.crashed or not ledger.issuing:
                return
            n = state["n"]
            state["n"] += 1
            op_id = (_ROUTER_ID_BASE + router.router_id, n)
            ledger.invoked.append(op_id)
            inflight[router.router_id] = op_id

            wants_txn = n % _TXN_EVERY == _TXN_EVERY - 1 or (
                n == 0 and router.crash_point is not None
            )
            if wants_txn:
                keys = hot_pairs[n % len(hot_pairs)]
            else:
                # A bounded per-router key space: overwrites keep the kv
                # store's slot usage flat however long the run is.
                keys = (f"r{router.router_id}-op{n % 32}".encode(),)

            def done(result, keys=keys) -> None:
                if getattr(result, "committed", False):
                    # Invariant #8's ledger: the last committed value per
                    # key (the workload always writes PAYLOAD).
                    for key in keys:
                        committed_writes[key] = PAYLOAD
                ledger.completed.append(op_id)
                ledger.completed_at_ns.append(cluster.sim.now)
                inflight.pop(router.router_id, None)
                submit()

            if wants_txn:
                router.invoke_txn(
                    [encode_put(key, PAYLOAD) for key in keys], callback=done
                )
            else:
                router.invoke(encode_put(keys[0], PAYLOAD), callback=done)

        submit()

    for router in cluster.routers:
        start(router)


def _execute_shard(
    scenario: ShardScenario,
    seed: int,
    config: PbftConfig | None = None,
    run_ns: int = 1200 * MILLISECOND,
    drain_ns: int = 3000 * MILLISECOND,
    settle_ns: int = 400 * MILLISECOND,
    trace: bool = False,
) -> tuple[RunResult, ShardedCluster]:
    obs = Observability(tracing=trace)
    cluster = build_sharded_cluster(
        _NUM_SHARDS,
        config=config or shard_campaign_config(),
        seed=seed,
        real_crypto=False,
        num_routers=_NUM_ROUTERS,
        router_hosts=_ROUTER_HOSTS,
        obs=obs,
    )
    # One injector per group: the target shard runs the scenario's
    # schedule, the others run empty schedules so their checkpoint
    # stability still gets sampled.
    injectors = [
        FaultInjector(
            group,
            scenario.schedule if shard == scenario.target_shard else _NO_FAULTS,
        )
        for shard, group in enumerate(cluster.groups)
    ]
    target = injectors[scenario.target_shard]

    completions: list[tuple[int, int, int]] = []
    for router in cluster.routers:
        router.completion_log = completions
    if scenario.crash_router_point is not None:
        cluster.routers[0].crash_point = scenario.crash_router_point

    ledger = Ledger()
    inflight: dict[int, tuple[int, int]] = {}
    committed_writes: dict[bytes, bytes] = {}
    _start_router_workload(cluster, ledger, inflight, committed_writes)
    for injector in injectors:
        injector.start()

    # Live rebalancing: the driver starts its move mid-run, underneath
    # whatever faults the scenario is injecting.
    moves: list = []
    rebalancer = None
    if scenario.migrate_at_ns is not None:
        rebalancer = cluster.make_rebalancer(chunk_budget=512)
        if scenario.rebalancer_crash_point is not None:
            rebalancer.crash_point = scenario.rebalancer_crash_point
        cluster.sim.schedule(
            scenario.migrate_at_ns,
            lambda: rebalancer.move_range(
                _MIG_LO, _MIG_HI, 1, on_done=moves.append
            ),
        )

    # Drain excuses crashed routers — their stranded transactions are
    # the point.
    violations = run_phases(
        cluster,
        injectors,
        ledger,
        lambda: any(r.busy for r in cluster.routers if not r.crashed),
        run_ns,
        drain_ns,
        settle_ns,
    )

    # Finish the migration: a crashed driver gets a successor that
    # resumes from replicated state; a live one gets time to complete.
    if rebalancer is not None:
        if rebalancer.crashed and not moves:
            successor = cluster.make_rebalancer(chunk_budget=512)
            resumed = successor.resume(on_done=moves.append)
            target.log.append(
                f"{cluster.sim.now / MILLISECOND:9.1f}ms  rebalancer "
                f"crashed at {scenario.rebalancer_crash_point}; successor "
                f"resumed {resumed.hex()[:8] if resumed else 'nothing'}"
            )
        move_deadline = cluster.sim.now + drain_ns
        while not moves and cluster.sim.now < move_deadline:
            cluster.run_for(10 * MILLISECOND)

    # Reconciliation sweep: resolve every leftover prepared transaction
    # before atomicity is judged, exactly as a recovery daemon would.
    reconciled = cluster.reconcile()
    if reconciled:
        target.log.append(
            f"{cluster.sim.now / MILLISECOND:9.1f}ms  reconciled "
            f"{reconciled} stranded transaction(s)"
        )
    cluster.run_for(settle_ns)

    for injector in injectors:
        injector.stop()
    cluster.stop()

    for shard, group in enumerate(cluster.groups):
        group_completed = [
            (client_id, req_id)
            for s, client_id, req_id in completions
            if s == shard
        ]
        violations += group_violations(group, injectors[shard], group_completed)
    crashed_ids = {r.router_id for r in cluster.routers if r.crashed}
    excused = {
        op for rid, op in inflight.items() if rid in crashed_ids
    }
    live_invoked = [op for op in ledger.invoked if op not in excused]
    violations += check_liveness(live_invoked, ledger.completed)
    violations += check_flood_liveness(
        target.client_fault_windows, ledger.completed_at_ns
    )
    violations += check_cross_shard_atomicity(cluster.groups)
    if scenario.migrate_at_ns is not None:
        if not moves or moves[-1].state != "done":
            reason = moves[-1].reason if moves else "never finished"
            violations.append(
                Violation(
                    "migration-safety",
                    f"the scheduled migration did not complete: {reason}",
                )
            )
    violations += check_migration_safety(
        cluster.groups, cluster.directory, committed_writes
    )

    result = RunResult(
        schedule=scenario.name,
        seed=seed,
        violations=violations,
        invoked_ops=len(ledger.invoked),
        completed_ops=len(ledger.completed),
        max_view=max(
            replica.view for group in cluster.groups for replica in group.replicas
        ),
        sim_time_ns=cluster.sim.now,
        fault_log=list(target.log),
    )
    return result, cluster


def run_shard_scenario(
    scenario: ShardScenario,
    seed: int,
    trace: bool = False,
    artifact_dir: str | None = None,
    **run_kwargs,
) -> RunResult:
    """Run one scenario at one seed; dump forensics if an invariant broke.
    ``run_kwargs`` are config, run_ns, drain_ns and settle_ns."""
    return with_forensics(
        lambda trace: _execute_shard(scenario, seed, trace=trace, **run_kwargs),
        trace,
        artifact_dir,
    )
