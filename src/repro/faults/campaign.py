"""The campaign runner: schedules × seeds, invariants checked after each.

One *run* builds a fresh deterministic cluster, drives a closed-loop
client workload, lets a :class:`~repro.faults.injector.FaultInjector`
apply one :class:`~repro.faults.schedule.FaultSchedule`, waits for every
fault to heal, drains outstanding operations, and then checks the
protocol invariants of :mod:`repro.faults.invariants`.  A *campaign*
sweeps a list of schedules across a list of RNG seeds.

This module owns that procedure for every deployment: :class:`Ledger`,
:func:`run_phases`, :func:`group_violations`, :func:`with_forensics` and
:func:`run_campaign` are shared; :func:`execute` is the single-group run,
:mod:`repro.shard.campaign` supplies the sharded one, and
:mod:`repro.harness.membershipbench` observes :func:`execute` under churn.

Everything is deterministic in (schedule, seed): a failing run can be
re-executed with tracing enabled to produce a Chrome trace plus a
minimized protocol event log for forensics — which is exactly what
happens automatically when ``artifact_dir`` is set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.common.units import MILLISECOND
from repro.obs import Observability
from repro.obs.export import jsonl_record
from repro.pbft.cluster import Cluster, build_cluster
from repro.pbft.config import PbftConfig
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    Violation,
    check_agreement,
    check_checkpoint_monotone,
    check_flood_liveness,
    check_liveness,
    check_membership_safety,
    check_no_committed_loss,
)
from repro.faults.schedule import FaultSchedule

PAYLOAD = bytes(128)


def campaign_config() -> PbftConfig:
    """The small/fast cluster configuration campaigns run against."""
    return PbftConfig(
        num_clients=3,
        checkpoint_interval=16,
        log_window=32,
        client_retransmit_ns=60 * MILLISECOND,
        client_retransmit_cap_ns=500 * MILLISECOND,
        view_change_timeout_ns=250 * MILLISECOND,
        status_interval_ns=100 * MILLISECOND,
        # Overload defenses sized for the Byzantine-client schedules: a
        # small queue budget so floods actually press against it, a tight
        # size limit for the oversized-client run, and a penalty box that
        # trips well inside a spam window.
        pending_queue_budget=32,
        max_request_bytes=4096,
        penalty_box_threshold=5,
        penalty_box_ns=200 * MILLISECOND,
        busy_retry_hint_ns=20 * MILLISECOND,
        client_busy_backoff_ns=20 * MILLISECOND,
        client_busy_backoff_cap_ns=200 * MILLISECOND,
    )


@dataclass
class RunResult:
    """Verdict of one (schedule, seed) run."""

    schedule: str
    seed: int
    violations: list[Violation]
    invoked_ops: int
    completed_ops: int
    max_view: int
    sim_time_ns: int
    fault_log: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    """All runs of one schedules × seeds sweep."""

    runs: list[RunResult]

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def failed_runs(self) -> list[RunResult]:
        return [run for run in self.runs if not run.ok]


@dataclass
class Ledger:
    """What the workload did: every executor fills one, every check reads it."""

    invoked: list[tuple[int, int]] = field(default_factory=list)
    completed: list[tuple[int, int]] = field(default_factory=list)
    completed_at_ns: list[int] = field(default_factory=list)
    issuing: bool = True


def _start_workload(cluster: Cluster, ledger: Ledger) -> None:
    for client in cluster.clients:

        def submit(client=client) -> None:
            def done(_res, _lat) -> None:
                ledger.completed.append((client.node_id, req.req_id))
                ledger.completed_at_ns.append(cluster.sim.now)
                if ledger.issuing:
                    submit(client)

            req = client.invoke(PAYLOAD, callback=done)
            ledger.invoked.append((client.node_id, req.req_id))

        submit()


def run_phases(
    top,
    injectors: list[FaultInjector],
    ledger: Ledger,
    busy: Callable[[], bool],
    run_ns: int,
    drain_ns: int,
    settle_ns: int,
) -> list[Violation]:
    """Main phase, drain, settle — over a ``Cluster`` or a ``ShardedCluster``.

    The caller has already started the workload and the injectors, and
    stops both afterwards; ``busy()`` says whether work is still in flight.
    Returns a violation for each injector with a fault that never fired
    or never healed by the main phase's hard cap: its schedule did not
    test what it declares.
    """
    step = 10 * MILLISECOND
    # Main phase: at least run_ns, extended until every fault has applied
    # and healed (bounded so a never-firing trigger cannot hang the run).
    deadline = top.sim.now + run_ns
    hard_cap = deadline + drain_ns
    while top.sim.now < deadline or (
        not all(injector.quiescent for injector in injectors)
        and top.sim.now < hard_cap
    ):
        top.run_for(step)
    unsettled = [
        Violation(
            "faults-healed",
            f"schedule {injector.schedule.name!r}: {len(injector.pending)} "
            f"fault(s) never triggered and {injector.open_heals} heal(s) "
            "still open at the hard cap",
        )
        for injector in injectors
        if not injector.quiescent
    ]

    # Drain: stop issuing new work, let in-flight operations finish.
    ledger.issuing = False
    drain_deadline = top.sim.now + drain_ns
    while busy() and top.sim.now < drain_deadline:
        top.run_for(step)
    # Settle: no client traffic; status gossip catches stragglers up
    # before the committed-loss check examines their watermarks.
    top.run_for(settle_ns)
    return unsettled


def group_violations(
    group: Cluster, injector: FaultInjector, completed: list[tuple[int, int]]
) -> list[Violation]:
    """The per-group invariants, for every group of every deployment."""
    return (
        check_agreement(group)
        + check_no_committed_loss(group, completed)
        + check_checkpoint_monotone(injector.stability_samples)
        + check_membership_safety(group)
    )


def execute(
    schedule: FaultSchedule,
    seed: int,
    config: PbftConfig | None = None,
    run_ns: int = 1200 * MILLISECOND,
    drain_ns: int = 3000 * MILLISECOND,
    settle_ns: int = 400 * MILLISECOND,
    trace: bool = False,
    before_faults: Callable[[Cluster], None] | None = None,
) -> tuple[RunResult, Cluster, Ledger]:
    """One single-group run.  ``before_faults(cluster)`` installs observers
    once the workload is running and before the injector starts."""
    obs = Observability(tracing=trace)
    cluster = build_cluster(
        config or campaign_config(), seed=seed, real_crypto=False, obs=obs
    )
    injector = FaultInjector(cluster, schedule)
    ledger = Ledger()
    _start_workload(cluster, ledger)
    if before_faults is not None:
        before_faults(cluster)
    injector.start()
    unsettled = run_phases(
        cluster,
        [injector],
        ledger,
        lambda: any(client.pending is not None for client in cluster.clients),
        run_ns,
        drain_ns,
        settle_ns,
    )
    injector.stop()
    cluster.stop_clients()

    violations = (
        unsettled
        + group_violations(cluster, injector, ledger.completed)
        + check_liveness(ledger.invoked, ledger.completed)
        + check_flood_liveness(
            injector.client_fault_windows, ledger.completed_at_ns
        )
    )
    result = RunResult(
        schedule=schedule.name,
        seed=seed,
        violations=violations,
        invoked_ops=len(ledger.invoked),
        completed_ops=len(ledger.completed),
        max_view=max(r.view for r in cluster.replicas),
        sim_time_ns=cluster.sim.now,
        fault_log=list(injector.log),
    )
    return result, cluster, ledger


def _dump_artifacts(result: RunResult, cluster, artifact_dir: str) -> list[str]:
    """Chrome trace + minimized protocol event log for a failed run."""
    os.makedirs(artifact_dir, exist_ok=True)
    stem = os.path.join(artifact_dir, f"{result.schedule}-seed{result.seed}")
    trace_path = stem + ".trace.json"
    events_path = stem + ".events.jsonl"
    cluster.obs.write_chrome_trace(trace_path)
    keep_cats = ("pbft", "net.drop", "client")
    with open(events_path, "w", encoding="utf-8") as fh:
        for violation in result.violations:
            fh.write(json.dumps({"violation": str(violation)}) + "\n")
        for line in result.fault_log:
            fh.write(json.dumps({"fault": line.strip()}) + "\n")
        for event in cluster.obs.tracer.events:
            if event.kind == "instant" and event.cat.startswith(keep_cats):
                fh.write(json.dumps(jsonl_record(event)) + "\n")
    return [trace_path, events_path]


def with_forensics(
    execute_once: Callable[[bool], tuple], trace: bool, artifact_dir: str | None
) -> RunResult:
    """Run ``execute_once(trace)``; dump forensics if an invariant broke.

    ``execute_once`` returns ``(result, cluster)``.  The artifact pass
    re-executes the identical run with tracing enabled — determinism makes
    the re-run reproduce the failure, so the trace captures the actual
    violating execution without paying for tracing on healthy runs.
    """
    result, cluster = execute_once(trace)
    if result.violations and artifact_dir is not None:
        if not trace:
            result, cluster = execute_once(True)
        result.artifacts = _dump_artifacts(result, cluster, artifact_dir)
    return result


def run_schedule(
    schedule: FaultSchedule,
    seed: int,
    trace: bool = False,
    artifact_dir: str | None = None,
    **run_kwargs,
) -> RunResult:
    """Run one schedule at one seed; dump forensics if an invariant broke.
    ``run_kwargs`` (config, run_ns, drain_ns, settle_ns) go to :func:`execute`."""
    return with_forensics(
        lambda trace: execute(schedule, seed, trace=trace, **run_kwargs)[:2],
        trace,
        artifact_dir,
    )


def run_campaign(
    items: list, seeds: list[int], run_one=run_schedule, **run_kwargs
) -> CampaignResult:
    """Sweep every item (schedule or scenario) across every seed;
    ``run_kwargs`` (config, phase lengths, artifact_dir) go to ``run_one``."""
    return CampaignResult(
        runs=[run_one(item, seed, **run_kwargs) for item in items for seed in seeds]
    )
