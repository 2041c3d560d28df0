"""The fault-injection campaign: sweep, determinism, and forensics.

Also carries the end-to-end regressions for two protocol bugs the
campaign originally caught on the view-change/retransmit paths (the
``lossy-replica-links`` schedule at seed 2):

* a stable checkpoint advanced ``committed_upto`` over tentatively
  executed slots without finalizing their cached replies, so clients
  retransmitting an already-durable operation kept receiving
  tentative-flagged replies and could never assemble a stable quorum;
* per-client execution watermarks travelled in checkpoints and state
  transfer but the matching replies did not, so a replica that adopted a
  watermark treated retransmissions as already executed while having
  nothing cached to resend — a reply black hole.
"""

import json

from repro.common.units import MILLISECOND
from repro.faults import (
    CrashReplica,
    FaultSchedule,
    Trigger,
    builtin_schedules,
    run_campaign,
    run_schedule,
)
from repro.faults.library import lossy_replica_links, withholding_replica
from repro.obs.report import traffic

# Shortened phases keep the sweep fast; every schedule still applies and
# heals all its faults well inside the run window.
FAST = dict(run_ns=800 * MILLISECOND, drain_ns=2000 * MILLISECOND)


def test_campaign_all_schedules_all_seeds():
    campaign = run_campaign(builtin_schedules(), seeds=[1, 2, 3, 4, 5], **FAST)
    assert len(campaign.runs) == len(builtin_schedules()) * 5
    failures = [
        f"{run.schedule} seed={run.seed}: {[str(v) for v in run.violations]}"
        for run in campaign.failed_runs
    ]
    assert campaign.ok, "\n".join(failures)
    # Every run made real progress and completed everything it invoked.
    for run in campaign.runs:
        assert run.invoked_ops > 0
        assert run.completed_ops == run.invoked_ops


def test_same_seed_same_verdict():
    a = run_schedule(lossy_replica_links(), seed=7, **FAST)
    b = run_schedule(lossy_replica_links(), seed=7, **FAST)
    assert (a.ok, a.invoked_ops, a.completed_ops, a.max_view, a.sim_time_ns) == (
        b.ok, b.invoked_ops, b.completed_ops, b.max_view, b.sim_time_ns
    )
    assert a.fault_log == b.fault_log


def test_lossy_links_regression_tentative_and_transferred_replies():
    # Failed with a liveness violation before the reply-cache fixes: one
    # client retransmitted a durable op for seconds without ever forming
    # a reply quorum (see module docstring).
    result = run_schedule(lossy_replica_links(), seed=2, **FAST)
    assert result.ok, [str(v) for v in result.violations]
    assert result.completed_ops == result.invoked_ops


def test_withholding_replica_costs_a_round_trip_not_a_timeout():
    """A Byzantine backup votes on every request and never sends a body.
    Without the full-reply fetch every fourth request of every client ends
    in a digest quorum with no body and waits out a retransmit interval."""
    clean = run_schedule(FaultSchedule("clean", "no faults", ()), seed=1)
    result = run_schedule(withholding_replica(), seed=1)
    assert result.ok, [str(v) for v in result.violations]
    assert result.completed_ops == result.invoked_ops
    assert result.max_view == 0
    assert any("withholds full replies" in line for line in result.fault_log)
    assert any("sends full replies again" in line for line in result.fault_log)
    # Each of the three clients pays one retransmit interval (60 ms of a
    # 1.2 s run) to learn who is withholding, then a round trip per
    # affected request; at a timeout each it would finish under half.
    assert result.completed_ops >= 0.9 * clean.completed_ops, (
        result.completed_ops, clean.completed_ops
    )


def test_violation_dumps_artifacts(tmp_path):
    # f+1 permanent crashes destroy the quorum: liveness must trip, and
    # the campaign must re-run deterministically with tracing to dump a
    # Chrome trace plus a minimized event log.
    fatal = FaultSchedule(
        name="quorum-loss",
        description="two permanent crashes (f=1): agreement halts",
        faults=(
            CrashReplica(replica=2, at=Trigger(at_ns=100 * MILLISECOND),
                         restart_after_ns=None),
            CrashReplica(replica=3, at=Trigger(at_ns=100 * MILLISECOND),
                         restart_after_ns=None),
        ),
    )
    result = run_schedule(
        fatal, seed=1,
        run_ns=300 * MILLISECOND, drain_ns=400 * MILLISECOND,
        settle_ns=100 * MILLISECOND, artifact_dir=str(tmp_path),
    )
    assert not result.ok
    assert any(v.invariant == "liveness" for v in result.violations)
    assert len(result.artifacts) == 2
    trace_path, events_path = result.artifacts
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert traffic(trace["traceEvents"]).messages_by_kind["Prepare"] > 0
    lines = [json.loads(line) for line in open(events_path, encoding="utf-8")]
    assert any("violation" in line for line in lines)
    assert any("fault" in line for line in lines)
    # Protocol events share write_jsonl's record schema.
    instants = [line for line in lines if line.get("kind") == "instant"]
    assert instants and all("ts_ns" in line and "track" in line for line in instants)


def test_fault_log_records_apply_and_heal():
    result = run_schedule(lossy_replica_links(), seed=1, **FAST)
    assert any("drop" in line for line in result.fault_log)
    assert any("close disturbance window" in line for line in result.fault_log)
