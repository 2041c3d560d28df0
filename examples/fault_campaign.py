#!/usr/bin/env python3
"""The fault-injection campaign: schedules × seeds, invariants after each.

Every built-in fault schedule — primary/backup crash and restart, primary
partition, lossy/delaying/duplicating/reordering links, mute primary,
equivocating primary, a replica withholding reply bodies, the Byzantine
clients (flooding, invalid-MAC spam, oversized requests), Markov replica
churn, and a live replica replace — runs against a fresh deterministic cluster at each RNG seed.  After every
run the protocol invariants are checked:

* agreement (replicas never diverge),
* no committed-op loss across view changes,
* monotone checkpoint stability,
* client liveness once every fault has healed,
* honest-client liveness while a Byzantine client misbehaves,
* membership safety (same epoch installed at the same boundary
  everywhere).

A failing run is deterministically re-executed with tracing enabled and
dumps a Chrome trace plus a minimized event log under ``--artifacts``.

Run:  python examples/fault_campaign.py [--smoke] [--seeds N] [--workers W]
          [--artifacts DIR]
      python examples/fault_campaign.py --degraded
      --smoke runs one seed per schedule (the CI-sized sweep).
      --degraded skips the campaign: it crashes one backup, then the
      primary, under the 12-client 1 KiB null load and exits non-zero if
      the surviving three replicas serve below 90 % of pre-crash ops/sim-s.
      --workers W farms the schedule × seed grid across W processes; each
      cell carries its seed explicitly, so the report is identical at any
      worker count.
Exits non-zero if any invariant was violated.
"""

import argparse
import sys
import time

from repro.common.units import MILLISECOND
from repro.harness import format_campaign, run_fault_campaign


def run_campaign_parallel(seeds, artifact_dir, timings, workers):
    """The same schedule × seed grid, farmed through the sweep runner."""
    from repro.faults import builtin_schedules
    from repro.faults.campaign import CampaignResult, RunResult
    from repro.harness import SweepCell, run_cells

    params = dict(timings)
    if artifact_dir is not None:
        params["artifact_dir"] = artifact_dir
    cells = [
        SweepCell(
            kind="fault-schedule",
            scenario=schedule.name,
            params={"schedule": schedule.name, **params},
            seed=seed,
        )
        for schedule in builtin_schedules()
        for seed in seeds
    ]
    results = run_cells(cells, base_seed=seeds[0], workers=workers)
    return CampaignResult(runs=[
        RunResult(
            schedule=r["schedule"],
            seed=r["seed"],
            violations=r["violations"],
            invoked_ops=r["invoked_ops"],
            completed_ops=r["completed_ops"],
            max_view=r["max_view"],
            sim_time_ns=r["sim_time_ns"],
            artifacts=r["artifacts"],
        )
        for r in results
    ])


DEGRADED_FLOOR = 0.9


def degraded_check() -> int:
    """Three of four replicas are a full quorum and must serve like one."""
    from repro.harness import run_degraded_experiment

    worst = 1.0
    for victim, role in ((2, "backup"), (0, "primary")):
        result = run_degraded_experiment(crash_replica=victim)
        fetches = sum(c.full_reply_fetches for c in result.cluster.clients)
        print(
            f"crash {role} replica{victim}: {result.before_tps:,.0f} -> "
            f"{result.after_tps:,.0f} ops/sim-s ({result.ratio:.1%} of pre-crash; "
            f"failover {result.failover_ns / MILLISECOND:.0f} ms, "
            f"{fetches} full-reply fetches)"
        )
        worst = min(worst, result.ratio)
    if worst < DEGRADED_FLOOR:
        print(f"FAIL: degraded service below {DEGRADED_FLOOR:.0%} of pre-crash")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="single-seed sweep sized for CI (runs in well under 30 s)",
    )
    parser.add_argument(
        "--seeds", type=int, default=5, metavar="N",
        help="number of RNG seeds to sweep per schedule (default 5)",
    )
    parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="directory for Chrome traces + event logs of failing runs",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="W",
        help="processes to farm the schedule × seed grid across "
        "(default 1 = in-process)",
    )
    parser.add_argument(
        "--degraded", action="store_true",
        help="instead of the campaign, check that a 3-of-4 group keeps "
        "90%% of pre-crash throughput",
    )
    args = parser.parse_args()
    if args.degraded:
        return degraded_check()

    seeds = [1] if args.smoke else list(range(1, args.seeds + 1))
    # Smoke mode shortens the phases too: every built-in schedule still
    # applies and heals all of its faults well inside the 800 ms window
    # (tests/integration/test_fault_campaign.py sweeps all seeds at these
    # timings), and the sweep fits CI's budget with room to spare.
    timings = (
        dict(run_ns=800 * MILLISECOND, drain_ns=2000 * MILLISECOND)
        if args.smoke
        else {}
    )
    start = time.time()
    if args.workers > 1:
        campaign = run_campaign_parallel(
            seeds, args.artifacts, timings, args.workers
        )
    else:
        campaign = run_fault_campaign(
            seeds=seeds, artifact_dir=args.artifacts, **timings
        )
    wall = time.time() - start

    print(format_campaign(campaign))
    print(f"wall time: {wall:.1f}s for {len(campaign.runs)} runs")
    for run in campaign.failed_runs:
        for path in run.artifacts:
            print(f"  forensics: {path}")
    return 0 if campaign.ok else 1


if __name__ == "__main__":
    sys.exit(main())
