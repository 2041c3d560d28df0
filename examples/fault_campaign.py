#!/usr/bin/env python3
"""The fault-injection campaigns: scenarios × seeds, invariants after each.

One CLI, three suites (``--suite``), one executor underneath
(``repro.faults.campaign``):

* ``group`` (default) — every built-in fault schedule against one PBFT
  group: primary/backup crash and restart, primary partition,
  lossy/delaying/duplicating/reordering links, mute primary, equivocating
  primary, a replica withholding reply bodies, the Byzantine clients
  (flooding, invalid-MAC spam, oversized requests), Markov replica churn,
  and a live replica replace.
* ``shard`` — four routers (every fourth operation a cross-shard
  transaction on deliberately colliding hot keys) against two PBFT groups
  while the group schedules hit shard 0 or the routing tier itself fails:
  coordinator crash mid-prepare, coordinator crash after the decision is
  durable, a participant shard partitioned past the prepare timeout.  The
  full sweep includes the rebalance battery.
* ``rebalance`` — a ``ShardRebalancer`` moves a quarter of the hash space
  from shard 0 to shard 1 mid-run while nothing goes wrong, the driver
  crashes after FREEZE / the copy / ACTIVATE (a successor must resume the
  move exactly once), either group's primary crashes mid-migration, or a
  source replica rides a Markov fail/repair chain over the freeze/copy
  window (smoke adds that scenario at its pinned regression seed, whose
  outages are *verified* to land inside the move).

After every run the protocol invariants are checked — per group:
agreement (replicas never diverge), no committed-op loss across view
changes, monotone checkpoint stability, membership safety (same epoch
installed at the same boundary everywhere); per run: client liveness once
every fault has healed and honest-client liveness while a Byzantine client
misbehaves; and on the sharded suites cross-shard atomicity (no
transaction committed on one shard and aborted on another) and migration
safety (every committed write readable at the unit's current owner, and
nowhere else) — eight in all.

A failing run is deterministically re-executed with tracing enabled and
dumps a Chrome trace plus a minimized event log under ``--artifacts``.

Run:  python examples/fault_campaign.py [--suite group|shard|rebalance]
          [--smoke] [--seeds N] [--artifacts DIR]
      python examples/fault_campaign.py --degraded
      --smoke is the CI-sized sweep: one seed, shortened phases; all 14
      group schedules, three shard scenarios, or three rebalance scenarios
      plus the pinned churn seed.
      --degraded skips the campaign: it crashes one backup, then the
      primary, under the 12-client 1 KiB null load and exits non-zero if
      the surviving three replicas serve below 90 % of pre-crash ops/sim-s.
Exits non-zero if any invariant was violated.
"""

import argparse
import sys
import time

from repro.common.units import MILLISECOND
from repro.faults import builtin_schedules, run_campaign, run_schedule
from repro.harness.experiments import run_degraded_experiment
from repro.harness.reporting import format_campaign
from repro.shard.campaign import (
    CHURN_REGRESSION_SEED,
    rebalance_scenarios,
    rebalance_smoke_scenarios,
    run_shard_scenario,
    shard_scenarios,
    smoke_scenarios,
)

# suite -> (scenarios, smoke scenarios, run_one, default seeds, smoke phases).
# Smoke phases: every group schedule applies and heals all of its faults
# well inside 800 ms (CI's campaign grid sweeps five seeds at these
# timings); the sharded suites' latest trigger is at 150 ms
# and a resumed driver-crash move needs headroom to re-drive, so they keep
# a 600 ms window and a long drain.
_GROUP_SMOKE = dict(run_ns=800 * MILLISECOND, drain_ns=2000 * MILLISECOND)
_SHARD_SMOKE = dict(run_ns=600 * MILLISECOND, drain_ns=2500 * MILLISECOND)
SUITES = {
    "group": (builtin_schedules, builtin_schedules, run_schedule, 5, _GROUP_SMOKE),
    "shard": (shard_scenarios, smoke_scenarios, run_shard_scenario, 2, _SHARD_SMOKE),
    "rebalance": (
        rebalance_scenarios, rebalance_smoke_scenarios, run_shard_scenario, 2,
        _SHARD_SMOKE,
    ),
}


DEGRADED_FLOOR = 0.9


def degraded_check() -> int:
    """Three of four replicas are a full quorum and must serve like one."""
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
        "--suite", choices=sorted(SUITES), default="group",
        help="which deployment and scenario list to sweep (default group)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="single-seed sweep with shortened phases, sized for CI",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="number of RNG seeds to sweep per scenario "
        "(default 5 for group, 2 for shard and rebalance)",
    )
    parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="directory for Chrome traces + event logs of failing runs",
    )
    parser.add_argument(
        "--degraded", action="store_true",
        help="instead of the campaign, check that a 3-of-4 group keeps "
        "90%% of pre-crash throughput",
    )
    args = parser.parse_args()
    if args.degraded:
        return degraded_check()

    full, smoke, run_one, default_seeds, smoke_phases = SUITES[args.suite]
    scenarios = smoke() if args.smoke else full()
    seeds = [1] if args.smoke else list(range(1, (args.seeds or default_seeds) + 1))
    timings = smoke_phases if args.smoke else {}
    start = time.time()
    campaign = run_campaign(
        scenarios, seeds, run_one=run_one, artifact_dir=args.artifacts, **timings
    )
    if args.smoke and args.suite == "rebalance":
        # The pinned regression: at this seed the churned replica's down
        # periods overlap the freeze/copy window (verified when the seed
        # was pinned — see CHURN_REGRESSION_SEED).  The full sweep already
        # covers the scenario at every seed.
        churn = [
            s for s in rebalance_scenarios() if s.name == "rebalance-under-churn"
        ][0]
        campaign.runs.append(
            run_shard_scenario(
                churn, CHURN_REGRESSION_SEED,
                run_ns=700 * MILLISECOND, drain_ns=2500 * MILLISECOND,
                artifact_dir=args.artifacts,
            )
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
