"""repro.faults — deterministic fault-injection campaigns.

Declarative :class:`FaultSchedule`s (crash/restart, partitions, windowed
link disturbances, replica misbehaviour flag windows, rogue-client
streams, Markov churn, replica replacement) are applied to a running
cluster by a polling :class:`FaultInjector`; the campaign runner
sweeps schedules × RNG seeds and checks the protocol invariants after
every run — agreement, no committed-op loss, monotone checkpoint
stability, client liveness, flood liveness, cross-shard atomicity, and
membership safety.  On violation it re-runs the identical
(schedule, seed) pair with tracing enabled and dumps a Chrome trace plus
a minimized event log via :mod:`repro.obs`.
"""

from repro.faults.campaign import (
    CampaignResult,
    RunResult,
    campaign_config,
    run_campaign,
    run_schedule,
)
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
from repro.faults.library import builtin_schedules
from repro.faults.schedule import (
    CrashReplica,
    FaultSchedule,
    FlagWindow,
    LinkDisturbance,
    MarkovChurn,
    PartitionFault,
    ReplicaReplace,
    RogueClient,
    Trigger,
)

__all__ = [
    "CampaignResult",
    "CrashReplica",
    "FaultInjector",
    "FaultSchedule",
    "FlagWindow",
    "LinkDisturbance",
    "MarkovChurn",
    "PartitionFault",
    "ReplicaReplace",
    "RogueClient",
    "RunResult",
    "Trigger",
    "Violation",
    "builtin_schedules",
    "campaign_config",
    "check_agreement",
    "check_checkpoint_monotone",
    "check_flood_liveness",
    "check_liveness",
    "check_membership_safety",
    "check_no_committed_loss",
    "run_campaign",
    "run_schedule",
]
