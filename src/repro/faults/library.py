"""Built-in fault schedules: the standard campaign sweep.

Each schedule targets one of the robustness mechanisms the paper found
fragile in practice: view changes (primary crash, mute, equivocation),
recovery and key re-learning (backup crash/restart), and the
retransmission paths (partitions, loss, duplication, reordering).
Timings assume the :func:`repro.faults.campaign.campaign_config` cluster
(250 ms view-change timeout, 60 ms client retransmit base).
"""

from __future__ import annotations

from repro.common.units import MILLISECOND
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


def primary_crash_restart() -> FaultSchedule:
    return FaultSchedule(
        name="primary-crash-restart",
        description="Crash the view-0 primary mid-run; it restarts after "
        "the group has changed views and must rejoin via recovery.",
        faults=(
            CrashReplica(
                replica=0,
                start=Trigger(at_ns=300 * MILLISECOND),
                restart_after_ns=400 * MILLISECOND,
            ),
        ),
    )


def backup_crash_restart() -> FaultSchedule:
    return FaultSchedule(
        name="backup-crash-restart",
        description="Crash a backup once real work has committed (seq "
        "trigger); its restart exercises checkpoint restore and "
        "session-key re-learning without a view change.",
        faults=(
            CrashReplica(
                replica=2,
                start=Trigger(at_seq=20),
                restart_after_ns=300 * MILLISECOND,
            ),
        ),
    )


def primary_partition() -> FaultSchedule:
    return FaultSchedule(
        name="primary-partition",
        description="Isolate the primary from every backup; clients keep "
        "reaching it, so only their multicast retransmissions let the "
        "backups depose it.  The heal readmits the deposed primary.",
        faults=(
            PartitionFault(
                group_a=frozenset({"replica0"}),
                group_b=frozenset({"replica1", "replica2", "replica3"}),
                start=Trigger(at_ns=250 * MILLISECOND),
                duration_ns=450 * MILLISECOND,
            ),
        ),
    )


def lossy_replica_links() -> FaultSchedule:
    return FaultSchedule(
        name="lossy-replica-links",
        description="A 5% drop window on every replica-to-replica link: "
        "agreement quorums form only through retransmission backstops "
        "(status gossip, checkpoint retries).",
        faults=(
            LinkDisturbance(
                src="replica*",
                dst="replica*",
                start=Trigger(at_ns=200 * MILLISECOND),
                duration_ns=500 * MILLISECOND,
                drop_probability=0.05,
            ),
        ),
    )


def delay_and_duplicate() -> FaultSchedule:
    return FaultSchedule(
        name="delay-and-duplicate",
        description="3 ms of added one-way delay plus 20% duplication on "
        "all links: timers fire spuriously and every dedup path "
        "(at-most-once execution, vote sets) gets exercised.",
        faults=(
            LinkDisturbance(
                start=Trigger(at_ns=200 * MILLISECOND),
                duration_ns=500 * MILLISECOND,
                extra_delay_ns=3 * MILLISECOND,
                duplicate_probability=0.2,
            ),
        ),
    )


def reorder_storm() -> FaultSchedule:
    return FaultSchedule(
        name="reorder-storm",
        description="30% of replica-bound datagrams arrive far out of "
        "order: prepares before pre-prepares, commits before prepares — "
        "the out-of-order tolerance of the log machinery.",
        faults=(
            LinkDisturbance(
                dst="replica*",
                start=Trigger(at_ns=200 * MILLISECOND),
                duration_ns=500 * MILLISECOND,
                reorder_probability=0.3,
            ),
        ),
    )


def mute_primary() -> FaultSchedule:
    return FaultSchedule(
        name="mute-primary",
        description="The primary falls silent without crashing: it still "
        "receives and executes, but sends nothing.  Only client "
        "retransmissions arm the backups' view-change timers.",
        faults=(
            FlagWindow(
                "muted",
                start=Trigger(at_ns=300 * MILLISECOND),
                duration_ns=400 * MILLISECOND,
            ),
        ),
    )


def equivocating_primary() -> FaultSchedule:
    return FaultSchedule(
        name="equivocating-primary",
        description="A Byzantine primary assigns conflicting pre-prepares "
        "for the same sequence numbers; the split quorum forces a view "
        "change that must preserve every committed operation.",
        faults=(
            FlagWindow(
                "equivocate",
                start=Trigger(at_ns=250 * MILLISECOND),
                duration_ns=300 * MILLISECOND,
            ),
        ),
    )


def withholding_replica() -> FaultSchedule:
    return FaultSchedule(
        name="withholding-replica",
        description="A Byzantine backup votes on every request but never "
        "sends a reply body, not even when designated or re-asked; clients "
        "must fetch the body from another responder instead of stalling "
        "a retransmit interval on every fourth request.",
        faults=(
            FlagWindow(
                "withhold_full_replies",
                replica=1,
                start=Trigger(at_ns=250 * MILLISECOND),
                duration_ns=500 * MILLISECOND,
            ),
        ),
    )


def flooding_client() -> FaultSchedule:
    return FaultSchedule(
        name="flooding-client",
        description="A registered Byzantine client fire-hoses requests at "
        "the primary without awaiting replies; the per-client in-flight "
        "cap must hold it to one slot per cycle while honest clients "
        "keep completing inside the flood window.",
        faults=(
            RogueClient(
                "flood",
                start=Trigger(at_ns=250 * MILLISECOND),
                duration_ns=400 * MILLISECOND,
                # Far faster than the group's execution cycle, so several
                # flood requests always race one admitted slot.
                interval_ns=MILLISECOND // 4,
            ),
        ),
    )


def invalid_mac_spammer() -> FaultSchedule:
    return FaultSchedule(
        name="invalid-mac-spammer",
        description="An unregistered principal sprays garbage-MAC requests "
        "at every replica; after penalty_box_threshold failures each "
        "replica mutes it and drops the rest at header-peek cost.",
        faults=(
            RogueClient(
                "invalid-mac",
                start=Trigger(at_ns=250 * MILLISECOND),
                duration_ns=300 * MILLISECOND,
                interval_ns=1 * MILLISECOND,
            ),
        ),
    )


def oversized_client() -> FaultSchedule:
    return FaultSchedule(
        name="oversized-client",
        description="A registered client submits operations at twice the "
        "max_request_bytes limit; each is rejected with BUSY/oversized "
        "before consuming queue space.",
        faults=(
            RogueClient(
                "oversized",
                start=Trigger(at_ns=250 * MILLISECOND),
                duration_ns=300 * MILLISECOND,
                interval_ns=10 * MILLISECOND,
            ),
        ),
    )


def replace_replica_under_loss() -> FaultSchedule:
    return FaultSchedule(
        name="replace-replica-under-loss",
        description="Order a RECONFIG_REPLACE for a backup slot while every "
        "link drops 1% of datagrams; the fresh machine must bootstrap via "
        "state transfer with zero committed-op loss and the epoch history "
        "agreeing group-wide (invariant #7).",
        faults=(
            LinkDisturbance(
                start=Trigger(at_ns=100 * MILLISECOND),
                duration_ns=1500 * MILLISECOND,
                drop_probability=0.01,
            ),
            ReplicaReplace(
                slot=2,
                start=Trigger(at_ns=400 * MILLISECOND, at_seq=16),
            ),
        ),
    )


def backup_markov_churn() -> FaultSchedule:
    return FaultSchedule(
        name="backup-markov-churn",
        description="A backup alternates exponentially distributed up/down "
        "periods (two-state Markov fail/repair, up~Exp(400ms), "
        "down~Exp(100ms)); every repair exercises restart recovery while "
        "the rest of the group keeps the quorum alive.",
        faults=(
            MarkovChurn(
                replica=3,
                mean_up_ns=400 * MILLISECOND,
                mean_down_ns=100 * MILLISECOND,
                duration_ns=1500 * MILLISECOND,
                start=Trigger(at_ns=200 * MILLISECOND),
            ),
        ),
    )


def builtin_schedules() -> list[FaultSchedule]:
    """The default campaign: every built-in schedule, in sweep order."""
    return [
        primary_crash_restart(),
        backup_crash_restart(),
        primary_partition(),
        lossy_replica_links(),
        delay_and_duplicate(),
        reorder_storm(),
        mute_primary(),
        equivocating_primary(),
        withholding_replica(),
        flooding_client(),
        invalid_mac_spammer(),
        oversized_client(),
        replace_replica_under_loss(),
        backup_markov_churn(),
    ]
