"""Protocol invariants checked after every fault-campaign run.

Eight checks, matching the paper's safety and liveness claims (plus the
sharding and membership layers' contracts):

* **agreement** — replicas never diverge: state roots match at every
  shared stable checkpoint and execution journals agree on every shared
  sequence number;
* **no committed-op loss** — an operation the client observed as
  completed survives every view change: a quorum of live replicas holds
  its per-client execution watermark;
* **monotone checkpoint stability** — a replica's stable checkpoint
  sequence never moves backwards, crash/restart included;
* **client liveness** — once every fault has healed and the drain window
  has passed, no invoked operation is left incomplete;
* **flood liveness** — honest clients keep completing work *during*
  Byzantine-client disturbances, not merely after they heal;
* **cross-shard atomicity** (#6, sharded topologies only) — no
  transaction commits on one shard and aborts on another, regardless of
  partitions, coordinator crashes, and recovery races;
* **membership safety** (#7) — replicas agree on the configuration
  history: epoch boundaries land at the same sequence numbers
  everywhere, and no operation executes under two different epochs;
* **migration safety** (#8, sharded topologies only) — across a live
  rebalance no committed write is lost and no key is served by two
  groups at once: every committed key is readable at exactly the group
  the final directory names as its owner.

Checks return :class:`Violation` lists rather than raising, so a
campaign can keep sweeping and report everything it found.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pbft.cluster import Cluster


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    description: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.description}"


def check_agreement(cluster: Cluster) -> list[Violation]:
    """State roots and execution journals must agree wherever they overlap."""
    violations: list[Violation] = []
    replicas = cluster.replicas
    for seq in sorted({r.checkpoints.stable_seq for r in replicas}):
        roots = {
            r.node_id: cp.root
            for r in replicas
            if (cp := r.checkpoints.get(seq)) is not None
        }
        if len(set(roots.values())) > 1:
            violations.append(
                Violation(
                    "agreement",
                    f"divergent state roots at stable seq {seq}: "
                    + ", ".join(
                        f"replica{rid}={root.hex()[:8]}"
                        for rid, root in sorted(roots.items())
                    ),
                )
            )
    for i, a in enumerate(replicas):
        for b in replicas[i + 1 :]:
            for seq in sorted(set(a.exec_journal) & set(b.exec_journal)):
                ra = [(r.client, r.req_id) for r in a.exec_journal[seq][1]]
                rb = [(r.client, r.req_id) for r in b.exec_journal[seq][1]]
                if ra != rb:
                    violations.append(
                        Violation(
                            "agreement",
                            f"journal divergence at seq {seq} between "
                            f"replica{a.node_id} ({ra}) and "
                            f"replica{b.node_id} ({rb})",
                        )
                    )
    return violations


def check_no_committed_loss(
    cluster: Cluster, completed: list[tuple[int, int]]
) -> list[Violation]:
    """Every client-completed op must survive on a quorum of live replicas.

    A completed op was committed (the client held f+1 stable or 2f+1
    tentative replies), so after view changes and recoveries a quorum of
    live replicas must still carry its per-client execution watermark —
    the watermark is checkpoint-durable, so losing it means the view
    change dropped a committed operation.
    """
    violations: list[Violation] = []
    live = [r for r in cluster.replicas if not r.crashed]
    needed = min(cluster.config.quorum, len(live))
    # Only the highest completed req_id per client matters: watermarks are
    # monotone per client.
    latest: dict[int, int] = {}
    for client_id, req_id in completed:
        latest[client_id] = max(latest.get(client_id, -1), req_id)
    for client_id, req_id in sorted(latest.items()):
        holders = [
            r.node_id
            for r in live
            if r.reqstore.last_executed_req.get(client_id, -1) >= req_id
        ]
        if len(holders) < needed:
            violations.append(
                Violation(
                    "committed-loss",
                    f"client {client_id} op {req_id} completed at the client "
                    f"but only replicas {holders} (need {needed}) still "
                    f"carry its execution watermark",
                )
            )
    return violations


def check_checkpoint_monotone(
    stability_samples: dict[int, list[int]],
) -> list[Violation]:
    """A replica's stable checkpoint seq must never regress."""
    violations: list[Violation] = []
    for rid, samples in sorted(stability_samples.items()):
        for earlier, later in zip(samples, samples[1:]):
            if later < earlier:
                violations.append(
                    Violation(
                        "checkpoint-monotone",
                        f"replica{rid} stable checkpoint regressed "
                        f"{earlier} -> {later}",
                    )
                )
                break  # one report per replica is enough
    return violations


def check_flood_liveness(
    client_fault_windows: list[tuple[int, int]],
    completed_at_ns: list[int],
) -> list[Violation]:
    """Honest clients must keep completing work *during* a client-side
    attack (flood, MAC spam, oversized spam), not merely after it heals.

    ``client_fault_windows`` comes from the injector; ``completed_at_ns``
    are the completion timestamps of the honest workload.  Graceful
    degradation means goodput inside the window stays above zero.
    """
    from repro.common.units import MILLISECOND

    violations: list[Violation] = []
    for start, end in client_fault_windows:
        inside = sum(1 for t in completed_at_ns if start <= t <= end)
        if inside == 0:
            violations.append(
                Violation(
                    "flood-liveness",
                    f"no honest operation completed inside the "
                    f"Byzantine-client window "
                    f"{start / MILLISECOND:.0f}ms-{end / MILLISECOND:.0f}ms",
                )
            )
    return violations


def check_liveness(
    invoked: list[tuple[int, int]], completed: list[tuple[int, int]]
) -> list[Violation]:
    """After faults heal and the drain window passes, nothing is pending."""
    missing = sorted(set(invoked) - set(completed))
    return [
        Violation(
            "liveness",
            f"client {client_id} op {req_id} never completed after faults healed",
        )
        for client_id, req_id in missing
    ]


def check_membership_safety(cluster: Cluster) -> list[Violation]:
    """Invariant #7: replicas agree on the configuration history.

    Two clauses, both over live replicas:

    * **epoch-mark agreement** — wherever two replicas both recorded an
      epoch boundary, they recorded it at the same sequence number: the
      (boundary_seq, epoch) marks of one are a prefix-consistent subset
      of the other's (a bootstrapping replica that adopted state past a
      boundary legitimately misses older marks);
    * **same seq, same configuration** — for every sequence number two
      replicas both executed, :meth:`ReconfigManager.epoch_at` returns
      the same epoch, so no operation was executed under two different
      configurations.
    """
    violations: list[Violation] = []
    live = [r for r in cluster.replicas if not r.crashed]
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            by_epoch_a = {e: s for s, e in a.reconfig.epoch_marks}
            by_epoch_b = {e: s for s, e in b.reconfig.epoch_marks}
            for epoch in sorted(set(by_epoch_a) & set(by_epoch_b)):
                if by_epoch_a[epoch] != by_epoch_b[epoch]:
                    violations.append(
                        Violation(
                            "membership-safety",
                            f"epoch {epoch} installed at seq "
                            f"{by_epoch_a[epoch]} on replica{a.node_id} but "
                            f"seq {by_epoch_b[epoch]} on replica{b.node_id}",
                        )
                    )
            for seq in sorted(set(a.exec_journal) & set(b.exec_journal)):
                ea = a.reconfig.epoch_at(seq)
                eb = b.reconfig.epoch_at(seq)
                if ea != eb:
                    violations.append(
                        Violation(
                            "membership-safety",
                            f"seq {seq} executed under epoch {ea} at "
                            f"replica{a.node_id} but epoch {eb} at "
                            f"replica{b.node_id}",
                        )
                    )
    return violations


def check_cross_shard_atomicity(groups: list[Cluster]) -> list[Violation]:
    """Invariant #6: a transaction's outcome is the same at every shard.

    Each shard's :class:`~repro.shard.txapp.ShardTxApplication` records
    every transaction it applied (1 = committed, 0 = aborted) in
    replicated state.  Two things must hold after the campaign's
    reconciliation sweep:

    * within one shard, no two live replicas recorded *different*
      outcomes for the same transaction (a replica that lags and has no
      record yet is fine — the agreement invariant covers state
      convergence);
    * across shards, every transaction's recorded outcomes agree — the
      "committed on one shard, aborted on another" bug this invariant
      exists to catch.
    """
    violations: list[Violation] = []
    per_shard: dict[int, dict[bytes, int]] = {}
    for shard, group in enumerate(groups):
        merged: dict[bytes, int] = {}
        for replica in group.replicas:
            if replica.crashed:
                continue
            outcomes = getattr(replica.app, "outcomes", None)
            if outcomes is None:
                continue
            for txid, outcome in outcomes().items():
                if txid in merged and merged[txid] != outcome:
                    violations.append(
                        Violation(
                            "cross-shard-atomicity",
                            f"shard {shard}: replicas disagree on txn "
                            f"{txid.hex()[:8]} "
                            f"({merged[txid]} vs {outcome})",
                        )
                    )
                merged[txid] = outcome
        per_shard[shard] = merged
    by_txid: dict[bytes, dict[int, int]] = {}
    for shard, merged in per_shard.items():
        for txid, outcome in merged.items():
            by_txid.setdefault(txid, {})[shard] = outcome
    for txid, shard_outcomes in sorted(by_txid.items()):
        if len(set(shard_outcomes.values())) > 1:
            detail = ", ".join(
                f"shard{shard}={'commit' if oc else 'abort'}"
                for shard, oc in sorted(shard_outcomes.items())
            )
            violations.append(
                Violation(
                    "cross-shard-atomicity",
                    f"txn {txid.hex()[:8]} has mixed outcomes: {detail}",
                )
            )
    return violations


def check_migration_safety(
    groups: list[Cluster],
    directory,
    writes: dict[bytes, bytes],
) -> list[Violation]:
    """Invariant #8: a live migration loses nothing and splits nothing.

    ``writes`` maps every key the workload observed as *committed* to its
    last committed value.  After the run (and any mid-run rebalancing),
    two things must hold against the kv replies of each group's live
    replicas:

    * **nothing lost** — the group the final directory names as the
      key's owner serves the committed value;
    * **nothing split** — no *other* group still serves the key: the
      source of a move must answer with a redirect or a miss, never with
      data, or a stale router could read (and a retried write could
      land) on both sides of a finished move.

    Reads go through the replicas' own execute path (readonly), so a
    frozen or tombstoned unit answers exactly as it would answer a
    client.
    """
    from repro.apps.kvstore import Get
    from repro.shard.txapp import is_tx_reply

    violations: list[Violation] = []
    readers = []
    for group in groups:
        replica = next((r for r in group.replicas if not r.crashed), None)
        readers.append(replica.app if replica is not None else None)
    for key, value in sorted(writes.items()):
        owner = directory.shard_of_key(key)
        for shard, app in enumerate(readers):
            if app is None:
                continue
            reply = app.execute(Get(key).encode(), 0, 0, True)
            served = not is_tx_reply(reply) and reply[:1] == b"\x01"
            if shard == owner:
                if not served:
                    violations.append(
                        Violation(
                            "migration-safety",
                            f"committed key {key!r} unreadable at its owner "
                            f"shard {shard}",
                        )
                    )
                elif value not in reply:
                    violations.append(
                        Violation(
                            "migration-safety",
                            f"owner shard {shard} serves a wrong value for "
                            f"committed key {key!r}",
                        )
                    )
            elif served:
                violations.append(
                    Violation(
                        "migration-safety",
                        f"key {key!r} is served by shard {shard} AND its "
                        f"owner shard {owner} after the move",
                    )
                )
    return violations
