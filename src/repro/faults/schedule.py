"""Declarative fault schedules.

A :class:`FaultSchedule` is data, not code: a named list of fault
declarations, each bound to a :class:`Trigger` saying *when* it fires
(wall-clock time, committed sequence number, and/or installed view) and,
where applicable, how long the disturbance lasts.  The
:class:`~repro.faults.injector.FaultInjector` turns the declarations into
concrete actions against a running cluster; keeping the two apart means a
schedule can be swept across RNG seeds, printed in a report, and replayed
exactly when an invariant fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.units import MILLISECOND


@dataclass(frozen=True)
class Trigger:
    """When a fault fires: every specified condition must hold.

    ``at_ns`` compares against simulated time; ``at_seq`` against the
    highest committed sequence number on any live replica; ``at_view``
    against the highest installed view.  A trigger with no conditions
    fires immediately.
    """

    at_ns: int | None = None
    at_seq: int | None = None
    at_view: int | None = None

    def ready(self, now_ns: int, max_seq: int, max_view: int) -> bool:
        if self.at_ns is not None and now_ns < self.at_ns:
            return False
        if self.at_seq is not None and max_seq < self.at_seq:
            return False
        if self.at_view is not None and max_view < self.at_view:
            return False
        return True

    def describe(self) -> str:
        parts = []
        if self.at_ns is not None:
            parts.append(f"t>={self.at_ns / MILLISECOND:.0f}ms")
        if self.at_seq is not None:
            parts.append(f"seq>={self.at_seq}")
        if self.at_view is not None:
            parts.append(f"view>={self.at_view}")
        return " and ".join(parts) if parts else "immediately"


@dataclass(frozen=True)
class CrashReplica:
    """Crash one replica; optionally restart it after a delay."""

    replica: int
    at: Trigger = field(default_factory=Trigger)
    restart_after_ns: int | None = 400 * MILLISECOND

    def describe(self) -> str:
        tail = (
            f", restart +{self.restart_after_ns / MILLISECOND:.0f}ms"
            if self.restart_after_ns is not None
            else ", no restart"
        )
        return f"crash replica{self.replica} ({self.at.describe()}{tail})"


@dataclass(frozen=True)
class PartitionFault:
    """Cut every link between two host groups, then heal exactly those."""

    group_a: frozenset[str]
    group_b: frozenset[str]
    start: Trigger = field(default_factory=Trigger)
    heal_after_ns: int = 400 * MILLISECOND

    def describe(self) -> str:
        return (
            f"partition {sorted(self.group_a)} | {sorted(self.group_b)} "
            f"({self.start.describe()}, heal +{self.heal_after_ns / MILLISECOND:.0f}ms)"
        )


@dataclass(frozen=True)
class LinkDisturbance:
    """A windowed per-link drop/delay/duplicate/reorder disturbance.

    ``src``/``dst`` are host-name patterns (``fnmatch`` style, e.g.
    ``"replica*"``); the window opens at ``start`` and closes after
    ``duration_ns``.
    """

    src: str = "*"
    dst: str = "*"
    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 400 * MILLISECOND
    drop_probability: float = 0.0
    extra_delay_ns: int = 0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0

    def describe(self) -> str:
        effects = []
        if self.drop_probability:
            effects.append(f"drop {self.drop_probability:.0%}")
        if self.extra_delay_ns:
            effects.append(f"delay +{self.extra_delay_ns / MILLISECOND:.1f}ms")
        if self.duplicate_probability:
            effects.append(f"dup {self.duplicate_probability:.0%}")
        if self.reorder_probability:
            effects.append(f"reorder {self.reorder_probability:.0%}")
        return (
            f"disturb {self.src}->{self.dst} [{', '.join(effects) or 'no-op'}] "
            f"({self.start.describe()}, {self.duration_ns / MILLISECOND:.0f}ms window)"
        )


@dataclass(frozen=True)
class MutePrimary:
    """Silence the *current* primary: it receives but sends nothing.

    Models a live process behind a dead NIC — the silent-primary failure
    only client retransmissions and view-change timers can detect.
    """

    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 400 * MILLISECOND

    def describe(self) -> str:
        return (
            f"mute primary ({self.start.describe()}, "
            f"{self.duration_ns / MILLISECOND:.0f}ms)"
        )


@dataclass(frozen=True)
class EquivocatingPrimary:
    """Make the *current* primary assign conflicting pre-prepares.

    Backups split between two batch digests; neither side can gather a
    commit quorum, so the window ends in a view change that must not lose
    committed operations.
    """

    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 300 * MILLISECOND

    def describe(self) -> str:
        return (
            f"equivocating primary ({self.start.describe()}, "
            f"{self.duration_ns / MILLISECOND:.0f}ms)"
        )


@dataclass(frozen=True)
class WithholdFullReplies:
    """Make one replica answer digest-only even when it is the designated
    replier, retransmissions included.

    Its votes still count, so every request it is designated for reaches
    a reply quorum with no body.  Clients must get the body from another
    responder (the full-reply fetch) rather than wait out a retransmit
    timer per request.
    """

    replica: int
    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 400 * MILLISECOND

    def describe(self) -> str:
        return (
            f"replica{self.replica} withholds full replies "
            f"({self.start.describe()}, {self.duration_ns / MILLISECOND:.0f}ms)"
        )


@dataclass(frozen=True)
class FloodingClient:
    """A registered Byzantine client firing requests far faster than it
    waits for replies, aimed at the primary's batching queue.

    The admission pipeline should hold it to one in-flight operation
    (``inflight_capped`` strikes the rest) while honest clients keep
    completing work — the flood-liveness invariant checks exactly that.
    """

    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 400 * MILLISECOND
    interval_ns: int = 2 * MILLISECOND
    payload_bytes: int = 128

    def describe(self) -> str:
        return (
            f"flooding client, 1 req/{self.interval_ns / MILLISECOND:.2f}ms "
            f"at the primary ({self.start.describe()}, "
            f"{self.duration_ns / MILLISECOND:.0f}ms)"
        )


@dataclass(frozen=True)
class InvalidMacSpammer:
    """An unregistered principal spraying garbage-MAC requests at every
    replica: the penalty-box workload.  Every datagram fails
    authentication; after ``penalty_box_threshold`` failures the sender
    is muted and the rest of the flood is dropped at header-peek cost.
    """

    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 300 * MILLISECOND
    interval_ns: int = 1 * MILLISECOND
    payload_bytes: int = 128

    def describe(self) -> str:
        return (
            f"invalid-MAC spammer, 1 msg/{self.interval_ns / MILLISECOND:.1f}ms "
            f"to all replicas ({self.start.describe()}, "
            f"{self.duration_ns / MILLISECOND:.0f}ms)"
        )


@dataclass(frozen=True)
class OversizedClient:
    """A registered client submitting operations beyond
    ``max_request_bytes``; every one must be rejected with a
    BUSY/oversized reply before touching the queue.  ``payload_bytes``
    of ``None`` means twice the configured limit.
    """

    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 300 * MILLISECOND
    interval_ns: int = 10 * MILLISECOND
    payload_bytes: int | None = None

    def describe(self) -> str:
        size = "2x limit" if self.payload_bytes is None else f"{self.payload_bytes}B"
        return (
            f"oversized-request client ({size}, {self.start.describe()}, "
            f"{self.duration_ns / MILLISECOND:.0f}ms)"
        )


@dataclass(frozen=True)
class MarkovChurn:
    """Continuous-time fail/repair churn on one replica.

    The replica alternates exponentially distributed up/down periods (a
    two-state Markov chain) for ``duration_ns``: crash after ~Exp(mean_up),
    restart after ~Exp(mean_down), repeat.  The analytic steady-state
    availability of one replica is ``mean_up / (mean_up + mean_down)``;
    :func:`repro.harness.membershipbench.analytic_availability` lifts that
    to the 2f+1-of-n quorum availability the campaign measures against.
    """

    replica: int
    mean_up_ns: int = 400 * MILLISECOND
    mean_down_ns: int = 100 * MILLISECOND
    duration_ns: int = 2000 * MILLISECOND
    start: Trigger = field(default_factory=Trigger)

    def describe(self) -> str:
        return (
            f"markov churn replica{self.replica} "
            f"(up~Exp({self.mean_up_ns / MILLISECOND:.0f}ms), "
            f"down~Exp({self.mean_down_ns / MILLISECOND:.0f}ms), "
            f"{self.start.describe()}, "
            f"{self.duration_ns / MILLISECOND:.0f}ms window)"
        )


@dataclass(frozen=True)
class ReplicaReplace:
    """Replace the replica in one slot with a brand-new machine.

    The injector submits the ordered RECONFIG_REPLACE system op through a
    client, waits for it to commit, and then performs the physical swap
    (:meth:`repro.pbft.cluster.Cluster.replace_replica`): fresh keys,
    empty state, bootstrap via status gossip and state transfer.
    """

    slot: int
    at: Trigger = field(default_factory=Trigger)

    def describe(self) -> str:
        return f"replace replica{self.slot} ({self.at.describe()})"


Fault = (
    CrashReplica
    | PartitionFault
    | LinkDisturbance
    | MutePrimary
    | EquivocatingPrimary
    | WithholdFullReplies
    | FloodingClient
    | InvalidMacSpammer
    | OversizedClient
    | MarkovChurn
    | ReplicaReplace
)


@dataclass(frozen=True)
class FaultSchedule:
    """A named, ordered set of fault declarations for one campaign run."""

    name: str
    description: str
    faults: tuple[Fault, ...]

    def validate(self, n: int) -> None:
        if not self.name:
            raise ConfigError("fault schedule needs a name")
        for fault in self.faults:
            if (
                isinstance(fault, (CrashReplica, WithholdFullReplies))
                and not 0 <= fault.replica < n
            ):
                raise ConfigError(
                    f"schedule {self.name!r} targets unknown replica {fault.replica}"
                )
            if isinstance(fault, MarkovChurn):
                if not 0 <= fault.replica < n:
                    raise ConfigError(
                        f"schedule {self.name!r} churns unknown replica "
                        f"{fault.replica}"
                    )
                if fault.mean_up_ns <= 0 or fault.mean_down_ns <= 0:
                    raise ConfigError(
                        f"schedule {self.name!r}: churn means must be positive"
                    )
            if isinstance(fault, ReplicaReplace) and not 0 <= fault.slot < n:
                raise ConfigError(
                    f"schedule {self.name!r} replaces unknown slot {fault.slot}"
                )

    def describe(self) -> list[str]:
        return [fault.describe() for fault in self.faults]
