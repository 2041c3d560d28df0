"""Declarative fault schedules.

A :class:`FaultSchedule` is data, not code: a named list of fault
declarations, one class per fault shape, each with a ``start``
:class:`Trigger` saying *when* it fires (simulated time and/or committed
sequence number) and, where the fault is a window, a ``duration_ns``
saying how long it lasts.  The
:class:`~repro.faults.injector.FaultInjector` turns the declarations into
concrete actions against a running cluster; keeping the two apart means a
schedule can be swept across RNG seeds, printed in a report, and replayed
exactly when an invariant fails.

Host names and patterns (partitions, link disturbances) are written as
for a single group ("replica0", "replica*"); the injector resolves them
against the group it drives (see :mod:`repro.faults.injector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.common.units import MILLISECOND


@dataclass(frozen=True)
class Trigger:
    """When a fault fires: every specified condition must hold.

    ``at_ns`` compares against simulated time; ``at_seq`` against the
    highest committed sequence number on any live replica.  A trigger
    with no conditions fires immediately.
    """

    at_ns: int | None = None
    at_seq: int | None = None

    def ready(self, now_ns: int, max_seq: int) -> bool:
        if self.at_ns is not None and now_ns < self.at_ns:
            return False
        if self.at_seq is not None and max_seq < self.at_seq:
            return False
        return True

    def describe(self) -> str:
        parts = []
        if self.at_ns is not None:
            parts.append(f"t>={self.at_ns / MILLISECOND:.0f}ms")
        if self.at_seq is not None:
            parts.append(f"seq>={self.at_seq}")
        return " and ".join(parts) if parts else "immediately"


@dataclass(frozen=True)
class CrashReplica:
    """Crash one replica; optionally restart it after a delay."""

    replica: int
    start: Trigger = field(default_factory=Trigger)
    restart_after_ns: int | None = 400 * MILLISECOND

    def describe(self) -> str:
        tail = (
            f", restart +{self.restart_after_ns / MILLISECOND:.0f}ms"
            if self.restart_after_ns is not None
            else ", no restart"
        )
        return f"crash replica{self.replica} ({self.start.describe()}{tail})"


@dataclass(frozen=True)
class PartitionFault:
    """Cut every link between two host groups, then heal exactly those."""

    group_a: frozenset[str]
    group_b: frozenset[str]
    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 400 * MILLISECOND

    def on_hosts(self, resolve) -> PartitionFault:
        return replace(
            self,
            group_a=frozenset(map(resolve, self.group_a)),
            group_b=frozenset(map(resolve, self.group_b)),
        )

    def describe(self) -> str:
        return (
            f"partition {sorted(self.group_a)} | {sorted(self.group_b)} "
            f"({self.start.describe()}, heal +{self.duration_ns / MILLISECOND:.0f}ms)"
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

    def on_hosts(self, resolve) -> LinkDisturbance:
        return replace(self, src=resolve(self.src), dst=resolve(self.dst))

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


# Replica misbehaviour flags a FlagWindow may set, each with how the log
# names the window ("{who}" is "primary" or "replicaN") and its close:
# * muted — the replica receives but sends nothing: a live process behind
#   a dead NIC, the silent primary only client retransmissions and
#   view-change timers can detect;
# * equivocate — a primary assigns conflicting pre-prepares; backups split
#   between two batch digests, neither side gathers a commit quorum, and
#   the view change that ends it must not lose committed operations;
# * withhold_full_replies — the replica votes on every request but answers
#   digest-only even when it is the designated replier, retransmissions
#   included; clients must fetch the body from another responder (the
#   full-reply fetch) rather than wait out a retransmit timer per request.
FLAGS = {
    "muted": ("mute {who}", "unmute replica{slot}"),
    "equivocate": ("equivocating {who}", "replica{slot} stops equivocating"),
    "withhold_full_replies": (
        "{who} withholds full replies",
        "replica{slot} sends full replies again",
    ),
}


@dataclass(frozen=True)
class FlagWindow:
    """Set a misbehaviour flag (a key of :data:`FLAGS`) on one replica for
    ``duration_ns``: the named ``replica``, or with ``replica=None``
    whichever replica is primary when the window opens."""

    flag: str
    replica: int | None = None
    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 400 * MILLISECOND

    def describe(self) -> str:
        who = "primary" if self.replica is None else f"replica{self.replica}"
        return (
            f"{FLAGS[self.flag][0].format(who=who)} "
            f"({self.start.describe()}, {self.duration_ns / MILLISECOND:.0f}ms)"
        )


# Datagram kinds a RogueClient may send, each with how the log names the
# sender (an unregistered one is a bare "principal"), what it sends, and
# its stream:
# * flood — a registered client fires requests at the primary far faster
#   than it waits for replies; the admission pipeline should hold it to
#   one in-flight operation (``inflight_capped`` strikes the rest) while
#   honest clients keep completing work;
# * invalid-mac — an unregistered principal sprays garbage-MAC requests at
#   every replica: the penalty-box workload.  Every datagram fails
#   authentication; after ``penalty_box_threshold`` failures the sender
#   is muted and the rest is dropped at header-peek cost;
# * oversized — a registered client submits operations of twice
#   ``max_request_bytes``; each must be rejected with a BUSY/oversized
#   reply before touching the queue.
ROGUE_KINDS = {
    "flood": ("client", "flood requests", "flood"),
    "invalid-mac": ("principal", "garbage datagrams", "invalid-MAC spam"),
    "oversized": ("client", "oversized requests", "oversized spam"),
}


@dataclass(frozen=True)
class RogueClient:
    """A Byzantine client outside the workload population sending one
    datagram of ``kind`` (one of :data:`ROGUE_KINDS`) every
    ``interval_ns`` for ``duration_ns``.  Honest clients must keep
    completing work inside the window (the flood-liveness invariant)."""

    kind: str
    start: Trigger = field(default_factory=Trigger)
    duration_ns: int = 400 * MILLISECOND
    interval_ns: int = 2 * MILLISECOND

    def describe(self) -> str:
        window = f"{self.start.describe()}, {self.duration_ns / MILLISECOND:.0f}ms"
        interval_ms = self.interval_ns / MILLISECOND
        if self.kind == "flood":
            return f"flooding client, 1 req/{interval_ms:.2f}ms at the primary ({window})"
        if self.kind == "invalid-mac":
            return f"invalid-MAC spammer, 1 msg/{interval_ms:.1f}ms to all replicas ({window})"
        return f"oversized-request client (2x limit, {window})"


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
    start: Trigger = field(default_factory=Trigger)

    def describe(self) -> str:
        return f"replace replica{self.slot} ({self.start.describe()})"


Fault = (
    CrashReplica
    | PartitionFault
    | LinkDisturbance
    | FlagWindow
    | RogueClient
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
            replica = getattr(fault, "replica", getattr(fault, "slot", None))
            if replica is not None and not 0 <= replica < n:
                raise ConfigError(
                    f"schedule {self.name!r} targets unknown replica {replica}"
                )
            if isinstance(fault, MarkovChurn) and (
                fault.mean_up_ns <= 0 or fault.mean_down_ns <= 0
            ):
                raise ConfigError(
                    f"schedule {self.name!r}: churn means must be positive"
                )
            if isinstance(fault, FlagWindow) and fault.flag not in FLAGS:
                raise ConfigError(
                    f"schedule {self.name!r}: unknown replica flag {fault.flag!r}"
                )
            if isinstance(fault, RogueClient) and fault.kind not in ROGUE_KINDS:
                raise ConfigError(
                    f"schedule {self.name!r}: unknown rogue-client kind "
                    f"{fault.kind!r}"
                )

    def describe(self) -> list[str]:
        return [fault.describe() for fault in self.faults]
