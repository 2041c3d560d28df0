"""The fault injector: applies a schedule to a running cluster.

A deterministic polling loop on the cluster's simulator evaluates every
pending fault's :class:`~repro.faults.schedule.Trigger` against the
current time and committed sequence, applies those that
fire through the hooks in :mod:`repro.net.fabric` and
:mod:`repro.pbft.replica`, and schedules the matching heal (restart,
unpartition, window close, unmute).  Each poll also samples per-replica
checkpoint stability for the monotonicity invariant.

The injector drives one group, so it resolves the schedule's host names
and patterns against that group when it is built: a name that matches a
fabric host as written is used as written (router hosts, another
shard's replicas, ``"*"``); any other gets the group's prefix
(``"replica*"`` -> ``"s0-replica*"``).  One schedule thus runs on a lone
group or on any shard of a sharded deployment unchanged.

Polling (rather than callbacks buried in the protocol) keeps injection
deterministic and external: the replicas under test never know the
campaign exists.
"""

from __future__ import annotations

from fnmatch import fnmatch

from repro.common.errors import ConfigError
from repro.common.ids import make_client_id
from repro.common.units import MILLISECOND
from repro.net.fabric import LinkFault
from repro.pbft.client import PbftClient
from repro.pbft.cluster import Cluster
from repro.pbft.messages import Request
from repro.pbft.node import AUTH_MAC, CLIENT_PORT, Envelope, replica_address
from repro.faults.schedule import (
    FLAGS,
    ROGUE_KINDS,
    CrashReplica,
    FaultSchedule,
    FlagWindow,
    LinkDisturbance,
    MarkovChurn,
    PartitionFault,
    ReplicaReplace,
    RogueClient,
)

# How often pending triggers are evaluated (and stability sampled).
POLL_INTERVAL_NS = 2 * MILLISECOND
# Operation size of the flooding and invalid-MAC clients.
BYZANTINE_PAYLOAD_BYTES = 128


class FaultInjector:
    """Drives one :class:`FaultSchedule` against one :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        schedule: FaultSchedule,
    ) -> None:
        schedule.validate(cluster.config.n)
        self.cluster = cluster
        self.schedule = schedule
        self.pending = [self._resolve(fault) for fault in schedule.faults]
        self.open_heals = 0  # restarts/heals scheduled but not yet fired
        self.log: list[str] = []  # human-readable applied-fault journal
        # replica id -> list of sampled checkpoint stable seqs (only while
        # the replica is up), for the monotone-stability invariant.
        self.stability_samples: dict[int, list[int]] = {
            r.node_id: [] for r in cluster.replicas
        }
        # (start_ns, end_ns) of every Byzantine-client disturbance, for
        # the flood-liveness invariant (honest clients must complete work
        # *inside* these windows, not merely after they close).
        self.client_fault_windows: list[tuple[int, int]] = []
        self._rogues = 0
        self._timer = None

    # -- host names ---------------------------------------------------------

    def _host(self, name: str) -> str:
        """``name`` as written if it matches a fabric host, else prefixed
        with this group's ``group_prefix``; refused if neither matches."""
        prefixed = self.cluster.config.group_prefix + name
        for candidate in (name, prefixed):
            if any(fnmatch(host, candidate) for host in self.cluster.fabric.hosts):
                return candidate
        raise ConfigError(
            f"schedule {self.schedule.name!r}: neither {name!r} nor "
            f"{prefixed!r} matches a host"
        )

    def _resolve(self, fault):
        """The declaration this group runs; refuses one that would do nothing."""
        if isinstance(fault, LinkDisturbance):
            return fault.on_hosts(self._host)
        if isinstance(fault, PartitionFault):
            fault = fault.on_hosts(self._host)
            # The fabric cuts links between exact host names only.
            patterns = (fault.group_a | fault.group_b) - self.cluster.fabric.hosts.keys()
            if patterns:
                raise ConfigError(
                    f"schedule {self.schedule.name!r}: a partition takes host "
                    f"names, not patterns: {sorted(patterns)}"
                )
        elif (
            isinstance(fault, RogueClient)
            and fault.kind == "oversized"
            and self.cluster.config.max_request_bytes is None
        ):
            raise ConfigError(
                f"schedule {self.schedule.name!r}: an oversized client needs "
                "max_request_bytes set; without a limit nothing is oversized"
            )
        return fault

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self._arm()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def quiescent(self) -> bool:
        """True once every fault has been applied *and* healed."""
        return not self.pending and self.open_heals == 0

    # -- polling ------------------------------------------------------------

    def _arm(self) -> None:
        self._timer = self.cluster.sim.schedule(POLL_INTERVAL_NS, self._poll)

    def _poll(self) -> None:
        self._timer = None
        cluster = self.cluster
        now = cluster.sim.now
        live = [r for r in cluster.replicas if not r.crashed]
        max_seq = max((r.committed_upto for r in live), default=0)
        max_view = max((r.view for r in live), default=0)
        still_pending = []
        for fault in self.pending:
            if fault.start.ready(now, max_seq):
                self._apply(fault, max_view)
            else:
                still_pending.append(fault)
        self.pending = still_pending
        for replica in live:
            self.stability_samples[replica.node_id].append(
                replica.checkpoints.stable_seq
            )
        self._arm()

    # -- application --------------------------------------------------------

    def _note(self, text: str) -> None:
        self.log.append(f"{self.cluster.sim.now / MILLISECOND:9.1f}ms  {text}")

    def _heal_later(self, delay_ns: int, action, text: str) -> None:
        self.open_heals += 1

        def heal() -> None:
            self.open_heals -= 1
            action()
            self._note(text)

        self.cluster.sim.schedule(delay_ns, heal)

    def _apply(self, fault, max_view: int) -> None:
        cluster = self.cluster
        if isinstance(fault, CrashReplica):
            replica = cluster.replicas[fault.replica]
            if replica.crashed:
                self._note(f"skip: replica{fault.replica} already crashed")
                return
            replica.crash()
            self._note(fault.describe())
            if fault.restart_after_ns is not None:
                self._heal_later(
                    fault.restart_after_ns,
                    lambda: self._restart(fault.replica),
                    f"restart replica{fault.replica}",
                )
        elif isinstance(fault, PartitionFault):
            cluster.fabric.partition(set(fault.group_a), set(fault.group_b))
            self._note(fault.describe())
            self._heal_later(
                fault.duration_ns,
                lambda: cluster.fabric.unpartition(
                    set(fault.group_a), set(fault.group_b)
                ),
                f"heal partition {sorted(fault.group_a)} | {sorted(fault.group_b)}",
            )
        elif isinstance(fault, LinkDisturbance):
            link_fault = LinkFault(
                src=fault.src,
                dst=fault.dst,
                drop_probability=fault.drop_probability,
                extra_delay_ns=fault.extra_delay_ns,
                duplicate_probability=fault.duplicate_probability,
                reorder_probability=fault.reorder_probability,
                name=f"{self.schedule.name}:{fault.src}->{fault.dst}",
            )
            cluster.fabric.add_link_fault(link_fault)
            self._note(fault.describe())
            self._heal_later(
                fault.duration_ns,
                lambda: cluster.fabric.remove_link_fault(link_fault),
                f"close disturbance window {fault.src}->{fault.dst}",
            )
        elif isinstance(fault, FlagWindow):
            self._apply_flag_window(fault, max_view)
        elif isinstance(fault, MarkovChurn):
            self._apply_markov_churn(fault)
        elif isinstance(fault, ReplicaReplace):
            self._apply_replica_replace(fault)
        elif isinstance(fault, RogueClient):
            self._apply_rogue_client(fault)
        else:  # pragma: no cover - schedule.validate keeps this unreachable
            raise TypeError(f"unknown fault declaration {fault!r}")

    def _restart(self, slot: int) -> None:
        if self.cluster.restart(slot) is None:
            self._note(f"skip: replica{slot} is already up")

    def _apply_flag_window(self, fault: FlagWindow, max_view: int) -> None:
        """Set a misbehaviour flag on whatever replica holds the slot now,
        and clear it on whatever replica holds the slot when the window
        closes (a restart in between builds a new, well-behaved one)."""
        on_primary = fault.replica is None
        slot = max_view % self.cluster.config.n if on_primary else fault.replica
        setattr(self.cluster.replicas[slot], fault.flag, True)
        self._heal_later(
            fault.duration_ns,
            lambda: setattr(self.cluster.replicas[slot], fault.flag, False),
            FLAGS[fault.flag][1].format(slot=slot),
        )
        self._note(fault.describe() + (f" -> replica{slot}" if on_primary else ""))

    # -- membership drivers ---------------------------------------------------

    def _apply_markov_churn(self, fault: MarkovChurn) -> None:
        """Alternate Exp(mean_up)/Exp(mean_down) crash/restart cycles on one
        replica until the window closes (two-state Markov fail/repair)."""
        cluster = self.cluster
        slot = fault.replica
        rng = cluster.rng.stream(f"churn-{self.schedule.name}-{slot}")
        end = cluster.sim.now + fault.duration_ns
        state = {"transitions": 0}
        self.open_heals += 1
        self._note(fault.describe())

        def finish() -> None:
            cluster.restart(slot)
            self.open_heals -= 1
            self._note(
                f"churn window on replica{slot} ends "
                f"({state['transitions']} fail/repair cycles)"
            )

        def go_down() -> None:
            now = cluster.sim.now
            if now >= end:
                finish()
                return
            replica = cluster.replicas[slot]
            if not replica.crashed:
                replica.crash()
                state["transitions"] += 1
            down = max(1, int(rng.expovariate(1.0 / fault.mean_down_ns)))
            cluster.sim.schedule(min(down, end - now), go_up)

        def go_up() -> None:
            now = cluster.sim.now
            cluster.restart(slot)
            if now >= end:
                finish()
                return
            up = max(1, int(rng.expovariate(1.0 / fault.mean_up_ns)))
            cluster.sim.schedule(min(up, end - now), go_down)

        first_up = max(1, int(rng.expovariate(1.0 / fault.mean_up_ns)))
        cluster.sim.schedule(min(first_up, fault.duration_ns), go_down)

    def _apply_replica_replace(self, fault: ReplicaReplace) -> None:
        """Order a RECONFIG_REPLACE through a client, then physically swap
        the slot's machine and hold the heal open until it bootstraps."""
        from repro.membership.messages import RECONFIG_REPLACE, encode_reconfig_op
        from repro.pbft.reconfig import REPLY_RECONFIG_OK

        cluster = self.cluster
        slot = fault.slot
        operator = self._rogue_client(register=True)
        self.open_heals += 1
        self._note(fault.describe())

        def wait_bootstrapped() -> None:
            replica = cluster.replicas[slot]
            # "Bootstrapped" means actually caught up, not merely done with
            # the recovery handshake (which finishes trivially when no peer
            # status has arrived yet): within one checkpoint interval of
            # the live peers' execution frontier.
            frontier = max(
                (
                    r.last_exec
                    for r in cluster.replicas
                    if not r.crashed and r.node_id != slot
                ),
                default=0,
            )
            caught_up = (
                not replica.crashed
                and not replica.recovering
                and replica.last_exec + cluster.config.checkpoint_interval
                >= frontier
            )
            if caught_up:
                self.open_heals -= 1
                self._note(
                    f"replica{slot} bootstrapped (last_exec {replica.last_exec})"
                )
            else:
                cluster.sim.schedule(20 * MILLISECOND, wait_bootstrapped)

        def swap() -> None:
            # The new incarnation's stable checkpoint starts at 0 until the
            # state transfer lands; the monotone invariant tracks machines,
            # not slots, so its sample series restarts with the machine.
            self.stability_samples[slot] = []
            cluster.replace_replica(slot)
            self._note(f"replica{slot} physically replaced; bootstrapping")
            wait_bootstrapped()

        def on_reply(result: bytes, _lat: int) -> None:
            operator.stop()
            if result != REPLY_RECONFIG_OK:
                self.open_heals -= 1
                self._note(f"reconfig replace slot {slot} rejected: {result!r}")
                return
            cluster.sim.schedule(MILLISECOND, swap)

        operator.invoke(encode_reconfig_op(RECONFIG_REPLACE, slot), callback=on_reply)

    # -- Byzantine-client drivers -------------------------------------------

    def _rogue_client(self, register: bool) -> PbftClient:
        """A fresh client endpoint outside the workload population.

        ``register`` pre-shares its address and session keys at every
        replica (a legitimately admitted but misbehaving client); without
        it the principal is unknown and every MAC it sends fails
        verification.
        """
        cluster = self.cluster
        index = self._rogues
        self._rogues += 1
        client_id = make_client_id(900 + index)
        host = cluster.fabric.add_host(
            f"{cluster.config.group_prefix}byzhost{index}"
        )
        cluster.keys.new_client_keypair(client_id)
        client = PbftClient(
            client_id=client_id,
            config=cluster.config,
            host=host,
            port=CLIENT_PORT + 900 + index,
            keys=cluster.keys,
            real_crypto=cluster.replicas[0].real_crypto,
            obs=cluster.obs,
        )
        if register:
            session = client.generate_session_keys(
                cluster.rng.stream(f"byz-sessions-{index}")
            )
            for replica in cluster.replicas:
                replica.register_client(
                    client_id, client.socket.address, session[replica.node_id]
                )
        return client

    def _apply_rogue_client(self, fault: RogueClient) -> None:
        """Open the honest-liveness window and send one datagram per
        interval until it closes; ``_send_rogue`` picks the datagram."""
        cluster = self.cluster
        sender, sent, stream = ROGUE_KINDS[fault.kind]
        rogue = self._rogue_client(register=sender == "client")
        if fault.kind == "oversized":
            payload = bytes(2 * cluster.config.max_request_bytes + 1)
        else:
            payload = bytes(BYZANTINE_PAYLOAD_BYTES)
        state = {"req_id": 0, "timer": None}

        def tick() -> None:
            state["req_id"] += 1
            self._send_rogue(fault.kind, rogue, state["req_id"], payload)
            state["timer"] = cluster.sim.schedule(fault.interval_ns, tick)

        now = cluster.sim.now
        self.client_fault_windows.append((now, now + fault.duration_ns))
        tick()
        self._note(fault.describe() + f" -> {sender} {rogue.node_id}")

        def stop() -> None:
            if state["timer"] is not None:
                state["timer"].cancel()
            rogue.stop()
            self._note(f"  ... {state['req_id']} {sent} were sent")

        self._heal_later(
            fault.duration_ns, stop,
            f"{stream} from {sender} {rogue.node_id} ends",
        )

    def _send_rogue(self, kind: str, rogue: PbftClient, req_id: int, payload: bytes) -> None:
        """One datagram of the rogue stream ``kind``.  Only an oversized op
        may travel as a big request: the flood's one admitted request per
        cycle keeps its body inline in pre-prepares, so it stays
        executable group-wide."""
        config = self.cluster.config
        req = Request(
            client=rogue.node_id, req_id=req_id, op=payload,
            big=kind == "oversized" and config.is_big(len(payload)),
        )
        if kind == "flood":
            # Fire-and-forget at whoever currently leads: the flooder
            # never waits for replies, which is exactly what the
            # per-client in-flight cap is for.
            view = max(r.view for r in self.cluster.replicas if not r.crashed)
            rogue.broadcast_to_replicas(req, only=[view % config.n])
        elif kind == "oversized":
            rogue.broadcast_to_replicas(req)
        else:
            # Hand-built envelope with a garbage MAC trailer: the node
            # send paths would refuse to fake one, a Byzantine sender
            # has no such scruples.
            env = Envelope(req, AUTH_MAC, b"\xde\xad\xbe\xef", "client",
                           rogue.node_id)
            for rid in range(config.n):
                rogue.host.charge_cpu(config.costs.msg_send_ns)
                rogue.socket.send(
                    replica_address(rid, config.group_prefix),
                    env, env.size, "Request",
                )
