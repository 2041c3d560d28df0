"""The fault injector: applies a schedule to a running cluster.

A deterministic polling loop on the cluster's simulator evaluates every
pending fault's :class:`~repro.faults.schedule.Trigger` against the
current time / committed sequence / installed view, applies those that
fire through the hooks in :mod:`repro.net.fabric` and
:mod:`repro.pbft.replica`, and schedules the matching heal (restart,
unpartition, window close, unmute).  Each poll also samples per-replica
checkpoint stability for the monotonicity invariant.

Polling (rather than callbacks buried in the protocol) keeps injection
deterministic and external: the replicas under test never know the
campaign exists.
"""

from __future__ import annotations

from repro.common.ids import make_client_id
from repro.common.units import MILLISECOND
from repro.net.fabric import LinkFault
from repro.pbft.client import PbftClient
from repro.pbft.cluster import Cluster
from repro.pbft.messages import Request
from repro.pbft.node import AUTH_MAC, CLIENT_PORT, Envelope, replica_address
from repro.faults.schedule import (
    CrashReplica,
    EquivocatingPrimary,
    FaultSchedule,
    FloodingClient,
    InvalidMacSpammer,
    LinkDisturbance,
    MarkovChurn,
    MutePrimary,
    OversizedClient,
    PartitionFault,
    ReplicaReplace,
    WithholdFullReplies,
)


class FaultInjector:
    """Drives one :class:`FaultSchedule` against one :class:`Cluster`."""

    def __init__(
        self,
        cluster: Cluster,
        schedule: FaultSchedule,
        poll_interval_ns: int = 2 * MILLISECOND,
    ) -> None:
        schedule.validate(cluster.config.n)
        self.cluster = cluster
        self.schedule = schedule
        self.poll_interval_ns = poll_interval_ns
        self.pending = list(schedule.faults)
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
        self._timer = self.cluster.sim.schedule(self.poll_interval_ns, self._poll)

    def _poll(self) -> None:
        self._timer = None
        cluster = self.cluster
        now = cluster.sim.now
        live = [r for r in cluster.replicas if not r.crashed]
        max_seq = max((r.committed_upto for r in live), default=0)
        max_view = max((r.view for r in live), default=0)
        still_pending = []
        for fault in self.pending:
            trigger = (
                fault.at
                if isinstance(fault, (CrashReplica, ReplicaReplace))
                else fault.start
            )
            if trigger.ready(now, max_seq, max_view):
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
                    replica.restart,
                    f"restart replica{fault.replica}",
                )
        elif isinstance(fault, PartitionFault):
            cluster.fabric.partition(set(fault.group_a), set(fault.group_b))
            self._note(fault.describe())
            self._heal_later(
                fault.heal_after_ns,
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
        elif isinstance(fault, MutePrimary):
            primary = cluster.replicas[max_view % cluster.config.n]
            primary.muted = True
            self._note(f"{fault.describe()} -> replica{primary.node_id}")

            def unmute() -> None:
                primary.muted = False

            self._heal_later(
                fault.duration_ns, unmute, f"unmute replica{primary.node_id}"
            )
        elif isinstance(fault, EquivocatingPrimary):
            primary = cluster.replicas[max_view % cluster.config.n]
            primary.equivocate = True
            self._note(f"{fault.describe()} -> replica{primary.node_id}")

            def stop_equivocating() -> None:
                primary.equivocate = False

            self._heal_later(
                fault.duration_ns,
                stop_equivocating,
                f"replica{primary.node_id} stops equivocating",
            )
        elif isinstance(fault, WithholdFullReplies):
            replica = cluster.replicas[fault.replica]
            replica.withhold_full_replies = True
            self._note(fault.describe())

            def stop_withholding() -> None:
                replica.withhold_full_replies = False

            self._heal_later(
                fault.duration_ns,
                stop_withholding,
                f"replica{fault.replica} sends full replies again",
            )
        elif isinstance(fault, MarkovChurn):
            self._apply_markov_churn(fault)
        elif isinstance(fault, ReplicaReplace):
            self._apply_replica_replace(fault)
        elif isinstance(fault, FloodingClient):
            self._apply_flooding_client(fault)
        elif isinstance(fault, InvalidMacSpammer):
            self._apply_invalid_mac_spammer(fault)
        elif isinstance(fault, OversizedClient):
            self._apply_oversized_client(fault)
        else:  # pragma: no cover - schedule.validate keeps this unreachable
            raise TypeError(f"unknown fault declaration {fault!r}")

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
            replica = cluster.replicas[slot]
            if replica.crashed:
                replica.restart()
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
            replica = cluster.replicas[slot]
            if replica.crashed:
                replica.restart()
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

    def _open_client_fault_window(self, duration_ns: int) -> int:
        start = self.cluster.sim.now
        self.client_fault_windows.append((start, start + duration_ns))
        return start

    def _apply_flooding_client(self, fault: FloodingClient) -> None:
        cluster = self.cluster
        rogue = self._rogue_client(register=True)
        payload = bytes(fault.payload_bytes)
        state = {"req_id": 0, "timer": None}

        def tick() -> None:
            state["req_id"] += 1
            # Fire-and-forget at whoever currently leads: the flooder
            # never waits for replies, which is exactly what the
            # per-client in-flight cap is for.  ``big=False`` keeps the
            # body inline in pre-prepares, so the one admitted request
            # per cycle stays executable group-wide.
            req = Request(
                client=rogue.node_id,
                req_id=state["req_id"],
                op=payload,
                big=False,
            )
            view = max(r.view for r in cluster.replicas if not r.crashed)
            rogue.broadcast_to_replicas(req, only=[view % cluster.config.n])
            state["timer"] = cluster.sim.schedule(fault.interval_ns, tick)

        self._open_client_fault_window(fault.duration_ns)
        tick()
        self._note(fault.describe() + f" -> client {rogue.node_id}")

        def stop_flood() -> None:
            if state["timer"] is not None:
                state["timer"].cancel()
            rogue.stop()
            self._note(f"  ... {state['req_id']} flood requests were sent")

        self._heal_later(
            fault.duration_ns, stop_flood,
            f"flood from client {rogue.node_id} ends",
        )

    def _apply_invalid_mac_spammer(self, fault: InvalidMacSpammer) -> None:
        cluster = self.cluster
        rogue = self._rogue_client(register=False)
        payload = bytes(fault.payload_bytes)
        state = {"req_id": 0, "timer": None}

        def tick() -> None:
            state["req_id"] += 1
            req = Request(
                client=rogue.node_id, req_id=state["req_id"], op=payload
            )
            # Hand-built envelope with a garbage MAC trailer: the node
            # send paths would refuse to fake one, a Byzantine sender
            # has no such scruples.
            env = Envelope(req, AUTH_MAC, b"\xde\xad\xbe\xef", "client",
                           rogue.node_id)
            for rid in range(cluster.config.n):
                rogue.host.charge_cpu(cluster.config.costs.msg_send_ns)
                rogue.socket.send(
                    replica_address(rid, cluster.config.group_prefix),
                    env, env.size, "Request",
                )
            state["timer"] = cluster.sim.schedule(fault.interval_ns, tick)

        self._open_client_fault_window(fault.duration_ns)
        tick()
        self._note(fault.describe() + f" -> principal {rogue.node_id}")

        def stop_spam() -> None:
            if state["timer"] is not None:
                state["timer"].cancel()
            rogue.stop()
            self._note(f"  ... {state['req_id']} garbage datagrams were sent")

        self._heal_later(
            fault.duration_ns, stop_spam,
            f"invalid-MAC spam from principal {rogue.node_id} ends",
        )

    def _apply_oversized_client(self, fault: OversizedClient) -> None:
        cluster = self.cluster
        rogue = self._rogue_client(register=True)
        limit = cluster.config.max_request_bytes or 0
        size = fault.payload_bytes if fault.payload_bytes is not None else 2 * limit + 1
        payload = bytes(size)
        state = {"req_id": 0, "timer": None}

        def tick() -> None:
            state["req_id"] += 1
            req = Request(
                client=rogue.node_id,
                req_id=state["req_id"],
                op=payload,
                big=cluster.config.is_big(len(payload)),
            )
            rogue.broadcast_to_replicas(req)
            state["timer"] = cluster.sim.schedule(fault.interval_ns, tick)

        self._open_client_fault_window(fault.duration_ns)
        tick()
        self._note(fault.describe() + f" -> client {rogue.node_id}")

        def stop_oversized() -> None:
            if state["timer"] is not None:
                state["timer"].cancel()
            rogue.stop()
            self._note(f"  ... {state['req_id']} oversized requests were sent")

        self._heal_later(
            fault.duration_ns, stop_oversized,
            f"oversized spam from client {rogue.node_id} ends",
        )
