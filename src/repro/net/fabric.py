"""Hosts, NICs, links and the datagram fabric."""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Callable, Optional

from repro.common.errors import ConfigError, NetworkError
from repro.common.units import MICROSECOND, SECOND
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

Address = tuple[str, int]  # (host name, port)


class Packet:
    """A datagram in flight (one is allocated per destination, so slotted).

    ``payload`` is the protocol message object; ``size`` is its wire size in
    bytes (computed from the byte codec in :mod:`repro.pbft.wire`), which is
    what the bandwidth model charges for.
    """

    __slots__ = ("src", "dst", "payload", "size", "kind")

    def __init__(
        self, src: Address, dst: Address, payload: object, size: int, kind: str = ""
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.kind = kind

    def __repr__(self) -> str:
        return (
            f"Packet(src={self.src!r}, dst={self.dst!r}, payload={self.payload!r}, "
            f"size={self.size!r}, kind={self.kind!r})"
        )


@dataclass
class LinkSpec:
    """Latency/bandwidth/loss parameters for one directed host pair.

    Defaults model the paper's testbed: a 1 GbE switch with sub-millisecond
    round trips (the paper reports 134-183 microseconds ping RTT; we use a
    one-way base latency in that neighbourhood) and 938 Mbit/s iperf
    bandwidth.
    """

    latency_ns: int = 70 * MICROSECOND
    jitter_ns: int = 10 * MICROSECOND
    bandwidth_bps: int = 938_000_000
    loss_probability: float = 0.0

    def validate(self) -> None:
        if self.latency_ns < 0 or self.jitter_ns < 0:
            raise ConfigError("link latency and jitter must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ConfigError("link bandwidth must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigError("loss probability must be within [0, 1]")


@dataclass
class NetworkConfig:
    """Fabric-wide defaults plus per-pair overrides."""

    default_link: LinkSpec = field(default_factory=LinkSpec)
    overrides: dict[tuple[str, str], LinkSpec] = field(default_factory=dict)
    # Datagrams above this size are split into MTU-sized fragments for the
    # bandwidth model (loss applies per datagram, as with UDP over Ethernet
    # where any lost fragment loses the datagram).
    mtu: int = 1472

    def link_for(self, src_host: str, dst_host: str) -> LinkSpec:
        return self.overrides.get((src_host, dst_host), self.default_link)


class DropRule:
    """Targeted fault injection: drop packets matching a predicate.

    Section 2.4 of the paper studies what a *single* lost datagram does to
    the middleware; a rule with ``count=1`` reproduces exactly that.
    """

    def __init__(
        self,
        predicate: Callable[[Packet], bool],
        count: Optional[int] = None,
        name: str = "drop-rule",
    ) -> None:
        self.predicate = predicate
        self.remaining = count  # None = unlimited
        self.name = name
        self.matched = 0

    def wants(self, packet: Packet) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        if not self.predicate(packet):
            return False
        self.matched += 1
        if self.remaining is not None:
            self.remaining -= 1
        return True


class LinkFault:
    """A windowed link disturbance for fault-injection campaigns.

    While ``active``, every packet whose endpoints match the ``src``/``dst``
    host patterns (``fnmatch`` style, e.g. ``"replica*"``) is subjected to
    probabilistic drop, fixed extra delay, probabilistic duplication, and
    probabilistic reordering (a one-off large delay that pushes the packet
    behind later traffic).  Campaign schedules toggle ``active`` to model
    disturbance windows; counters record what actually happened so
    invariant reports can say which faults bit.
    """

    def __init__(
        self,
        src: str = "*",
        dst: str = "*",
        drop_probability: float = 0.0,
        extra_delay_ns: int = 0,
        duplicate_probability: float = 0.0,
        duplicate_delay_ns: int = 200 * MICROSECOND,
        reorder_probability: float = 0.0,
        reorder_delay_ns: int = 2_000 * MICROSECOND,
        name: str = "link-fault",
    ) -> None:
        for prob in (drop_probability, duplicate_probability, reorder_probability):
            if not 0.0 <= prob <= 1.0:
                raise ConfigError("link fault probabilities must be within [0, 1]")
        if extra_delay_ns < 0 or duplicate_delay_ns < 0 or reorder_delay_ns < 0:
            raise ConfigError("link fault delays must be non-negative")
        self.src = src
        self.dst = dst
        self.drop_probability = drop_probability
        self.extra_delay_ns = extra_delay_ns
        self.duplicate_probability = duplicate_probability
        self.duplicate_delay_ns = duplicate_delay_ns
        self.reorder_probability = reorder_probability
        self.reorder_delay_ns = reorder_delay_ns
        self.name = name
        self.active = True
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.reordered = 0

    def matches(self, packet: Packet) -> bool:
        if not self.active:
            return False
        return fnmatch(packet.src[0], self.src) and fnmatch(packet.dst[0], self.dst)


class _Route:
    """Everything :meth:`NetworkFabric.transmit` needs for one directed
    host pair, resolved once: topology is fixed at build time (hosts are
    only added, link overrides only set at construction), so a route can
    never go stale mid-run."""

    __slots__ = ("link", "latency_ns", "jitter_span", "jitter_bits", "lossy", "tx_ns")

    def __init__(self, link: LinkSpec) -> None:
        self.link = link
        self.latency_ns = link.latency_ns
        # Jitter is uniform over [0, jitter_ns]; no draw at all without it.
        self.jitter_span = link.jitter_ns + 1 if link.jitter_ns else 0
        self.jitter_bits = self.jitter_span.bit_length()
        self.lossy = link.loss_probability > 0.0
        self.tx_ns: dict[int, int] = {}  # datagram size -> serialization time


class Host:
    """A simulated machine: a clock (with optional skew), one CPU, one NIC.

    The CPU is a serial resource: work submitted via :meth:`execute` runs
    back-to-back, so a flood of incoming messages queues behind crypto work
    exactly as it would on the paper's single-threaded PBFT replica process.
    """

    def __init__(self, fabric: "NetworkFabric", name: str, clock_skew_ns: int = 0) -> None:
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.name = name
        self.clock_skew_ns = clock_skew_ns
        self._cpu_free_at = 0
        self._nic_free_at = 0
        self._routes: dict[str, _Route] = {}  # destination host name -> route
        self.cpu_busy_ns = 0  # accumulated, for utilization reporting

    def local_time(self) -> int:
        """This host's wall clock: simulated time plus its skew.

        Replicas use this for request timestamps and non-determinism
        validation (paper section 2.5), so skew matters.
        """
        return self.sim.now + self.clock_skew_ns

    def execute(self, cost_ns: int, fn: Callable[[object], None], arg: object) -> None:
        """Run ``fn(arg)`` after ``cost_ns`` of CPU time, honouring the queue.

        The call fires when the CPU finishes this job; the CPU is busy from
        ``max(now, cpu_free_at)`` until then.
        """
        if cost_ns < 0:
            raise ConfigError(f"negative CPU cost {cost_ns}")
        sim = self.sim
        now = sim.now
        free = self._cpu_free_at
        done = (free if free > now else now) + cost_ns
        self._cpu_free_at = done
        self.cpu_busy_ns += cost_ns
        sim.schedule_call(done, fn, arg)

    def charge_cpu(self, cost_ns: int) -> tuple[int, int]:
        """Account CPU time with no completion callback (fire-and-forget cost).

        Returns the ``(start, end)`` interval the work occupies on this
        CPU, so callers can trace where the time actually goes (the start
        is pushed back behind whatever the CPU is already chewing on).
        """
        now = self.sim.now
        free = self._cpu_free_at
        start = free if free > now else now
        if cost_ns <= 0:
            return (start, start)
        self._cpu_free_at = start + cost_ns
        self.cpu_busy_ns += cost_ns
        return (start, self._cpu_free_at)


class DatagramSocket:
    """An unreliable datagram endpoint bound to (host, port).

    Mirrors the PBFT implementation's use of UDP: no connection, no
    delivery guarantee, no ordering guarantee.
    """

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.address: Address = (host.name, port)
        self.handler: Optional[Callable[[Packet], None]] = None
        self.closed = False
        self.received = 0
        self.sent = 0

    def on_receive(self, handler: Callable[[Packet], None]) -> None:
        self.handler = handler

    def send(self, dst: Address, payload: object, size: int, kind: str = "") -> None:
        """Send one datagram. May be silently lost; never raises for loss."""
        self.multicast((dst,), payload, size, kind)

    def multicast(self, dsts, payload: object, size: int, kind: str = "") -> None:
        """Send the same datagram to each destination (serial unicasts).

        The paper disables IP multicast in all experiments ("the networks we
        are targeting (WANs) do not support it"), so a multicast is n
        unicasts sharing the sender's NIC — the cost that makes the primary
        the bottleneck when it must forward full request bodies.
        """
        if self.closed:
            raise NetworkError(f"socket {self.address} is closed")
        self.sent += len(dsts)
        self.host.fabric.transmit(self.host, self.address, dsts, payload, size, kind)

    def close(self) -> None:
        self.closed = True
        self.host.fabric.unbind(self.address)


class NetworkFabric:
    """The switched network connecting all hosts."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngStreams,
        config: Optional[NetworkConfig] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.rng = rng.stream("net.loss")
        self.jitter_rng = rng.stream("net.jitter")
        # Link faults draw from their own stream so installing a campaign
        # cannot perturb the loss/jitter sequences of an un-faulted run.
        self.fault_rng = rng.stream("net.faults")
        self.config = config or NetworkConfig()
        self.config.default_link.validate()
        self.hosts: dict[str, Host] = {}
        self.sockets: dict[Address, DatagramSocket] = {}
        self.drop_rules: list[DropRule] = []
        self.link_faults: list[LinkFault] = []
        # The common-clock message log (paper section 2.2): every packet is
        # a flight span or a drop instant on the tracer's "net" track.
        self.tracer = tracer
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        self.partitions: set[frozenset[str]] = set()

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str, clock_skew_ns: int = 0) -> Host:
        if name in self.hosts:
            raise ConfigError(f"duplicate host name {name!r}")
        host = Host(self, name, clock_skew_ns)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def bind(self, host_name: str, port: int) -> DatagramSocket:
        host = self.host(host_name)
        addr = (host_name, port)
        if addr in self.sockets:
            raise NetworkError(f"address {addr} already bound")
        sock = DatagramSocket(host, port)
        self.sockets[addr] = sock
        return sock

    def unbind(self, addr: Address) -> None:
        self.sockets.pop(addr, None)

    # -- fault injection ----------------------------------------------------

    def add_drop_rule(self, rule: DropRule) -> DropRule:
        self.drop_rules.append(rule)
        return rule

    def add_link_fault(self, fault: LinkFault) -> LinkFault:
        self.link_faults.append(fault)
        return fault

    def remove_link_fault(self, fault: LinkFault) -> None:
        fault.active = False
        if fault in self.link_faults:
            self.link_faults.remove(fault)

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Disconnect every (a, b) host pair in both directions."""
        for a in group_a:
            for b in group_b:
                self.partitions.add(frozenset((a, b)))

    def unpartition(self, group_a: set[str], group_b: set[str]) -> None:
        """Heal exactly the (a, b) pairs cut by a matching :meth:`partition`.

        Unlike :meth:`heal_partition` this leaves other concurrent
        partitions in place, so overlapping fault windows heal
        independently.
        """
        for a in group_a:
            for b in group_b:
                self.partitions.discard(frozenset((a, b)))

    def heal_partition(self) -> None:
        self.partitions.clear()

    # -- transmission -------------------------------------------------------

    def transmit(
        self, host: Host, src: Address, dsts, payload: object, size: int, kind: str
    ) -> None:
        """Put one datagram per destination on the wire, in order.

        The one send loop behind :meth:`DatagramSocket.send` and
        ``multicast``.  While no drop source is active (partitions, drop
        rules, link faults, a lossy link) a packet provably
        survives and owes no loss/fault RNG draw, so NIC reservation,
        jitter and arrival are computed right here; otherwise the packet
        takes :meth:`_transmit_faulty`, which arrives at the same instant
        for a packet that survives undisturbed.
        """
        count = len(dsts)
        self.packets_sent += count
        self.bytes_sent += size * count
        sim = self.sim
        now = sim.now
        routes = host._routes
        quiet = not (self.partitions or self.drop_rules or self.link_faults)
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        getrandbits = self.jitter_rng.getrandbits
        deliver = self._deliver
        for dst in dsts:
            packet = Packet(src, dst, payload, size, kind)
            route = routes.get(dst[0])
            if route is None:
                route = routes[dst[0]] = _Route(self.config.link_for(src[0], dst[0]))
            if not quiet or route.lossy:
                self._transmit_faulty(host, packet, route)
                continue
            tx_ns = route.tx_ns.get(size)
            if tx_ns is None:
                tx_ns = route.tx_ns[size] = self._tx_time(size, route.link)
            free = host._nic_free_at
            serialized_at = (free if free > now else now) + tx_ns
            host._nic_free_at = serialized_at
            arrival = serialized_at + route.latency_ns
            span = route.jitter_span
            if span:
                # randrange(span), inlined: the same rejection loop over
                # getrandbits, hence the same draws from the stream.
                jitter = getrandbits(route.jitter_bits)
                while jitter >= span:
                    jitter = getrandbits(route.jitter_bits)
                arrival += jitter
            if tracing:
                self._trace_packet(packet, now, arrival, "")
            sim.schedule_call(arrival, deliver, packet)

    def _transmit_faulty(self, host: Host, packet: Packet, route: _Route) -> None:
        """The general path: drop decision, then link faults."""
        link = route.link
        now = self.sim.now
        dropped, reason = self._drop_decision(packet, link)
        # The sender's NIC serializes the bytes whether or not the network
        # later drops them.
        serialized_at = max(now, host._nic_free_at) + self._tx_time(packet.size, link)
        host._nic_free_at = serialized_at
        if dropped:
            self.packets_dropped += 1
            self._trace_packet(packet, now, None, reason)
            return
        jitter = self.jitter_rng.randrange(route.jitter_span) if route.jitter_span else 0
        arrival = serialized_at + link.latency_ns + jitter
        arrival = self._apply_link_faults(packet, arrival)
        self._trace_packet(packet, now, arrival, "")
        self.sim.schedule_call(arrival, self._deliver, packet)

    def _apply_link_faults(self, packet: Packet, arrival: int) -> int:
        """Delay/duplicate/reorder a surviving packet per active faults.

        Drops were already decided in :meth:`_drop_decision` (so they share
        the normal trace/accounting path); what remains here only ever
        *adds* copies or delay.  A copy is traced as its own flight.
        """
        for fault in self.link_faults:
            if not fault.matches(packet):
                continue
            if fault.extra_delay_ns:
                fault.delayed += 1
                arrival += fault.extra_delay_ns
            if (
                fault.reorder_probability
                and self.fault_rng.random() < fault.reorder_probability
            ):
                # A one-off large delay: the packet lands behind traffic
                # sent after it, which is what reordering looks like to UDP.
                fault.reordered += 1
                arrival += fault.reorder_delay_ns
            if (
                fault.duplicate_probability
                and self.fault_rng.random() < fault.duplicate_probability
            ):
                fault.duplicated += 1
                dup_at = arrival + fault.duplicate_delay_ns
                self._trace_packet(packet, self.sim.now, dup_at, "")
                self.sim.schedule_call(dup_at, self._deliver, packet)
        return arrival

    def _trace_packet(
        self, packet: Packet, sent_at: int, arrival: Optional[int], reason: str
    ) -> None:
        """Trace one datagram as a flight span or a drop tick, in the one
        shape :func:`repro.obs.report.packets` reads."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        args = {
            "src": f"{packet.src[0]}:{packet.src[1]}",
            "dst": f"{packet.dst[0]}:{packet.dst[1]}",
            "size": packet.size,
        }
        name = packet.kind or "datagram"
        if arrival is None:
            args["kind"] = name
            args["reason"] = reason
            tracer.event("net", name + " DROPPED", cat="net.drop", args=args)
        else:
            tracer.complete("net", name, sent_at, arrival, cat="net", args=args)

    def _tx_time(self, size: int, link: LinkSpec) -> int:
        # Ethernet/IP/UDP framing overhead per MTU-sized fragment.
        fragments = max(1, -(-size // self.config.mtu))
        wire_bytes = size + fragments * 46
        return (wire_bytes * 8 * SECOND) // link.bandwidth_bps

    def _drop_decision(self, packet: Packet, link: LinkSpec) -> tuple[bool, str]:
        if frozenset((packet.src[0], packet.dst[0])) in self.partitions:
            return True, "partition"
        for rule in self.drop_rules:
            if rule.wants(packet):
                return True, rule.name
        for fault in self.link_faults:
            if (
                fault.drop_probability
                and fault.matches(packet)
                and self.fault_rng.random() < fault.drop_probability
            ):
                fault.dropped += 1
                return True, fault.name
        if link.loss_probability > 0.0 and self.rng.random() < link.loss_probability:
            return True, "random-loss"
        return False, ""

    def _deliver(self, packet: Packet) -> None:
        sock = self.sockets.get(packet.dst)
        if sock is None or sock.closed or sock.handler is None:
            # UDP: datagrams to unbound ports vanish (the restarted-replica
            # window in the recovery experiments relies on this).
            return
        sock.received += 1
        sock.handler(packet)

    # -- introspection ------------------------------------------------------

    def collect_metrics(self, registry, prefix: str = "net.") -> None:
        """Publish fabric and per-host counters into a metrics registry."""
        registry.gauge(prefix + "packets_sent").set(self.packets_sent)
        registry.gauge(prefix + "packets_dropped").set(self.packets_dropped)
        registry.gauge(prefix + "bytes_sent").set(self.bytes_sent)
        for name, host in self.hosts.items():
            registry.gauge(f"host.{name}.cpu_busy_ns").set(host.cpu_busy_ns)
