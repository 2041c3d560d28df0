"""The centralized baseline.

"The current version is centralized" — the paper's starting point.  One
server process, plain request/reply datagrams, no agreement, no
replication, no fault tolerance.  Useful for putting the BFT overhead
numbers in context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.fabric import Address, Host, NetworkFabric, Packet
from repro.pbft.cluster import CLIENT_HOSTS
from repro.pbft.config import LIBRARY_PAGES, PbftConfig
from repro.pbft.replica import Application, NullApplication
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

_SERVER_PORT = 7000
_CLIENT_PORT = 7100


@dataclass(frozen=True)
class _Req:
    client: int
    req_id: int
    op: bytes

    def body_size(self) -> int:
        return 13 + len(self.op)


@dataclass(frozen=True)
class _Resp:
    client: int
    req_id: int
    result: bytes

    def body_size(self) -> int:
        return 13 + len(self.result)


class UnreplicatedServer:
    """One host, one application, no replication."""

    def __init__(self, config: PbftConfig, host: Host, app: Application) -> None:
        self.config = config
        self.host = host
        self.app = app
        self.socket = host.fabric.bind(host.name, _SERVER_PORT)
        self.socket.on_receive(self._on_packet)
        self.executed = 0
        from repro.statemgr.pages import PagedState

        self.state = PagedState(config.state_pages, config.page_size)
        app.bind_state(self.state, LIBRARY_PAGES * config.page_size)

    def _on_packet(self, packet: Packet) -> None:
        req = packet.payload
        if not isinstance(req, _Req):
            return
        costs = self.config.costs
        cost = costs.msg_recv_ns + costs.bytes_cost(req.body_size())
        self.host.execute(cost, self._serve, packet)

    def _serve(self, packet: Packet) -> None:
        req, reply_to = packet.payload, packet.src
        self.host.charge_cpu(self.app.execute_cost_ns(req.op, False))
        result = self.app.execute(req.op, req.client, self.host.local_time(), False)
        self.host.charge_cpu(self.app.take_accumulated_cost())
        self.state.end_of_execution()
        self.executed += 1
        resp = _Resp(client=req.client, req_id=req.req_id, result=result)
        costs = self.config.costs
        self.host.charge_cpu(costs.msg_send_ns + costs.bytes_cost(resp.body_size()))
        self.socket.send(reply_to, resp, resp.body_size(), kind="_Resp")


class UnreplicatedClient:
    """Closed-loop client for the baseline server."""

    def __init__(
        self, client_id: int, config: PbftConfig, host: Host, port: int, server: Address
    ) -> None:
        self.client_id = client_id
        self.config = config
        self.host = host
        self.server = server
        self.socket = host.fabric.bind(host.name, port)
        self.socket.on_receive(self._on_packet)
        self.next_req_id = 0
        self.pending: Optional[tuple[_Req, Callable, int]] = None
        self.completed_ops = 0
        self.latencies_ns: list[int] = []
        self._timer = None

    def invoke(self, op: bytes, callback=None) -> None:
        self.next_req_id += 1
        req = _Req(client=self.client_id, req_id=self.next_req_id, op=op)
        self.pending = (req, callback, self.host.sim.now)
        self._send(req)

    def _send(self, req: _Req) -> None:
        costs = self.config.costs
        self.host.charge_cpu(costs.msg_send_ns + costs.bytes_cost(req.body_size()))
        self.socket.send(self.server, req, req.body_size(), kind="_Req")
        self._timer = self.host.sim.schedule(
            self.config.client_retransmit_ns, self._retransmit
        )

    def _retransmit(self) -> None:
        if self.pending is not None:
            self._send(self.pending[0])

    def _on_packet(self, packet: Packet) -> None:
        resp = packet.payload
        if not isinstance(resp, _Resp) or self.pending is None:
            return
        req, callback, sent_at = self.pending
        if resp.req_id != req.req_id:
            return
        if self._timer is not None:
            self._timer.cancel()
        self.pending = None
        self.completed_ops += 1
        latency = self.host.sim.now - sent_at
        self.latencies_ns.append(latency)
        if callback is not None:
            callback(resp.result, latency)


@dataclass
class UnreplicatedDeployment:
    sim: Simulator
    fabric: NetworkFabric
    server: UnreplicatedServer
    clients: list[UnreplicatedClient]

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    def total_completed(self) -> int:
        return sum(c.completed_ops for c in self.clients)


def build_unreplicated(
    config: Optional[PbftConfig] = None,
    seed: int = 1,
    app_factory: Optional[Callable[[], Application]] = None,
) -> UnreplicatedDeployment:
    """Build the centralized deployment: 1 server host, N clients."""
    config = config or PbftConfig()
    sim = Simulator()
    rng = RngStreams(seed)
    fabric = NetworkFabric(sim, rng)
    server_host = fabric.add_host("server0")
    app = app_factory() if app_factory else NullApplication()
    server = UnreplicatedServer(config, server_host, app)
    hosts = [fabric.add_host(f"clienthost{i}") for i in range(CLIENT_HOSTS)]
    clients = []
    for index in range(config.num_clients):
        client = UnreplicatedClient(
            client_id=index,
            config=config,
            host=hosts[index % CLIENT_HOSTS],
            port=_CLIENT_PORT + index,
            server=(server_host.name, _SERVER_PORT),
        )
        clients.append(client)
    return UnreplicatedDeployment(sim=sim, fabric=fabric, server=server, clients=clients)
