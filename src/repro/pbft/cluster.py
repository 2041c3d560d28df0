"""Cluster builder: wires hosts, replicas, clients, and keys together.

Reproduces the paper's testbed shape by default: 4 replicas, each alone on
a host, and 12 clients spread evenly across 4 client machines (paper
section 4), all behind a simulated 1 GbE switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.ids import make_client_id
from repro.net.fabric import NetworkConfig, NetworkFabric
from repro.obs import Observability
from repro.pbft.client import PbftClient
from repro.pbft.config import PbftConfig
from repro.pbft.node import CLIENT_PORT, KeyDirectory
from repro.pbft.replica import Application, NullApplication, Replica
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


@dataclass
class Cluster:
    """A built deployment: simulator, fabric, replicas and clients."""

    sim: Simulator
    rng: RngStreams
    fabric: NetworkFabric
    config: PbftConfig
    keys: KeyDirectory
    replicas: list[Replica]
    clients: list[PbftClient]
    apps: list[Application] = field(default_factory=list)
    obs: Observability = field(default_factory=Observability)
    # ProactiveRecovery scheduler, attached by build_cluster when
    # config.proactive_recovery_interval_ns is set.
    recovery_scheduler: object = None

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    def primary(self) -> Replica:
        view = max(r.view for r in self.replicas if not r.crashed)
        return self.replicas[view % self.config.n]

    def total_completed(self) -> int:
        return sum(c.completed_ops for c in self.clients)

    def invoke_and_wait(
        self, client: PbftClient, op: bytes, readonly: bool = False,
        max_wait_ns: int = 10_000_000_000,
    ) -> bytes:
        """Test helper: submit one op and run the simulation to completion."""
        box: list[bytes] = []
        client.invoke(op, readonly=readonly, callback=lambda res, _lat: box.append(res))
        deadline = self.sim.now + max_wait_ns
        step = 1_000_000  # 1 ms
        while not box and self.sim.now < deadline:
            self.sim.run_for(step)
        if not box:
            raise TimeoutError(
                f"request by client {client.node_id} did not complete within "
                f"{max_wait_ns} ns"
            )
        return box[0]

    def stop_clients(self) -> None:
        for client in self.clients:
            client.stop()

    def replace_replica(
        self, slot: int, app_factory: Optional[Callable[[], Application]] = None
    ) -> Replica:
        """Physically replace the replica in ``slot`` with a fresh machine.

        The deployment-side half of a RECONFIG_REPLACE: the ordered system
        op flips the slot's incarnation and epoch inside the protocol; this
        helper swaps the actual process — a brand-new :class:`Replica` with
        empty state on the same host/address, fresh key material, and
        nothing but the public directory to bootstrap from.  It comes up
        recovering and pulls a stable checkpoint + log tail from the group.
        """
        from repro.pbft.reconfig import refresh_replica_keys

        old = self.replicas[slot]
        if not old.crashed:
            old.crash()
        # New machine, new keys: the directory (the PKI) re-issues the
        # slot's key material; every peer's cached copies are dropped.
        refresh_replica_keys(self, slot)
        app = app_factory() if app_factory else NullApplication()
        replica = Replica(
            replica_id=slot,
            config=self.config,
            host=old.host,
            keys=self.keys,
            app=app,
            real_crypto=old.real_crypto,
            obs=self.obs,
        )
        if self.config.dynamic_clients:
            from repro.membership.manager import MembershipManager

            replica.membership = MembershipManager(replica)
        self.replicas[slot] = replica
        self.apps[slot] = app
        # The constructor bound the socket; restart() rebinds and enters
        # recovery (status gossip -> checkpoint votes -> state transfer),
        # so release the first binding before calling it.
        replica.socket.close()
        replica.restart()
        # Static-membership deployments: re-register the clients *after*
        # restart() (restart drops client session keys, modelling a fresh
        # machine that must relearn them — but addresses are config).
        if not self.config.dynamic_clients:
            for client in self.clients:
                key = client.session_keys.get(("replica", slot))
                replica.register_client(client.node_id, client.socket.address, key)
        return replica

    def collect_metrics(self) -> None:
        """Publish simulator/fabric/host counters into the obs registry."""
        self.sim.collect_metrics(self.obs.registry)
        self.fabric.collect_metrics(self.obs.registry)


def build_cluster(
    config: Optional[PbftConfig] = None,
    seed: int = 1,
    app_factory: Optional[Callable[[], Application]] = None,
    real_crypto: bool = True,
    client_hosts: int = 4,
    net_config: Optional[NetworkConfig] = None,
    nondet_provider_factory=None,
    nondet_validator_factory=None,
    clock_skew_ns: int = 0,
    obs: Optional[Observability] = None,
    sim: Optional[Simulator] = None,
    rng: Optional[RngStreams] = None,
    fabric: Optional[NetworkFabric] = None,
) -> Cluster:
    """Build a full deployment ready to run.

    With ``config.dynamic_clients`` False (the default), clients are
    statically registered at every replica with pre-shared session keys —
    PBFT's a-priori-knowledge model.  With it True, replicas get membership
    managers and clients must :func:`repro.membership.join_client` first.

    ``sim``/``rng``/``fabric``/``obs`` may be injected so several groups
    (each with a distinct ``config.group_prefix``) share one simulated
    network and metrics registry — the sharded topology of
    :mod:`repro.shard`.  Each group still gets its own key directory.
    """
    config = config or PbftConfig()
    config.validate()
    sim = sim if sim is not None else Simulator()
    rng = rng if rng is not None else RngStreams(seed)
    obs = obs if obs is not None else Observability()
    obs.attach_clock(lambda: sim.now)
    if fabric is None:
        fabric = NetworkFabric(sim, rng, config=net_config, tracer=obs.tracer)
    keys = KeyDirectory(config, rng.stream("keys"))
    prefix = config.group_prefix

    skew_rng = rng.stream("clock-skew")
    replicas: list[Replica] = []
    apps: list[Application] = []
    for rid in range(config.n):
        skew = skew_rng.randrange(-clock_skew_ns, clock_skew_ns + 1) if clock_skew_ns else 0
        host = fabric.add_host(f"{prefix}replica{rid}", clock_skew_ns=skew)
        app = app_factory() if app_factory else NullApplication()
        apps.append(app)
        replica = Replica(
            replica_id=rid,
            config=config,
            host=host,
            keys=keys,
            app=app,
            nondet_provider=nondet_provider_factory() if nondet_provider_factory else None,
            nondet_validator=nondet_validator_factory() if nondet_validator_factory else None,
            real_crypto=real_crypto,
            obs=obs,
        )
        replicas.append(replica)

    if config.dynamic_clients:
        from repro.membership.manager import MembershipManager

        for replica in replicas:
            replica.membership = MembershipManager(replica)

    hosts = []
    for h in range(client_hosts):
        skew = skew_rng.randrange(-clock_skew_ns, clock_skew_ns + 1) if clock_skew_ns else 0
        hosts.append(fabric.add_host(f"{prefix}clienthost{h}", clock_skew_ns=skew))

    clients: list[PbftClient] = []
    session_rng = rng.stream("client-sessions")
    for index in range(config.num_clients):
        client_id = make_client_id(index)
        host = hosts[index % client_hosts]
        port = CLIENT_PORT + index
        keys.new_client_keypair(client_id)
        client = PbftClient(
            client_id=client_id,
            config=config,
            host=host,
            port=port,
            keys=keys,
            real_crypto=real_crypto,
            obs=obs,
        )
        session = client.generate_session_keys(session_rng)
        if not config.dynamic_clients:
            for replica in replicas:
                replica.register_client(
                    client_id, client.socket.address, session[replica.node_id]
                )
        clients.append(client)

    cluster = Cluster(
        sim=sim,
        rng=rng,
        fabric=fabric,
        config=config,
        keys=keys,
        replicas=replicas,
        clients=clients,
        apps=apps,
        obs=obs,
    )
    if config.proactive_recovery_interval_ns is not None:
        from repro.pbft.reconfig import ProactiveRecovery

        cluster.recovery_scheduler = ProactiveRecovery(
            cluster, config.proactive_recovery_interval_ns
        )
    return cluster
