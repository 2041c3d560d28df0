"""Sharded deployment builder: S PBFT groups on one simulated network.

Every group is built by the unchanged :func:`repro.pbft.cluster.build_cluster`
— the sharding layer composes groups, it does not fork the protocol.  The
groups share one simulator, one network fabric, and one observability
registry; ``config.group_prefix`` ("s0-", "s1-", ...) keeps their host
names and metric keys disjoint.  Routers live on their own hosts and hold
one registered PBFT client per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.kvstore import KvApplication, keys_of_op as kv_keys_of_op
from repro.common.ids import make_client_id
from repro.net.fabric import NetworkConfig, NetworkFabric
from repro.obs import Observability
from repro.pbft.client import PbftClient
from repro.pbft.cluster import Cluster, build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.node import CLIENT_PORT
from repro.shard.directory import ShardDirectory
from repro.shard.router import KvShardCodec, ShardRouter
from repro.shard.txapp import ShardTxApplication
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

# Router client ids start here (above the workload clients' 1000+index
# range is not needed — ids only need uniqueness within one group, and
# the offset keeps them visually distinct in metrics and traces).
_ROUTER_CLIENT_BASE = 700


@dataclass
class ShardedCluster:
    """A built sharded deployment: S groups plus the routing tier."""

    sim: Simulator
    fabric: NetworkFabric
    obs: Observability
    directory: ShardDirectory
    groups: list[Cluster]
    routers: list[ShardRouter]
    codec: object
    reserve_router: ShardRouter  # used by reconcile(), not by workloads
    rng: RngStreams = field(default_factory=lambda: RngStreams(1))
    # Lazily creates additional routers (same registration path as the
    # build-time ones); index advances monotonically so client ids and
    # ports never collide.
    router_factory: Optional[Callable[[int], ShardRouter]] = None
    next_router_index: int = 0

    @property
    def num_shards(self) -> int:
        return len(self.groups)

    def add_router(self, private_directory: bool = False) -> ShardRouter:
        """Create one more router after build time (not added to
        ``routers``, so existing workloads and RNG draws are untouched).

        With ``private_directory`` the new router routes by its own
        clone of the authoritative directory as of now — the stale-copy
        starting point the WRONG_SHARD healing path is tested against.
        """
        if self.router_factory is None:
            raise RuntimeError("this deployment was built without a router factory")
        router = self.router_factory(self.next_router_index)
        self.next_router_index += 1
        if private_directory:
            private = self.directory.clone()
            router.directory = private
            router.codec = type(self.codec)(private)
        return router

    def make_rebalancer(self, **kwargs) -> "ShardRebalancer":
        """A live-migration driver with its own per-group client set."""
        from repro.shard.rebalance import ShardRebalancer

        donor = self.add_router()
        return ShardRebalancer(
            sim=self.sim,
            directory=self.directory,
            clients=donor.clients,
            groups=self.groups,
            obs=self.obs,
            **kwargs,
        )

    def run_for(self, duration_ns: int) -> None:
        self.sim.run_for(duration_ns)

    def tx_apps(self, shard: int) -> list[ShardTxApplication]:
        return [app for app in self.groups[shard].apps
                if isinstance(app, ShardTxApplication)]

    def total_completed(self) -> int:
        """Completed client-visible operations across the deployment."""
        routed = sum(
            r.completed_singles + r.committed_txns + r.aborted_txns
            for r in self.routers
        )
        direct = sum(g.total_completed() for g in self.groups)
        return routed + direct

    def stop(self) -> None:
        for router in self.routers:
            router.stop()
        self.reserve_router.stop()
        for group in self.groups:
            group.stop_clients()

    def collect_metrics(self) -> None:
        self.sim.collect_metrics(self.obs.registry)
        self.fabric.collect_metrics(self.obs.registry)

    # -- reconciliation -------------------------------------------------------

    def reconcile(self, max_wait_ns: int = 10_000_000_000) -> int:
        """Finish every stranded transaction: resolve, then deliver.

        Walks each shard's prepared table (replica 0's view — the tables
        are replicated state), RESOLVEs each leftover transaction at its
        coordinator shard, and delivers the resolved outcome to every
        participant.  Returns the number of transactions reconciled.
        This is what a recovery daemon would run continuously; the
        harness runs it before checking cross-shard atomicity so
        "prepared forever" cannot masquerade as a passing run.
        """
        from repro.shard.txapp import (
            ReplyDecision, TxForget, TxResolve, decode_tx_reply, outcome_op,
        )

        router = self.reserve_router
        reconciled = 0

        def drive(shard: int, op: bytes) -> Optional[bytes]:
            client = router.clients[shard]
            if client.busy:
                client.cancel_pending()
            box: list[bytes] = []
            client.invoke(op, callback=lambda res, _lat: box.append(res))
            deadline = self.sim.now + max_wait_ns
            while not box and self.sim.now < deadline:
                self.sim.run_for(1_000_000)
            if not box:
                client.cancel_pending()
                return None
            return box[0]

        for shard in range(self.num_shards):
            apps = self.tx_apps(shard)
            if not apps:
                continue
            for txid in apps[0].prepared_txids():
                entry = apps[0].prepared_entry(txid)
                if entry is None:
                    continue
                resolved = drive(entry.coordinator, TxResolve(txid).encode())
                decision = decode_tx_reply(resolved or b"")
                if type(decision) is not ReplyDecision:
                    continue
                outcome = outcome_op(txid, decision.decision)
                delivered = all(
                    drive(participant, outcome) is not None
                    for participant in entry.participants
                )
                if delivered:
                    # Every participant acked the outcome, so the
                    # decision record can be garbage-collected.
                    drive(entry.coordinator, TxForget(txid).encode())
                reconciled += 1
        return reconciled


def build_sharded_cluster(
    num_shards: int,
    config: Optional[PbftConfig] = None,
    seed: int = 1,
    inner_app_factory: Optional[Callable[[int], object]] = None,
    codec_factory: Optional[Callable[[ShardDirectory], object]] = None,
    keys_of: Optional[Callable[[bytes], tuple]] = None,
    num_routers: int = 8,
    router_hosts: int = 4,
    tx_pages: int = 8,
    table_map: Optional[dict[str, int]] = None,
    real_crypto: bool = True,
    net_config: Optional[NetworkConfig] = None,
    directory: Optional[ShardDirectory] = None,
    obs: Optional[Observability] = None,
) -> ShardedCluster:
    """Build S groups plus routers on one fabric.

    ``inner_app_factory(shard)`` supplies each group's application (default
    kvstore); it is wrapped in :class:`ShardTxApplication` automatically.
    ``config.num_clients`` applies per group (default 0 here: workload is
    expected to flow through the routers).
    """
    base = config or PbftConfig().with_options(num_clients=0)
    directory = directory or ShardDirectory(num_shards, table_map=table_map)
    if directory.num_shards != num_shards:
        raise ValueError("directory shard count does not match the deployment")
    keys_of = keys_of or kv_keys_of_op
    inner_app_factory = inner_app_factory or (lambda shard: KvApplication())
    codec_factory = codec_factory or KvShardCodec

    sim = Simulator()
    master_rng = RngStreams(seed)
    obs = obs if obs is not None else Observability()
    obs.attach_clock(lambda: sim.now)
    fabric = NetworkFabric(sim, master_rng, config=net_config, tracer=obs.tracer)

    groups: list[Cluster] = []
    for shard in range(num_shards):
        group_config = base.with_options(group_prefix=f"s{shard}-")
        group = build_cluster(
            config=group_config,
            app_factory=lambda s=shard: ShardTxApplication(
                inner_app_factory(s), keys_of, shard_id=s, tx_pages=tx_pages
            ),
            real_crypto=real_crypto,
            sim=sim,
            rng=RngStreams(seed * 1000 + 7 * shard + 1),
            fabric=fabric,
            obs=obs,
        )
        groups.append(group)

    codec = codec_factory(directory)
    hosts = [
        fabric.add_host(f"routerhost{h}") for h in range(max(1, router_hosts))
    ]
    session_rng = master_rng.stream("router-sessions")

    def make_router(index: int) -> ShardRouter:
        host = hosts[index % len(hosts)]
        clients: dict[int, PbftClient] = {}
        client_id = make_client_id(_ROUTER_CLIENT_BASE + index)
        for shard, group in enumerate(groups):
            group.keys.new_client_keypair(client_id)
            client = PbftClient(
                client_id=client_id,
                config=group.config,
                host=host,
                port=CLIENT_PORT + _ROUTER_CLIENT_BASE + index * num_shards + shard,
                keys=group.keys,
                real_crypto=real_crypto,
                obs=obs,
            )
            session = client.generate_session_keys(session_rng)
            for replica in group.replicas:
                replica.register_client(
                    client_id, client.socket.address, session[replica.node_id]
                )
            clients[shard] = client
        return ShardRouter(
            router_id=index,
            directory=directory,
            clients=clients,
            sim=sim,
            codec=codec,
            obs=obs,
        )

    routers = [make_router(i) for i in range(num_routers)]
    reserve = make_router(num_routers)  # reconciliation daemon's identity

    return ShardedCluster(
        sim=sim,
        fabric=fabric,
        obs=obs,
        directory=directory,
        groups=groups,
        routers=routers,
        codec=codec,
        reserve_router=reserve,
        rng=master_rng,
        router_factory=make_router,
        next_router_index=num_routers + 1,
    )
