"""The seven ledger workloads.

Each workload is a ``start(seed, obs, rec)`` function that builds a
deployment through the repo's public builders, wires the benchmark's own
closed loop (or the aggregate open-loop generator) onto it, and returns a
:class:`Deployment`.  The seed feeds both the deployment
(``build_cluster(seed=)``) and the operation generator; the program only
ever sees the generated operations.

Windows are simulated seconds.  They are constants of the ledger: the
``sim_*`` metrics are only comparable between two runs with the same
windows, so nothing here is derived from the host's speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.kvstore import encode_put
from repro.apps.sqlapp import SqlApplication, decode_sql_op, encode_sql_op, tables_of_sql
from repro.common.units import seconds
from repro.harness.configs import build_config, row_by_name
from repro.harness.overload import overload_config
from repro.harness.workload import make_workload
from repro.membership import join_client
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.replica import NullApplication
from repro.pbft.wire import Encoder
from repro.shard.campaign import key_for_shard
from repro.shard.router import SqlShardCodec
from repro.shard.topology import build_sharded_cluster

# 2x the closed-loop capacity of overload_config() when this ledger was
# defined.  A constant on purpose: re-estimating it at run time would make
# the offered load follow the system under test.
OVERLOAD_OFFERED_TPS = 53_685.0
OVERLOAD_SIM_CLIENTS = 1_000_000

_SQL_ONE_ROW = Encoder().u8(2).u64(1).finish()  # "1 row affected"
_KV_OK = b"\x01OK"


class Recorder:
    """The benchmark's own clock on every operation.

    ``ok`` holds ``(finish_ns, latency_ns)`` per served operation and
    ``refused`` the finish time of every attempt the system ended without
    service (an aborted transaction, a request the client gave up on);
    both on the simulated clock, taken in the benchmark's completion
    closures rather than read from the program.
    """

    def __init__(self) -> None:
        self.sim = None
        self.ok: list[tuple[int, int]] = []
        self.refused: list[int] = []
        self.txn_ok: list[tuple[int, int]] = []  # cross-shard commits only
        self.wrong = 0  # replies that were not the expected bytes
        self.first_new_view_ns: Optional[int] = None

    def served(self, start_ns: int, correct: bool) -> None:
        now = self.sim.now
        self.ok.append((now, now - start_ns))
        if not correct:
            self.wrong += 1

    def gave_up(self) -> None:
        self.refused.append(self.sim.now)


@dataclass
class Deployment:
    """What the engine needs from a started workload."""

    top: object  # Cluster or ShardedCluster: .sim .obs .run_for .collect_metrics
    groups: list  # every PBFT group (Cluster), for counts and agreement checks
    stop: Callable[[], None]
    routers: list = field(default_factory=list)
    generator: object = None  # AggregateWorkload, open loop only
    joins: int = 0
    join_sim_ns: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    warmup_s: float
    window_s: float
    slo_us: int  # latency limit for slo_goodput_tps, simulated
    start: Callable
    # Offset into the window at which the view-0 primary is crashed, never
    # to be restarted; None for the fault-free workloads.
    crash_primary_at_s: Optional[float] = None
    # Called after the deployment is stopped and drained; returns problems.
    check: Optional[Callable] = None


# -- closed loops ------------------------------------------------------------


def _client_loop(client, rec: Recorder, next_op: Callable[[], bytes], expected) -> None:
    """One PBFT client, one outstanding operation, resubmit on completion."""

    def submit() -> None:
        start = rec.sim.now

        def done(result: bytes, _latency: int) -> None:
            if rec.first_new_view_ns is None and client.view_guess > 0:
                rec.first_new_view_ns = rec.sim.now
            rec.served(start, expected(result))
            submit()

        client.invoke(next_op(), callback=done, on_fail=lambda _reason: rec.gave_up())

    submit()


def _join_all(cluster, seed: int) -> int:
    """Dynamic membership: every client joins before the workload starts.
    Returns the simulated time the joins took."""
    rng = cluster.rng.stream("bench-joins")
    joined: list[int] = []
    begin = cluster.sim.now
    for index, client in enumerate(cluster.clients):
        join_client(client, f"bench-{seed}-user-{index}".encode(), rng,
                    callback=joined.append)
    deadline = begin + seconds(5.0)
    while len(joined) < len(cluster.clients) and cluster.sim.now < deadline:
        cluster.run_for(seconds(0.001))
    if len(joined) < len(cluster.clients):
        raise TimeoutError(f"only {len(joined)}/{len(cluster.clients)} clients joined")
    return cluster.sim.now - begin


def _start_null(config: PbftConfig, seed: int, obs, rec: Recorder, size: int = 1024) -> Deployment:
    cluster = build_cluster(
        config, seed=seed, real_crypto=True, obs=obs,
        app_factory=lambda: NullApplication(reply_size=size),
    )
    rec.sim = cluster.sim
    join_ns = _join_all(cluster, seed) if config.dynamic_clients else 0
    payload = bytes(size)
    for client in cluster.clients:
        _client_loop(client, rec, lambda: payload, lambda r: len(r) == size)
    return Deployment(
        top=cluster, groups=[cluster], stop=cluster.stop_clients,
        joins=len(cluster.clients) if config.dynamic_clients else 0,
        join_sim_ns=join_ns,
    )


def start_null_normal_case(seed: int, obs, rec: Recorder) -> Deployment:
    return _start_null(PbftConfig(), seed, obs, rec)


def start_robust_sig_dynamic(seed: int, obs, rec: Recorder) -> Deployment:
    return _start_null(build_config(row_by_name("nosta_nomac_noallbig_batch")), seed, obs, rec)


_VOTES_SCHEMA = (
    "CREATE TABLE votes (id INTEGER PRIMARY KEY, voter TEXT NOT NULL, "
    "vote TEXT NOT NULL, cast_at INTEGER NOT NULL, receipt BLOB NOT NULL);"
    "CREATE UNIQUE INDEX idx_votes_voter ON votes(voter);"
)


def start_evoting_sql_fig5(seed: int, obs, rec: Recorder) -> Deployment:
    cluster = build_cluster(
        PbftConfig(), seed=seed, real_crypto=True, obs=obs,
        app_factory=lambda: SqlApplication(schema_sql=_VOTES_SCHEMA, acid=True),
    )
    rec.sim = cluster.sim
    rng = random.Random(seed)

    def ballots(index: int) -> Callable[[], bytes]:
        seq = 0

        def next_op() -> bytes:
            nonlocal seq
            seq += 1
            return encode_sql_op(
                "INSERT INTO votes (voter, vote, cast_at, receipt) "
                "VALUES (?, ?, now(), randomblob(8))",
                (f"voter-{index}-{seq}", f"candidate-{rng.randrange(3)}"),
            )

        return next_op

    for index, client in enumerate(cluster.clients):
        _client_loop(client, rec, ballots(index), lambda r: r == _SQL_ONE_ROW)
    return Deployment(top=cluster, groups=[cluster], stop=cluster.stop_clients)


# -- sharded closed loops ------------------------------------------------------


def _routed(rec: Recorder, expected, resubmit: Callable[[], None], txn: bool = False):
    """Completion callback of one routed operation submitted now: record
    it as served (checking its replies) or refused, then submit the next."""
    start = rec.sim.now

    def done(result) -> None:
        if result.committed:
            rec.served(start, expected(result.replies))
            if txn:
                rec.txn_ok.append(rec.ok[-1])
        else:
            rec.gave_up()
        resubmit()

    return done


def start_kv_4shard(seed: int, obs, rec: Recorder) -> Deployment:
    shards, routers, keys_per_router = 4, 16, 32
    cluster = build_sharded_cluster(
        shards, config=PbftConfig().with_options(num_clients=0), seed=seed,
        real_crypto=False, num_routers=routers, router_hosts=routers, obs=obs,
    )
    rec.sim = cluster.sim
    rng = random.Random(seed)
    value = bytes(128)

    def loop(router) -> None:
        home = router.router_id % shards
        keys = [
            key_for_shard(cluster.directory, home, f"r{router.router_id}-k{i}")
            for i in range(keys_per_router)
        ]

        def submit() -> None:
            router.invoke(encode_put(rng.choice(keys), value),
                          callback=_routed(rec, lambda replies: replies == (_KV_OK,), submit))

        submit()

    for router in cluster.routers:
        loop(router)
    return Deployment(top=cluster, groups=cluster.groups, stop=cluster.stop,
                      routers=cluster.routers)


def _sql_lock_keys(op: bytes) -> tuple[bytes, ...]:
    sql, _params = decode_sql_op(op)
    return tuple(f"table:{t}".encode() for t in tables_of_sql(sql))


_TRANSFER = "xfer"  # the `who` of every row written by a cross-shard transfer

# Every TXN_EVERY-th operation of a router is a cross-shard transfer.  A
# router talks to each group through one PBFT client, and during a
# transfer its decision, recovery and next single overlap on that client;
# with the default max_client_inflight=1 the group sheds them as BUSY, a
# request body goes missing, and the group wedges for ~250 simulated ms
# about once per 1.5 simulated s.  Whether a window holds zero, one or two
# of those moved sim_tps by 23 % from seed to seed, so the ledger allows
# four in flight (the wedge is the paper's section 2.4, measured by
# harness.experiments, not here).  Sixteen rather than eight keeps the
# median inside the single-insert mode instead of on the edge between it
# and the transfer mode, where it jumped 40 % between seeds.
SQL_MIXED_TXN_EVERY = 16
SQL_MIXED_CLIENT_INFLIGHT = 4


def start_sql_mixed_2shard(seed: int, obs, rec: Recorder) -> Deployment:
    config = PbftConfig().with_options(
        num_clients=0, max_client_inflight=SQL_MIXED_CLIENT_INFLIGHT)
    cluster = build_sharded_cluster(
        2, config=config, seed=seed, real_crypto=False, obs=obs,
        inner_app_factory=lambda shard: SqlApplication(
            schema_sql=f"CREATE TABLE ledger{shard} (id INTEGER PRIMARY KEY, "
            "who TEXT NOT NULL, amount INTEGER NOT NULL);"
        ),
        codec_factory=SqlShardCodec, keys_of=_sql_lock_keys,
        table_map={"ledger0": 0, "ledger1": 1},
        num_routers=4, router_hosts=4,
    )
    rec.sim = cluster.sim
    rng = random.Random(seed)

    def insert(shard: int, who: str, amount: int) -> bytes:
        return encode_sql_op(
            f"INSERT INTO ledger{shard} (who, amount) VALUES (?, ?)", (who, amount)
        )

    def loop(router) -> None:
        n = 0

        def submit() -> None:
            nonlocal n
            n += 1
            amount = rng.randrange(1, 97)
            if n % SQL_MIXED_TXN_EVERY == 0:
                # A transfer: debit on shard 0, credit on shard 1.  A
                # participant whose outcome another router's recovery
                # delivered first acks without replies, so only the replies
                # present are checked; transfers_balance checks that both
                # rows landed.
                router.invoke_txn(
                    [insert(0, _TRANSFER, -amount), insert(1, _TRANSFER, amount)],
                    callback=_routed(rec, lambda replies: set(replies) <= {_SQL_ONE_ROW},
                                     submit, txn=True),
                )
            else:
                router.invoke(
                    insert(n % 2, f"r{router.router_id}-{n}", amount),
                    callback=_routed(rec, lambda replies: replies == (_SQL_ONE_ROW,), submit),
                )

        submit()

    for router in cluster.routers:
        loop(router)
    return Deployment(top=cluster, groups=cluster.groups, stop=cluster.stop,
                      routers=cluster.routers)


def transfers_balance(dep: Deployment) -> list[str]:
    """Cross-shard atomicity: after reconciliation every transfer has both
    of its rows or neither, so the transfer rows of both ledgers sum to 0."""
    dep.top.reconcile()
    total = 0
    for shard, group in enumerate(dep.groups):
        rows = group.apps[0].inner.db.execute(
            f"SELECT SUM(amount) FROM ledger{shard} WHERE who = ?", (_TRANSFER,)
        ).rows
        total += rows[0][0] or 0
    return [] if total == 0 else [f"transfer rows sum to {total}, not 0"]


# -- the open loop ---------------------------------------------------------------


def start_overload_1m_zipf_2x(seed: int, obs, rec: Recorder) -> Deployment:
    cluster = build_cluster(overload_config(), seed=seed, real_crypto=False, obs=obs)
    rec.sim = cluster.sim
    generator = make_workload(
        cluster, "zipfian", OVERLOAD_SIM_CLIENTS, OVERLOAD_OFFERED_TPS,
        payload_size=256, zipf_theta=0.99,
    )
    generator.start()

    def stop() -> None:
        generator.stop()
        cluster.stop_clients()

    return Deployment(top=cluster, groups=[cluster], stop=stop, generator=generator)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="null_normal_case",
        why="Paper Table 1 default row: 1 KiB null ops, MACs, batching; wall spread "
        "over pbft/net/sim/codec/MAC path, sqlstate does nothing",
        loop="closed, 12 clients x 1 outstanding",
        warmup_s=0.1, window_s=0.25, slo_us=1_000,
        start=start_null_normal_case,
    ),
    Workload(
        name="robust_sig_dynamic",
        why="Table 1 other end (nosta_nomac_noallbig_batch): Rabin signatures, joined "
        "clients, bodies in pre-prepares; signing dominates, MAC cache bypassed",
        loop="closed, 12 joined clients x 1 outstanding",
        warmup_s=0.1, window_s=1.2, slo_us=15_000,
        start=start_robust_sig_dynamic,
    ),
    Workload(
        name="evoting_sql_fig5",
        why="Paper Fig. 5: one ACID ballot INSERT per op; sqlstate+statemgr+apps do most "
        "of the work, so kernel/codec changes must not move it and SQL ones must",
        loop="closed, 12 clients x 1 outstanding",
        warmup_s=0.2, window_s=1.5, slo_us=15_000,
        start=start_evoting_sql_fig5,
    ),
    Workload(
        name="kv_4shard",
        why="Scale-out row: 4 groups on one event heap, router single-shard fast path, "
        "stub crypto, no transactions; where a faster DES kernel must show",
        loop="closed, 16 routers x 1 outstanding",
        warmup_s=0.1, window_s=0.1, slo_us=1_000,
        start=start_kv_4shard,
    ),
    Workload(
        name="sql_mixed_2shard",
        why="Contended sharding: every 16th op a cross-shard 2PC transfer over table "
        "locks; aborted transfers are refused attempts, so goodput-for-aborts shows",
        loop="closed, 4 routers x 1 outstanding",
        warmup_s=0.2, window_s=1.2, slo_us=5_000,
        start=start_sql_mixed_2shard, check=transfers_balance,
    ),
    Workload(
        name="overload_1m_zipf_2x",
        why="The only open loop: Poisson arrivals from 1M Zipf clients at a fixed 2x "
        "capacity; admission control, BUSY shedding and the generator do the work",
        loop=f"open, Poisson {OVERLOAD_OFFERED_TPS:.0f} ops/sim-s from "
        f"{OVERLOAD_SIM_CLIENTS} simulated clients, 24 sessions",
        # 0.6 s, not 0.3: about 1.3 % of completions were shed once and
        # retried after the 10 ms back-off, so sim_p99_us sits where that
        # tail begins; over 0.3 s one seed in eighteen had under 1 % of them
        # and read 1 ms instead of 10.
        warmup_s=0.2, window_s=0.6, slo_us=5_000,
        start=start_overload_1m_zipf_2x,
    ),
    Workload(
        name="primary_crash_failover",
        why="The fault run: primary crashed inside the window and never restarted; "
        "view change and client retransmit/backoff, then 3-of-4 degraded service",
        loop="closed, 12 clients x 1 outstanding, kept through the outage",
        # 2.5 s because about one seed in thirty needs a second view change
        # and is back in service only 1.5 s after the crash; the outage and
        # the degraded service cost little wall time.  The crash comes
        # 0.1 s in so that the ~150 operations they delay are 6 % of the
        # window's samples: with more fault-free traffic in front they fell
        # to 1 % and sim_p99_us flipped between 0.8 ms and 150 ms by seed.
        warmup_s=0.1, window_s=2.5, slo_us=1_000,
        start=start_null_normal_case, crash_primary_at_s=0.1,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
