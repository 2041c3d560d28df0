"""Closed-loop workloads and throughput/latency measurement.

Reproduces the paper's methodology (section 4): closed-loop clients with
one outstanding request each, a warm-up period, then a measured window;
throughput is completed operations per second of *simulated* time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.units import SECOND
from repro.obs import Observability, nearest_rank_percentile
from repro.pbft.cluster import Cluster, build_cluster
from repro.pbft.config import PbftConfig


@dataclass
class Measurement:
    """One workload run's results."""

    name: str
    tps: float
    mean_latency_ns: float
    p50_latency_ns: int
    p99_latency_ns: int
    completed: int
    retransmissions: int
    view_changes: int
    duration_s: float
    extras: dict = field(default_factory=dict)
    # Mean ns per protocol phase (client-send, pre-prepare, prepare,
    # commit, execute, reply) for requests completed in the measured
    # window; empty unless the run was traced.
    phase_latency_ns: dict = field(default_factory=dict)

    @staticmethod
    def from_cluster(
        name: str, cluster: Cluster, completed: int, latencies: list[int], duration_s: float
    ) -> "Measurement":
        latencies = sorted(latencies)
        def pct(p: float) -> int:
            return nearest_rank_percentile(latencies, p)
        return Measurement(
            name=name,
            tps=completed / duration_s if duration_s > 0 else 0.0,
            mean_latency_ns=(sum(latencies) / len(latencies)) if latencies else 0.0,
            p50_latency_ns=pct(0.50),
            p99_latency_ns=pct(0.99),
            completed=completed,
            retransmissions=sum(c.retransmissions for c in cluster.clients),
            view_changes=sum(r.stats["view_changes_started"] for r in cluster.replicas),
            duration_s=duration_s,
        )


def _measure_window(
    cluster: Cluster, warmup_s: float, measure_s: float
) -> tuple[int, list[int], int]:
    """Run warm-up then the measured window; return (completed ops,
    their latencies, the window's simulated start time)."""
    cluster.run_for(int(warmup_s * SECOND))
    window_start = cluster.sim.now
    start_completed = cluster.total_completed()
    start_lat_counts = [len(c.latencies_ns) for c in cluster.clients]
    cluster.run_for(int(measure_s * SECOND))
    completed = cluster.total_completed() - start_completed
    latencies: list[int] = []
    for client, skip in zip(cluster.clients, start_lat_counts):
        latencies.extend(client.latencies_ns[skip:])
    return completed, latencies, window_start


def _finish_traced_run(
    cluster: Cluster,
    measurement: Measurement,
    trace_path: Optional[str],
    window_start: int,
) -> None:
    """Fill in the per-phase breakdown and write the Chrome trace."""
    cluster.collect_metrics()
    if not cluster.obs.tracer.enabled:
        return
    from repro.obs.phases import phase_breakdown

    measurement.phase_latency_ns = phase_breakdown(
        cluster.obs.tracer, since_ns=window_start
    )
    if trace_path is not None:
        cluster.obs.write_chrome_trace(trace_path)


def _start_closed_loop(cluster: Cluster, make_op: Callable[[int, int], tuple[bytes, bool]]):
    """Each client runs a closed loop; ``make_op(client_index, seq)``
    returns (op bytes, readonly)."""
    counters = [0] * len(cluster.clients)

    def loop(index: int):
        client = cluster.clients[index]

        def done(_result: bytes, _latency: int) -> None:
            submit()

        def submit() -> None:
            counters[index] += 1
            op, readonly = make_op(index, counters[index])
            client.invoke(op, readonly=readonly, callback=done)

        submit()

    for index in range(len(cluster.clients)):
        loop(index)


def _join_all(cluster: Cluster) -> None:
    """Dynamic membership: join every client (within 5 simulated seconds)
    before the workload starts."""
    from repro.membership import join_client

    rng = cluster.rng.stream("workload-joins")
    joined: list[int] = []
    for index, client in enumerate(cluster.clients):
        join_client(client, f"bench-user-{index}".encode(), rng,
                    callback=lambda _eid: joined.append(1))
    deadline = cluster.sim.now + 5 * SECOND
    while len(joined) < len(cluster.clients) and cluster.sim.now < deadline:
        cluster.sim.run_for(10_000_000)
    if len(joined) < len(cluster.clients):
        raise TimeoutError(
            f"only {len(joined)}/{len(cluster.clients)} clients joined"
        )


def run_null_workload(
    config: PbftConfig,
    name: str = "null",
    payload_size: int = 1024,
    warmup_s: float = 0.2,
    measure_s: float = 0.5,
    seed: int = 3,
    real_crypto: bool = False,
    app_factory=None,
    cluster_hook: Optional[Callable[[Cluster], None]] = None,
    net_config=None,
    trace_path: Optional[str] = None,
) -> Measurement:
    """The paper's null-operation benchmark (Table 1 / Figure 4).

    With ``trace_path`` set, the run is traced and a Chrome
    ``trace_event`` file (openable in Perfetto / chrome://tracing) is
    written there; the measurement gains ``phase_latency_ns``.
    """
    from repro.pbft.replica import NullApplication

    factory = app_factory or (lambda: NullApplication(reply_size=payload_size))
    obs = Observability(tracing=True) if trace_path is not None else None
    cluster = build_cluster(
        config, seed=seed, real_crypto=real_crypto, app_factory=factory,
        net_config=net_config, obs=obs,
    )
    if cluster_hook is not None:
        cluster_hook(cluster)
    if config.dynamic_clients:
        _join_all(cluster)
    payload = bytes(payload_size)
    _start_closed_loop(cluster, lambda _i, _seq: (payload, False))
    completed, latencies, window_start = _measure_window(cluster, warmup_s, measure_s)
    measurement = Measurement.from_cluster(name, cluster, completed, latencies, measure_s)
    _finish_traced_run(cluster, measurement, trace_path, window_start)
    cluster.stop_clients()
    return measurement


def run_analytics_workload(
    config: PbftConfig,
    name: str = "sql-analytics",
    acid: bool = True,
    warmup_s: float = 0.3,
    measure_s: float = 1.0,
    seed: int = 3,
    real_crypto: bool = False,
    cluster_hook: Optional[Callable[[Cluster], None]] = None,
    trace_path: Optional[str] = None,
) -> Measurement:
    """Multi-table analytics under replication: a stream of order INSERTs
    interleaved with join + GROUP BY aggregate SELECTs over the growing
    fact table.  Every fourth operation of each client is a two-table
    equi-join rollup; the rest append rows.

    The query shapes are deliberately *metric-parity* shapes (equi joins
    onto tiny tables, hash aggregation, full scans): a hash join and the
    nested loop both read every row once, so which one the planner picks
    changes wall-clock cost but not the simulated ``rows_scanned`` the
    cost model charges, and simulated TPS/latency stay bit-identical.
    """
    from repro.apps.sqlapp import SqlApplication, encode_sql_op

    schema = (
        "CREATE TABLE regions (id INTEGER PRIMARY KEY, name TEXT NOT NULL);"
        "CREATE TABLE products (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
        "price INTEGER NOT NULL);"
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, region_id INTEGER NOT NULL, "
        "product_id INTEGER NOT NULL, amount INTEGER NOT NULL, status TEXT NOT NULL);"
        "INSERT INTO regions (name) VALUES ('north');"
        "INSERT INTO regions (name) VALUES ('south');"
        "INSERT INTO regions (name) VALUES ('east');"
        "INSERT INTO regions (name) VALUES ('west');"
        "INSERT INTO products (name, price) VALUES ('widget', 5);"
        "INSERT INTO products (name, price) VALUES ('gadget', 12);"
        "INSERT INTO products (name, price) VALUES ('sprocket', 7);"
        "INSERT INTO products (name, price) VALUES ('gizmo', 3);"
    )
    factory = lambda: SqlApplication(schema_sql=schema, acid=acid)
    obs = Observability(tracing=True) if trace_path is not None else None
    cluster = build_cluster(
        config, seed=seed, real_crypto=real_crypto, app_factory=factory, obs=obs
    )
    if cluster_hook is not None:
        cluster_hook(cluster)
    if config.dynamic_clients:
        _join_all(cluster)

    rollups = (
        "SELECT r.name, COUNT(*), SUM(o.amount) FROM orders o "
        "JOIN regions r ON o.region_id = r.id GROUP BY r.name ORDER BY r.name",
        "SELECT p.name, COUNT(*), SUM(o.amount * p.price) FROM orders o "
        "JOIN products p ON o.product_id = p.id GROUP BY p.name ORDER BY p.name",
    )

    def make_op(index: int, seq: int) -> tuple[bytes, bool]:
        if seq % 4 == 0:
            return encode_sql_op(rollups[(index + seq) % len(rollups)]), False
        return (
            encode_sql_op(
                "INSERT INTO orders (region_id, product_id, amount, status) "
                "VALUES (?, ?, ?, ?)",
                (
                    1 + (index + seq) % 4,
                    1 + (index * 3 + seq) % 4,
                    1 + seq % 9,
                    "open" if seq % 3 else "shipped",
                ),
            ),
            False,
        )

    _start_closed_loop(cluster, make_op)
    completed, latencies, window_start = _measure_window(cluster, warmup_s, measure_s)
    measurement = Measurement.from_cluster(name, cluster, completed, latencies, measure_s)
    # Replicas must agree on the database contents, bit for bit.
    roots = {r.state.refresh_tree() for r in cluster.replicas if not r.crashed}
    if len(roots) != 1:
        raise AssertionError(f"{name}: replica state roots diverged: {len(roots)}")
    measurement.extras["state_root"] = roots.pop().hex()
    _finish_traced_run(cluster, measurement, trace_path, window_start)
    cluster.stop_clients()
    return measurement


def run_sql_workload(
    config: PbftConfig,
    name: str = "sql-insert",
    acid: bool = True,
    warmup_s: float = 0.3,
    measure_s: float = 1.0,
    seed: int = 3,
    real_crypto: bool = False,
    cluster_hook: Optional[Callable[[Cluster], None]] = None,
    trace_path: Optional[str] = None,
) -> Measurement:
    """The paper's section 4.2 benchmark: one ballot INSERT per request.

    "The tuple inserted into the database includes a simple key and value
    text ... in addition to a timestamp and a random value."
    """
    from repro.apps.sqlapp import SqlApplication, encode_sql_op

    schema = (
        "CREATE TABLE votes (id INTEGER PRIMARY KEY, voter TEXT NOT NULL, "
        "vote TEXT NOT NULL, cast_at INTEGER NOT NULL, receipt BLOB NOT NULL);"
        "CREATE UNIQUE INDEX idx_votes_voter ON votes(voter);"
    )
    factory = lambda: SqlApplication(schema_sql=schema, acid=acid)
    obs = Observability(tracing=True) if trace_path is not None else None
    cluster = build_cluster(
        config, seed=seed, real_crypto=real_crypto, app_factory=factory, obs=obs
    )
    if cluster_hook is not None:
        cluster_hook(cluster)
    if config.dynamic_clients:
        _join_all(cluster)

    def make_op(index: int, seq: int) -> tuple[bytes, bool]:
        return (
            encode_sql_op(
                "INSERT INTO votes (voter, vote, cast_at, receipt) "
                "VALUES (?, ?, now(), randomblob(8))",
                (f"voter-{index}-{seq}", f"candidate-{seq % 3}"),
            ),
            False,
        )

    _start_closed_loop(cluster, make_op)
    completed, latencies, window_start = _measure_window(cluster, warmup_s, measure_s)
    measurement = Measurement.from_cluster(name, cluster, completed, latencies, measure_s)
    # Sanity: replicas must agree on the row count they inserted.
    counts = {r.stats["requests_executed"] for r in cluster.replicas if not r.crashed}
    measurement.extras["replica_exec_counts"] = sorted(counts)
    roots = {r.state.refresh_tree() for r in cluster.replicas if not r.crashed}
    if len(roots) == 1:
        measurement.extras["state_root"] = roots.pop().hex()
    _finish_traced_run(cluster, measurement, trace_path, window_start)
    cluster.stop_clients()
    return measurement
