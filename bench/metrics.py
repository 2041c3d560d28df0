"""Every metric of the ledger, declared once: name, unit, direction, and
for a layer metric which end-to-end metric it should move (``moves``).

``BENCHMARK.json`` at the repo root carries the same names, units and
directions in the driver's fixed shape (which has no room for ``moves``);
``test_bench.py`` fails when the two disagree.  Importing this module
needs nothing from ``src/``.

Two kinds of number, never to be confused: a name starting ``sim_`` (or a
unit starting ``sim-``) is the modelled PBFT system on the simulated
clock; everything else is the host cost of running the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

from layers import LAYERS

RUN_SECONDS = 10

# The injected network is the fabric's default LinkSpec for every
# workload; run.py prints it so no latency is read as "instant delivery".
NETWORK = "70 us +/- 10 us one-way, 938 Mb/s, 0 % loss (default LinkSpec)"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    # Share of the parent's median by which the metric may worsen.  Two
    # runs at one seed agree exactly on every simulated metric; these
    # bounds are wider because the driver compares runs at different
    # seeds.  Each is at least three times the widest interquartile spread
    # seen over ten seeds on the 2-core box the ledger was defined on.
    bound: float
    meaning: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "wall: imports + median per-rep (build, schema/joins, simulated warm-up)"),
    EndToEnd("ops_per_wall_s", "ops/wall-s", "higher", 0.25,
             "wall: committed ops in the measured window / its wall time, each tenth of "
             "the window taken from the rep that ran it fastest"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "wall: ru_maxrss of the workload's process"),
    EndToEnd("sim_tps", "ops/sim-s", "higher", 0.10,
             "simulated: committed ops per simulated second of the window"),
    EndToEnd("sim_p50_us", "sim-us", "lower", 0.10,
             "simulated: median op latency, submit (or due time) to completion"),
    EndToEnd("sim_p99_us", "sim-us", "lower", 0.25,
             "simulated: 99th percentile op latency, nearest rank"),
    EndToEnd("sim_ok_op_share", "ratio", "higher", 0.10,
             "simulated: served / (served + refused, shed, aborted, given up, dropped "
             "at source); 1 - failed_op_share; in flight at window end is neither"),
    EndToEnd("slo_goodput_tps", "ops/sim-s", "higher", 0.10,
             "simulated: completions within the workload's latency limit per simulated second"),
)

# Reported beside the end-to-end metrics of primary_crash_failover only
# (and as pbft.failover_sim_ms in the traced run): the driver's contract
# wants every end-to-end metric on every workload and never 0.
FAILOVER = EndToEnd(
    "failover_sim_ms", "sim-ms", "lower", 0.05,
    "simulated: crash instant to the first client completion ordered in the new view")

E2E_NAMES = tuple(m.name for m in END_TO_END)
E2E_UNITS = {m.name: m.unit for m in END_TO_END + (FAILOVER,)}
E2E_WALL = ("setup_s", "ops_per_wall_s", "peak_rss_mb")  # the rest is exact per seed


# -- how the metrics interact (written down before measuring) ----------------
# (layer-metric patterns, end-to-end metrics they should move, on which
# workloads, and where they should *not* move).  README.md carries the
# same table.

INTERACTIONS: tuple[tuple[tuple[str, ...], str, str, str], ...] = (
    (("sim.wall_us_per_op", "sim.events_per_op", "sim.events_per_wall_s"),
     "ops_per_wall_s", "null_normal_case, kv_4shard (largest heap)",
     "evoting_sql_fig5 (<3 % share)"),
    (("net.wall_us_per_op",),
     "ops_per_wall_s", "null_normal_case, kv_4shard", "evoting_sql_fig5"),
    (("net.packets_per_op", "net.bytes_per_op"),
     "sim_tps, sim_p50_us",
     "null_normal_case; robust_sig_dynamic (bodies in pre-prepares)", "-"),
    (("crypto.wall_us_per_op", "crypto.sign_calls_per_op"),
     "ops_per_wall_s; sim_tps (cost model charges per signature)", "robust_sig_dynamic",
     "kv_4shard, overload_1m_zipf_2x (stub crypto)"),
    (("crypto.mac_ops_per_op", "crypto.mac_cache_hit_ratio"),
     "ops_per_wall_s", "null_normal_case", "robust_sig_dynamic"),
    (("pbft.replica.wall_us_per_op", "pbft.node.wall_us_per_op", "pbft.log.wall_us_per_op",
      "pbft.client.wall_us_per_op"),
     "ops_per_wall_s", "null_normal_case, kv_4shard", "evoting_sql_fig5 (<=15 %)"),
    (("pbft.messages.wall_us_per_op", "pbft.messages.encode_calls_per_op"),
     "ops_per_wall_s", "null_normal_case, robust_sig_dynamic", "evoting_sql_fig5"),
    (("pbft.ops_per_batch", "pbft.primary_cpu_busy_share", "pbft.phase_us.*"),
     "sim_tps, sim_p50_us (primary CPU is the simulated bottleneck; batching trades "
     "first-op delay for per-op cost)", "null_normal_case", "-"),
    (("pbft.busy_replies_per_op", "harness.*_share"),
     "slo_goodput_tps, sim_ok_op_share, sim_p99_us", "overload_1m_zipf_2x",
     "all closed loops without transactions (must stay 0)"),
    (("pbft.viewchange.wall_us_per_op", "pbft.retransmissions_per_op", "pbft.view_changes",
      "pbft.failover_sim_ms"),
     "failover_sim_ms, sim_tps, sim_p99_us", "primary_crash_failover",
     "everywhere else view_changes = 0"),
    (("statemgr.wall_us_per_op", "statemgr.digest_calls_per_checkpoint"),
     "ops_per_wall_s", "evoting_sql_fig5 (dirty pages per insert)", "null_normal_case (~3 %)"),
    (("sqlstate.*.wall_us_per_op",),
     "ops_per_wall_s", "evoting_sql_fig5, sql_mixed_2shard",
     "null_normal_case, kv_4shard (exactly 0)"),
    (("sqlstate.syncs_per_stmt", "sqlstate.pages_written_per_stmt",
      "sqlstate.pages_journaled_per_stmt"),
     "sim_tps, sim_p50_us (fsync cost is the Fig. 5 collapse)", "evoting_sql_fig5", "-"),
    (("shard.router.wall_us_per_op",),
     "ops_per_wall_s", "kv_4shard", "single-group workloads (0)"),
    (("shard.txapp.wall_us_per_op", "shard.lock_conflicts_per_kop", "shard.txn_abort_share"),
     "sim_tps, sim_p99_us, sim_ok_op_share", "sql_mixed_2shard", "kv_4shard (no transactions)"),
    (("membership.join_sim_ms", "membership.joins"),
     "setup_s", "robust_sig_dynamic", "others (0 joins)"),
    (("obs.tracing_wall_ratio",),
     "nothing end-to-end (measured with tracing off); it is its own budget row", "all", "-"),
)


def moves_of(name: str) -> str:
    for patterns, moves, on, not_on in INTERACTIONS:
        if any(fnmatchcase(name, p) for p in patterns):
            return f"{moves} on {on}; not on {not_on}"
    return ""


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str

    @property
    def moves(self) -> str:
        return moves_of(self.name)


# Family 1: exact work counts of the untraced window, per committed op.
COUNTS: tuple[LayerMetric, ...] = (
    LayerMetric("sim.events_per_op", "events/op", "lower"),
    LayerMetric("sim.events_cancelled_per_op", "events/op", "lower"),
    LayerMetric("sim.max_queue_len", "events", "lower"),
    LayerMetric("net.packets_per_op", "packets/op", "lower"),
    LayerMetric("net.bytes_per_op", "bytes/op", "lower"),
    LayerMetric("net.packets_dropped", "count", "lower"),
    LayerMetric("crypto.mac_ops_per_op", "macs/op", "lower"),
    LayerMetric("crypto.mac_cache_hit_ratio", "ratio", "higher"),
    LayerMetric("pbft.ops_per_batch", "ops/batch", "higher"),
    LayerMetric("pbft.retransmissions_per_op", "msgs/op", "lower"),
    LayerMetric("pbft.busy_replies_per_op", "msgs/op", "lower"),
    LayerMetric("pbft.view_changes", "count", "lower"),
    LayerMetric("pbft.checkpoints_stabilized", "count", "lower"),
    LayerMetric("pbft.primary_cpu_busy_share", "ratio", "lower"),
    LayerMetric("pbft.backup_cpu_busy_share", "ratio", "lower"),
    LayerMetric("pbft.client_cpu_busy_share", "ratio", "lower"),
    LayerMetric("pbft.failover_sim_ms", "sim-ms", "lower"),
    LayerMetric("sqlstate.rows_scanned_per_stmt", "rows/stmt", "lower"),
    LayerMetric("sqlstate.pages_written_per_stmt", "pages/stmt", "lower"),
    LayerMetric("sqlstate.pages_journaled_per_stmt", "pages/stmt", "lower"),
    LayerMetric("sqlstate.syncs_per_stmt", "syncs/stmt", "lower"),
    LayerMetric("sqlstate.plan_cache_hit_ratio", "ratio", "higher"),
    LayerMetric("sqlstate.pool_evictions", "count", "lower"),
    LayerMetric("shard.lock_conflicts_per_kop", "per-kop", "lower"),
    LayerMetric("shard.txn_abort_share", "ratio", "lower"),
    LayerMetric("shard.txn_sim_p50_us", "sim-us", "lower"),
    LayerMetric("shard.wrong_shard_redirects", "count", "lower"),
    LayerMetric("shard.prepare_timeouts", "count", "lower"),
    LayerMetric("harness.busy_skip_share", "ratio", "lower"),
    LayerMetric("harness.session_drop_share", "ratio", "lower"),
    LayerMetric("harness.failed_op_share", "ratio", "lower"),
    LayerMetric("harness.inflight_hwm", "count", "lower"),
    LayerMetric("membership.joins", "count", "lower"),
    LayerMetric("membership.join_sim_ms", "sim-ms", "lower"),
)

# Host timing of the same untraced window.
TIMING: tuple[LayerMetric, ...] = (
    LayerMetric("sim.events_per_wall_s", "events/wall-s", "higher"),
)

# Family 2: host self time and calls per layer, one rep under cProfile.
PROFILE: tuple[LayerMetric, ...] = tuple(
    metric
    for layer in LAYERS
    for metric in (
        LayerMetric(f"{layer}.wall_us_per_op", "wall-us/op", "lower"),
        LayerMetric(f"{layer}.calls_per_op", "calls/op", "lower"),
    )
) + (
    LayerMetric("crypto.sign_calls_per_op", "calls/op", "lower"),
    LayerMetric("crypto.verify_calls_per_op", "calls/op", "lower"),
    LayerMetric("crypto.digest_calls_per_op", "calls/op", "lower"),
    LayerMetric("pbft.messages.encode_calls_per_op", "calls/op", "lower"),
    LayerMetric("pbft.messages.decode_calls_per_op", "calls/op", "lower"),
    LayerMetric("statemgr.digest_calls_per_checkpoint", "calls/ckpt", "lower"),
)

# Family 3: simulated-time tiling and the cost of the instruments, one
# rep with Observability(tracing=True).
PHASES = ("client-send", "pre-prepare", "prepare", "commit", "execute", "reply")
TRACE: tuple[LayerMetric, ...] = tuple(
    LayerMetric(f"pbft.phase_us.{phase}", "sim-us/op", "lower") for phase in PHASES
) + (
    LayerMetric("obs.trace_events_per_op", "events/op", "lower"),
    LayerMetric("obs.tracing_wall_ratio", "ratio", "lower"),
    LayerMetric("obs.profile_wall_ratio", "ratio", "lower"),
)

PER_LAYER: tuple[LayerMetric, ...] = COUNTS + TIMING + PROFILE + TRACE
LAYER_UNITS = {m.name: m.unit for m in PER_LAYER}


def benchmark_json(workloads) -> dict:
    """The contents BENCHMARK.json must have; ``workloads`` yields
    ``(name, why)`` pairs."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
