"""One workload measured from outside the program: the rep, and the run
protocol that reduces several reps to one row of the ledger.

A rep is: build the deployment and start the load (set-up, timed) ->
simulated warm-up (still set-up) -> the measured window (timed with
``perf_counter`` around ``run_for`` only, GC collected then parked) ->
stop, drain, check.  Everything a rep reports falls in one of three
groups, kept apart because they are compared differently:

* ``sim``    — results of the modelled system on the simulated clock.
  Deterministic in (workload, seed): identical across reps or the run fails.
* ``counts`` — exact work counts of each layer over the window, from
  registry/stat deltas.  Deterministic too.
* ``wall``   — host seconds.  Noisy; reduced over reps by :func:`run_workload`.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import pstats
import re
import resource
import statistics
import time
from typing import Optional

from repro.common.units import seconds
from repro.obs import Observability, nearest_rank_percentile, phase_breakdown
from repro.sqlstate.pager import shared_pool

import layers
from metrics import PHASES
from workloads import Deployment, Recorder, Workload

# Simulated time the deployment keeps running after its clients stopped,
# so every in-flight batch commits and executes at every live replica
# before state roots are compared.
DRAIN_S = 0.05

P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile
WARMUP_SCALE = 0.25  # the discarded warm-up rep and --smoke run quarter windows
MIN_REPS = 2
WINDOW_SLICES = 10


# -- snapshots -----------------------------------------------------------------


def _snapshot(dep: Deployment) -> dict[str, float]:
    """Every cumulative counter the layers expose, by name."""
    dep.top.collect_metrics()
    snap = {
        name: value
        for name, value in dep.top.obs.registry.snapshot().items()
        if not isinstance(value, dict)
    }
    mac = [group.keys.mac_cache.stats() for group in dep.groups]
    snap["bench.mac_hits"] = sum(s["hits"] for s in mac)
    snap["bench.mac_misses"] = sum(s["misses"] for s in mac)
    snap["bench.pool_evictions"] = shared_pool().evictions
    sql = dict.fromkeys(
        ("statements", "rows_scanned", "pages_written", "pages_journaled", "syncs",
         "plan_hits", "plan_misses"), 0)
    for group in dep.groups:
        # Replica 0's engine: SQL state is replicated, one copy is the count.
        app = getattr(group.apps[0], "inner", group.apps[0])
        db = getattr(app, "db", None)
        if db is None:
            continue
        sql["statements"] += db.total_statements
        sql["rows_scanned"] += db.executor.rows_scanned
        sql["pages_written"] += db.pager.pages_written
        if db.pager.journal is not None:
            sql["pages_journaled"] += db.pager.journal.pages_journaled_total
        sql["syncs"] += app.disk.syncs
        sql["plan_hits"] += db.plan_cache_hits
        sql["plan_misses"] += db.plan_cache_misses
    for key, value in sql.items():
        snap[f"bench.sql_{key}"] = value
    if dep.generator is not None:
        for key, value in dep.generator.snapshot().items():
            snap[f"bench.gen_{key}"] = value
    return snap


def _total(delta: dict[str, float], pattern: str) -> float:
    regex = re.compile(pattern)
    return sum(value for name, value in delta.items() if regex.search(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_REPLICA = r"(?:^|-)replica\d+\."
_CLIENT = r"(?:^|-)client\d+\."
_ROUTER = r"^router\d+\."


def _cpu_share(delta: dict[str, float], host_pattern: str, window_ns: int) -> float:
    """Mean simulated CPU utilisation of the matching hosts that did any
    work (a sharded deployment's unused per-group client hosts stay out)."""
    regex = re.compile(r"^host\.(.*)\.cpu_busy_ns$")
    busy = [
        value for name, value in delta.items()
        if value and (m := regex.match(name)) and re.search(host_pattern, m.group(1))
    ]
    return _ratio(sum(busy), len(busy) * window_ns)


def work_counts(dep: Deployment, before: dict, after: dict, sim: dict,
                window_ns: int) -> dict[str, float]:
    """Family 1 of the per-layer metrics: exact work per committed op."""
    delta = {name: after[name] - before.get(name, 0) for name in after}
    ops = sim["completed"]
    stmts = delta["bench.sql_statements"]
    mac_ops = delta["bench.mac_hits"] + delta["bench.mac_misses"]
    commits = _total(delta, _ROUTER + r"txns_committed$")
    aborts = _total(delta, _ROUTER + r"txns_aborted$")
    ticks = delta.get("bench.gen_ticks", 0)
    return {
        "sim.events_per_op": _ratio(delta["sim.events_run"], ops),
        "sim.events_cancelled_per_op": _ratio(delta["sim.events_cancelled"], ops),
        "sim.max_queue_len": after["sim.max_queue_len"],
        "net.packets_per_op": _ratio(delta["net.packets_sent"], ops),
        "net.bytes_per_op": _ratio(delta["net.bytes_sent"], ops),
        "net.packets_dropped": delta["net.packets_dropped"],
        "crypto.mac_ops_per_op": _ratio(mac_ops, ops),
        "crypto.mac_cache_hit_ratio": _ratio(delta["bench.mac_hits"], mac_ops),
        "pbft.ops_per_batch": _ratio(
            _total(delta, _REPLICA + r"batched_requests$"),
            _total(delta, _REPLICA + r"batches_issued$"),
        ),
        "pbft.retransmissions_per_op": _ratio(_total(delta, _CLIENT + r"retransmissions$"), ops),
        "pbft.busy_replies_per_op": _ratio(_total(delta, _REPLICA + r"busy_sent$"), ops),
        "pbft.view_changes": _total(delta, _REPLICA + r"view_changes_started$"),
        "pbft.checkpoints_stabilized": _total(delta, _REPLICA + r"checkpoints_stabilized$"),
        "pbft.primary_cpu_busy_share": _cpu_share(delta, r"replica0$", window_ns),
        "pbft.backup_cpu_busy_share": _cpu_share(delta, r"replica[1-9]\d*$", window_ns),
        "pbft.client_cpu_busy_share": _cpu_share(delta, r"(?:client|router)host\d+$", window_ns),
        "pbft.failover_sim_ms": sim.get("failover_sim_ms", 0.0),
        "sqlstate.rows_scanned_per_stmt": _ratio(delta["bench.sql_rows_scanned"], stmts),
        "sqlstate.pages_written_per_stmt": _ratio(delta["bench.sql_pages_written"], stmts),
        "sqlstate.pages_journaled_per_stmt": _ratio(delta["bench.sql_pages_journaled"], stmts),
        "sqlstate.syncs_per_stmt": _ratio(delta["bench.sql_syncs"], stmts),
        "sqlstate.plan_cache_hit_ratio": _ratio(
            delta["bench.sql_plan_hits"],
            delta["bench.sql_plan_hits"] + delta["bench.sql_plan_misses"],
        ),
        "sqlstate.pool_evictions": delta["bench.pool_evictions"],
        "shard.lock_conflicts_per_kop": 1000 * _ratio(
            _total(delta, _ROUTER + r"lock_conflicts$"), ops),
        "shard.txn_abort_share": _ratio(aborts, commits + aborts),
        "shard.txn_sim_p50_us": sim["txn_sim_p50_us"],
        "shard.wrong_shard_redirects": _total(delta, _ROUTER + r"wrong_shard_redirects$"),
        "shard.prepare_timeouts": _total(delta, _ROUTER + r"prepare_timeouts$"),
        "harness.busy_skip_share": _ratio(delta.get("bench.gen_busy_skips", 0), ticks),
        "harness.session_drop_share": _ratio(delta.get("bench.gen_session_drops", 0), ticks),
        "harness.failed_op_share": 1.0 - sim["sim_ok_op_share"],
        "harness.inflight_hwm": dep.generator.inflight_hwm if dep.generator else 0,
        "membership.joins": dep.joins,
        "membership.join_sim_ms": dep.join_sim_ns / 1e6,
    }


# -- simulated results -----------------------------------------------------------


def _sim_results(w: Workload, dep: Deployment, rec: Recorder, before: dict, after: dict,
                 start_ns: int, window_ns: int, crash_ns: Optional[int]) -> dict:
    if dep.generator is not None:
        # The generator owns its completion closures; its public
        # completions list carries the same (finish, latency) pairs, with
        # latency counted from the arrival's due time (it submits on the
        # tick or drops the arrival, it never queues one).
        ok = dep.generator.completions[before["bench.gen_completions"]:]
        refused = sum(
            after[f"bench.gen_{key}"] - before[f"bench.gen_{key}"]
            for key in ("busy_skips", "session_drops", "failed")
        )
    else:
        ok = [pair for pair in rec.ok if pair[0] >= start_ns]
        refused = sum(1 for t in rec.refused if t >= start_ns)
    latencies = sorted(lat for _t, lat in ok)
    completed = len(ok)
    within = sum(1 for lat in latencies if lat <= w.slo_us * 1000)
    txn_lat = sorted(lat for t, lat in rec.txn_ok if t >= start_ns)
    window_s = window_ns / 1e9
    sim = {
        "completed": completed,
        # In flight at the window's end is neither served nor refused.
        "attempted": completed + refused,
        "refused": refused,
        "wrong_replies": rec.wrong,
        "sim_tps": completed / window_s,
        "sim_p50_us": nearest_rank_percentile(latencies, 0.50) / 1000,
        "sim_p99_us": nearest_rank_percentile(latencies, 0.99) / 1000,
        "sim_mean_latency_ns": _ratio(sum(latencies), completed),
        "sim_ok_op_share": _ratio(completed, completed + refused),
        "slo_goodput_tps": within / window_s,
        "txn_sim_p50_us": nearest_rank_percentile(txn_lat, 0.50) / 1000,
    }
    if crash_ns is not None:
        new_view_ns = rec.first_new_view_ns
        sim["failover_sim_ms"] = (new_view_ns - crash_ns) / 1e6 if new_view_ns else 0.0
    return sim


# -- checks ----------------------------------------------------------------------


def _check(w: Workload, dep: Deployment, sim: dict, counts: dict, full_window: bool) -> list[str]:
    problems: list[str] = []
    roots = []
    for index, group in enumerate(dep.groups):
        live = [r for r in group.replicas if not r.crashed]
        group_roots = {r.state.refresh_tree().hex() for r in live}
        if len(group_roots) != 1:
            problems.append(f"group {index}: live replicas hold {len(group_roots)} state roots")
        roots.append(sorted(group_roots)[0])
        completed = sum(c.completed_ops for c in group.clients)
        completed += sum(r.clients[index].completed_ops for r in dep.routers)
        executed = max(r.stats["requests_executed"] for r in live)
        if completed > executed:
            problems.append(
                f"group {index}: clients completed {completed} ops, replicas executed {executed}")
        views = {r.view for r in live}
        if w.crash_primary_at_s is None:
            if views != {0}:
                problems.append(f"group {index}: replicas left view 0: {sorted(views)}")
        # A quarter window ends before the view change does.
        elif full_window and (len(views) != 1 or min(views) < 1):
            problems.append(f"after the crash live replicas are in views {sorted(views)}")
    sim["state_roots"] = roots
    if w.crash_primary_at_s is None:
        if counts["pbft.view_changes"] != 0:
            problems.append(f"{counts['pbft.view_changes']:.0f} view changes without a fault")
    elif full_window and (counts["pbft.view_changes"] < 1 or sim["failover_sim_ms"] <= 0):
        problems.append("the primary crash produced no completed view change")
    if sim["wrong_replies"]:
        problems.append(f"{sim['wrong_replies']} replies were not the expected bytes")
    if not sim["completed"]:
        problems.append("no operation completed in the window")
    # Quarter windows hold too few samples by design.
    if full_window and sim["completed"] < P99_MIN_SAMPLES:
        problems.append(
            f"{sim['completed']} latency samples, fewer than the {P99_MIN_SAMPLES} sim_p99_us needs")
    if w.check is not None:
        problems.extend(w.check(dep))
    return problems


# -- the rep ---------------------------------------------------------------------


def run_rep(w: Workload, seed: int, scale: float = 1.0, obs=None, profiler=None) -> dict:
    """Run one repetition; ``scale`` shrinks both simulated windows."""
    rec = Recorder()
    gc.collect()
    t0 = time.perf_counter()
    dep = w.start(seed, obs, rec)
    sim_clock = dep.top.sim
    dep.top.run_for(seconds(w.warmup_s * scale))
    setup_wall = time.perf_counter() - t0

    window_ns = seconds(w.window_s * scale)
    start_ns = sim_clock.now
    before = _snapshot(dep)
    tracer = dep.top.obs.tracer
    trace_mark = len(tracer.events)
    crash_ns = None
    if w.crash_primary_at_s is not None:
        offset_ns = seconds(w.crash_primary_at_s * scale)
        sim_clock.schedule(offset_ns, dep.groups[0].replicas[0].crash)
        crash_ns = start_ns + offset_ns
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if profiler is not None:
            profiler.enable()
        # The window runs as equal slices of simulated time, each timed
        # apart.  Slice i does identical work in every rep, so a run can
        # take each slice from the rep that was not disturbed during it.
        slice_walls = []
        for index in range(1, WINDOW_SLICES + 1):
            slice_end_ns = start_ns + window_ns * index // WINDOW_SLICES
            t1 = time.perf_counter()
            dep.top.run_for(slice_end_ns - sim_clock.now)
            slice_walls.append(time.perf_counter() - t1)
        window_wall = sum(slice_walls)
        if profiler is not None:
            profiler.disable()
    finally:
        if gc_was_enabled:
            gc.enable()
    after = _snapshot(dep)

    sim = _sim_results(w, dep, rec, before, after, start_ns, window_ns, crash_ns)
    counts = work_counts(dep, before, after, sim, window_ns)
    trace = None
    if tracer.enabled:
        # Taken now: the drain below completes requests outside the window.
        trace = {
            "events": len(tracer.events) - trace_mark,
            "dropped": tracer.dropped,
            "phases_ns": phase_breakdown(tracer, since_ns=start_ns) if len(dep.groups) == 1 else {},
        }
    dep.stop()
    dep.top.run_for(seconds(DRAIN_S))
    return {
        "sim": sim,
        "counts": counts,
        "wall": {
            "setup_s": setup_wall,
            "window_s": window_wall,
            "slices_s": slice_walls,
            "events_per_wall_s": _ratio(
                after["sim.events_run"] - before["sim.events_run"], window_wall),
        },
        "trace": trace,
        "problems": _check(w, dep, sim, counts, full_window=scale == 1.0),
    }


# -- the run protocol ------------------------------------------------------------


def _same_simulation(reps: list[dict], labels: list[str]) -> list[str]:
    problems = []
    for rep, label in zip(reps[1:], labels[1:]):
        for group in ("sim", "counts"):
            for key, value in reps[0][group].items():
                if rep[group][key] != value:
                    problems.append(
                        f"{group}.{key} differs between the {labels[0]} and the {label} rep: "
                        f"{value!r} vs {rep[group][key]!r}")
    return problems


def _traced_layers(w: Workload, seed: int, scale: float, base: dict) -> tuple[dict, list[str]]:
    """Families 2 and 3: one rep under cProfile, one with the tracer on."""
    ops = base["sim"]["completed"]
    profiler = cProfile.Profile()
    profiled = run_rep(w, seed, scale, profiler=profiler)
    stats = pstats.Stats(profiler).stats
    traced = run_rep(w, seed, scale, obs=Observability(tracing=True))
    problems = profiled["problems"] + traced["problems"]
    problems += _same_simulation([base, profiled, traced], ["untraced", "profiled", "traced"])

    out: dict[str, float] = {}
    folded = layers.fold_profile(stats)
    for layer, row in folded.items():
        out[f"{layer}.wall_us_per_op"] = _ratio(row["self_s"] * 1e6, ops)
        out[f"{layer}.calls_per_op"] = _ratio(row["calls"], ops)
    calls = functools.partial(layers.calls_where, stats)
    digests = ("md5_digest", "digest_parts")
    out["crypto.sign_calls_per_op"] = _ratio(calls("crypto", ("rabin_sign",)), ops)
    out["crypto.verify_calls_per_op"] = _ratio(calls("crypto", ("rabin_verify",)), ops)
    out["crypto.digest_calls_per_op"] = _ratio(calls("crypto", digests), ops)
    out["pbft.messages.encode_calls_per_op"] = _ratio(
        calls("pbft.messages", ("encode", "encode_header")), ops)
    out["pbft.messages.decode_calls_per_op"] = _ratio(
        calls("pbft.messages", ("decode", "decode_from")), ops)
    out["statemgr.digest_calls_per_checkpoint"] = _ratio(
        calls("crypto", digests, caller_layer="statemgr"),
        base["counts"]["pbft.checkpoints_stabilized"])

    shares = _ratio(sum(row["self_s"] for row in folded.values()),
                    sum(row[2] for row in stats.values()))
    if abs(shares - 1.0) > 1e-9:
        problems.append(f"layer shares of the profile sum to {shares}")

    trace = traced["trace"]
    phases = trace["phases_ns"]
    for phase in PHASES:
        out[f"pbft.phase_us.{phase}"] = phases.get(phase, 0.0) / 1000
    if phases:
        gap_ns = abs(sum(phases.values()) - base["sim"]["sim_mean_latency_ns"])
        if gap_ns > 1.0:
            problems.append(f"the six phases miss the mean latency by {gap_ns:.1f} ns/op")
    if trace["dropped"]:
        problems.append(f"the tracer dropped {trace['dropped']} events")
    out["obs.trace_events_per_op"] = _ratio(trace["events"], ops)
    out["obs.tracing_wall_ratio"] = _ratio(traced["wall"]["window_s"], base["wall"]["window_s"])
    out["obs.profile_wall_ratio"] = _ratio(profiled["wall"]["window_s"], base["wall"]["window_s"])
    return out, problems


def run_workload(w: Workload, seed: int, budget_s: float, traced: bool = False,
                 smoke: bool = False, import_s: float = 0.0) -> dict:
    """One row of the ledger.

    Untraced: a discarded quarter-window warm-up rep (lazy imports, lru and
    plan caches, buffer pool), then timed reps until the next would overrun
    ``budget_s`` of wall time, at least two.  Traced: the warm-up, one
    untraced rep for the exact counts and the base wall, one rep under
    cProfile, one with the tracer on.  ``smoke`` is one quarter-window rep.
    """
    scale = WARMUP_SCALE if smoke else 1.0
    problems: list[str] = []
    if not smoke:
        problems += run_rep(w, seed, WARMUP_SCALE)["problems"]
    reps: list[dict] = []
    began = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        reps.append(run_rep(w, seed, scale))
        now = time.perf_counter()
        if smoke or traced:
            break
        if len(reps) >= MIN_REPS and (now - began) + (now - rep_began) > budget_s:
            break
    for rep in reps:
        problems += rep["problems"]
    problems += _same_simulation(reps, [f"{i + 1}." for i in range(len(reps))])

    base = reps[0]
    sim, counts = base["sim"], base["counts"]
    window_walls = [rep["wall"]["window_s"] for rep in reps]
    setup_walls = [rep["wall"]["setup_s"] for rep in reps]
    # Wall noise on a shared box only ever adds, so the estimate of the
    # window's wall time is the fastest run of each slice over the reps;
    # every rep's own total is in per_rep.
    stitched_wall = sum(min(rep["wall"]["slices_s"][i] for rep in reps)
                        for i in range(WINDOW_SLICES))
    end_to_end = {
        "setup_s": import_s + statistics.median(setup_walls),
        "ops_per_wall_s": sim["completed"] / stitched_wall,
        "peak_rss_mb": 0.0,  # filled in below, after the last allocation
        "sim_tps": sim["sim_tps"],
        "sim_p50_us": sim["sim_p50_us"],
        "sim_p99_us": sim["sim_p99_us"],
        "sim_ok_op_share": sim["sim_ok_op_share"],
        "slo_goodput_tps": sim["slo_goodput_tps"],
    }
    if "failover_sim_ms" in sim:
        end_to_end["failover_sim_ms"] = sim["failover_sim_ms"]
    row = {
        "workload": w.name,
        "seed": seed,
        "scale": scale,
        "reps": len(reps),
        "loop": w.loop,
        "sim_warmup_s": w.warmup_s * scale,
        "sim_window_s": w.window_s * scale,
        "slo_us": w.slo_us,
        "p99_supported": sim["completed"] >= P99_MIN_SAMPLES,
        "end_to_end": end_to_end,
        "sim": sim,
        "counts": counts,
        "per_rep": {
            "import_s": import_s,
            "setup_s": setup_walls,
            "window_wall_s": window_walls,
            "window_wall_stitched_s": stitched_wall,
            "ops_per_wall_s": [sim["completed"] / wall for wall in window_walls],
        },
    }
    if traced:
        per_layer = dict(counts)
        per_layer["sim.events_per_wall_s"] = base["wall"]["events_per_wall_s"]
        more, more_problems = _traced_layers(w, seed, scale, base)
        per_layer.update(more)
        problems += more_problems
        row["per_layer"] = per_layer
    # ru_maxrss is KiB on Linux.
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    row["problems"] = problems
    return row
