"""Render experiment results in the paper's row/series format."""

from __future__ import annotations

from repro.common.units import format_duration
from repro.harness.configs import (
    PAPER_SQL_ACID_TPS,
    PAPER_SQL_NOACID_TPS,
    ConfigRow,
)
from repro.harness.measure import Measurement


def _yes_no(flag: bool) -> str:
    return "Yes" if flag else "No"


def format_table1(results: list[tuple[ConfigRow, Measurement]]) -> str:
    """Table 1's exact columns, with paper values alongside ours."""
    header = (
        f"{'Name':32s} {'StaticClients':>13s} {'MACs':>5s} {'AllBig':>7s} "
        f"{'Batching':>9s} {'TPS':>8s} {'Paper':>8s} {'%ofBest':>8s}"
    )
    lines = [header, "-" * len(header)]
    best = max(m.tps for _r, m in results) or 1.0
    for row, m in results:
        paper = f"{row.paper_tps:.0f}" if row.paper_tps else "-"
        lines.append(
            f"{row.name:32s} {_yes_no(row.static_clients):>13s} "
            f"{_yes_no(row.use_macs):>5s} {_yes_no(row.all_big):>7s} "
            f"{_yes_no(row.batching):>9s} {m.tps:8.0f} {paper:>8s} "
            f"{100 * m.tps / best:7.1f}%"
        )
    return "\n".join(lines)


def format_fig4(sweep: dict[int, list[tuple[ConfigRow, Measurement]]]) -> str:
    """Figure 4 as series: one column per payload size."""
    sizes = sorted(sweep)
    names = [row.name for row, _m in sweep[sizes[0]]]
    header = f"{'Config':32s} " + " ".join(f"{size:>8d}B" for size in sizes)
    lines = [header, "-" * len(header)]
    for i, name in enumerate(names):
        cells = " ".join(f"{sweep[size][i][1].tps:9.0f}" for size in sizes)
        lines.append(f"{name:32s} {cells}")
    return "\n".join(lines)


def format_fig5(results: list[tuple[ConfigRow, Measurement]]) -> str:
    """Figure 5: SQL insert TPS per configuration."""
    header = f"{'Config':32s} {'TPS':>8s} {'%ofBest':>8s} {'p50 lat':>10s}"
    lines = [header, "-" * len(header)]
    best = max(m.tps for _r, m in results) or 1.0
    for row, m in results:
        lines.append(
            f"{row.name:32s} {m.tps:8.0f} {100 * m.tps / best:7.1f}% "
            f"{format_duration(m.p50_latency_ns):>10s}"
        )
    return "\n".join(lines)


def format_phase_breakdown(measurement: Measurement) -> str:
    """Where a request's latency goes, phase by phase (traced runs only)."""
    phases = measurement.phase_latency_ns
    if not phases:
        return f"{measurement.name}: no phase data (run with trace_path=...)"
    total = sum(phases.values()) or 1
    header = f"{'Phase':14s} {'mean':>10s} {'share':>7s}"
    lines = [f"{measurement.name}: per-phase latency", header, "-" * len(header)]
    for phase, mean_ns in phases.items():
        lines.append(
            f"{phase:14s} {format_duration(int(mean_ns)):>10s} "
            f"{100 * mean_ns / total:6.1f}%"
        )
    lines.append(
        f"{'total':14s} {format_duration(int(total)):>10s} {100.0:6.1f}%"
    )
    return "\n".join(lines)


def format_acid(acid: Measurement, noacid: Measurement) -> str:
    ratio = noacid.tps / acid.tps if acid.tps else float("inf")
    return "\n".join(
        [
            f"{'Mode':12s} {'TPS':>8s} {'Paper':>8s}",
            "-" * 32,
            f"{'ACID':12s} {acid.tps:8.0f} {PAPER_SQL_ACID_TPS:8d}",
            f"{'No-ACID':12s} {noacid.tps:8.0f} {PAPER_SQL_NOACID_TPS:8d}",
            f"speedup without ACID: {ratio:.2f}x (paper: "
            f"{PAPER_SQL_NOACID_TPS / PAPER_SQL_ACID_TPS:.2f}x)",
        ]
    )


def format_aggregate_overload(sweep) -> str:
    """One row per multiplier of an aggregate (simulated-population) sweep."""
    header = (
        f"{'Mult':>5s} {'Offered':>8s} {'Arrived':>8s} {'Goodput':>8s} "
        f"{'p50':>9s} {'p99':>9s} {'Shed':>6s} {'BUSY':>6s} {'BusySkip':>8s} "
        f"{'SessDrop':>8s} {'HWM':>5s}"
    )
    lines = [
        f"aggregate overload sweep: {sweep.sim_clients:,} simulated clients "
        f"({sweep.scenario}) over {sweep.points[0].sessions if sweep.points else 0} "
        f"sessions; closed-loop capacity ~{sweep.capacity_tps:.0f} ops/s "
        f"(seed {sweep.seed}, {sweep.payload_size}B ops)",
        header,
        "-" * len(header),
    ]
    for p in sweep.points:
        lines.append(
            f"{p.multiplier:5.1f} {p.offered_tps:8.0f} {p.arrived_tps:8.0f} "
            f"{p.goodput_tps:8.0f} "
            f"{format_duration(p.p50_latency_ns):>9s} "
            f"{format_duration(p.p99_latency_ns):>9s} "
            f"{p.shed:6d} {p.busy_replies:6d} {p.busy_skips:8d} "
            f"{p.session_drops:8d} {p.inflight_hwm:5d}"
        )
    return "\n".join(lines)


def format_campaign(campaign) -> str:
    """One row per (schedule, seed) run of a fault campaign, worst first."""
    header = (
        f"{'Schedule':26s} {'Seed':>4s} {'Ops':>11s} {'Views':>5s} "
        f"{'SimTime':>9s} {'Verdict'}"
    )
    lines = [header, "-" * len(header)]
    for run in sorted(campaign.runs, key=lambda r: (r.ok, r.schedule, r.seed)):
        verdict = "ok" if run.ok else "; ".join(str(v) for v in run.violations)
        lines.append(
            f"{run.schedule:26s} {run.seed:4d} "
            f"{run.completed_ops}/{run.invoked_ops:<5d} {run.max_view:5d} "
            f"{format_duration(run.sim_time_ns):>9s} {verdict}"
        )
    failed = campaign.failed_runs
    lines.append(
        f"{len(campaign.runs) - len(failed)}/{len(campaign.runs)} runs passed "
        "all invariants"
        + ("" if not failed else f"; {len(failed)} FAILED")
    )
    return "\n".join(lines)
