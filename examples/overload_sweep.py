#!/usr/bin/env python3
"""Aggregate open-loop overload sweep: a million simulated clients.

Estimates the cluster's closed-loop capacity, then drives *aggregate*
open-loop arrival schedules at multiples of it through
``repro.harness.workload``: one generator simulates the arrival process
of ``--sim-clients`` clients (uniform, Zipfian-skewed, or diurnal-curve
scenarios), multiplexing them over the cluster's bounded session pool and
the PR-4 admission path.  Per-simulated-client state exists only while an
operation is in flight, so the 1,000,000-client default runs in the same
memory as a 24-client sweep — the reported ``inflight_hwm`` column is the
proof.

Points are farmed across ``--workers`` processes by
``repro.harness.sweeprunner`` with hash-derived collision-free per-cell
seeds; serial and parallel runs produce byte-identical merged JSON
(``--verify-merge`` checks exactly that).

Run:  python examples/overload_sweep.py [--smoke] [--workers N]
          [--scenarios uniform,zipfian,diurnal] [--sim-clients N]
          [--verify-merge] [--out BENCH_overload.json]

Exits non-zero if goodput at 2x offered load falls below 80% of goodput
at 1x on the gate scenario (the graceful-degradation bar the CI smoke
job enforces), or if --verify-merge finds a serial/parallel mismatch.
"""

import argparse
import sys
import time

from repro.harness.reporting import format_aggregate_overload
from repro.harness.overload import estimate_capacity, overload_config
from repro.harness.sweeprunner import merged_json
from repro.harness.workload import run_aggregate_overload_sweep

GRACEFUL_AT = 2.0
GRACEFUL_REFERENCE = 1.0
GRACEFUL_BAR = 0.8


def build_document(scenarios, args, capacity_tps, multipliers, windows, workers):
    """Run every scenario's sweep and assemble the merged BENCH document.

    Everything in the document is simulated-time and deterministic in
    (scenario, seed) — wall clock and worker count deliberately stay out,
    so a serial and a parallel run serialize to identical bytes.
    """
    sweeps = {}
    for scenario in scenarios:
        sweeps[scenario] = run_aggregate_overload_sweep(
            scenario=scenario,
            sim_clients=args.sim_clients,
            multipliers=multipliers,
            seed=args.seed,
            capacity_tps=capacity_tps,
            workers=workers,
            **windows,
        )
    gate = sweeps[scenarios[0]]
    ratio = gate.point_at(GRACEFUL_AT).goodput_tps / (
        gate.point_at(GRACEFUL_REFERENCE).goodput_tps or 1.0
    )
    document = {
        "schema": 2,
        "what": "aggregate open-loop overload sweep over simulated clients",
        "sim_clients": args.sim_clients,
        "capacity_tps": capacity_tps,
        "seed": args.seed,
        "graceful": {
            "scenario": scenarios[0],
            "at": GRACEFUL_AT,
            "reference": GRACEFUL_REFERENCE,
            "bar": GRACEFUL_BAR,
            "goodput_ratio": ratio,
        },
        "sweeps": {name: sweep.to_dict() for name, sweep in sweeps.items()},
    }
    return document, sweeps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="3-point uniform sweep with short windows, sized for CI",
    )
    parser.add_argument(
        "--seed", type=int, default=3, help="base RNG seed (default 3)"
    )
    parser.add_argument(
        "--sim-clients", type=int, default=1_000_000, metavar="N",
        help="simulated client population per point (default 1,000,000)",
    )
    parser.add_argument(
        "--scenarios", default=None, metavar="S1,S2,...",
        help="arrival scenarios to sweep (default uniform,zipfian,diurnal; "
        "smoke uses uniform); the first named scenario carries the "
        "graceful-degradation gate",
    )
    parser.add_argument(
        "--multipliers", default=None, metavar="M1,M2,...",
        help="offered-load multipliers (default 0.5,1.0,1.5,2.0; "
        "smoke uses 0.5,1.0,2.0)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="W",
        help="processes to farm sweep cells across (default 1 = serial)",
    )
    parser.add_argument(
        "--verify-merge", action="store_true",
        help="also run every cell serially and fail unless the merged "
        "JSON is byte-identical to the parallel run's",
    )
    parser.add_argument(
        "--out", default="BENCH_overload.json", metavar="FILE",
        help="write the merged sweep as JSON here (default BENCH_overload.json)",
    )
    args = parser.parse_args()

    if args.multipliers is not None:
        multipliers = tuple(float(m) for m in args.multipliers.split(","))
    elif args.smoke:
        multipliers = (0.5, 1.0, 2.0)
    else:
        multipliers = (0.5, 1.0, 1.5, 2.0)
    if args.scenarios is not None:
        scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    elif args.smoke:
        scenarios = ["uniform"]
    else:
        scenarios = ["uniform", "zipfian", "diurnal"]
    windows = (
        dict(warmup_s=0.2, measure_s=0.3) if args.smoke
        else dict(warmup_s=0.3, measure_s=0.5)
    )

    start = time.time()
    capacity_tps = estimate_capacity(overload_config(), seed=args.seed)
    document, sweeps = build_document(
        scenarios, args, capacity_tps, multipliers, windows, args.workers
    )
    wall = time.time() - start

    for sweep in sweeps.values():
        print(format_aggregate_overload(sweep))
        print()
    total_points = sum(len(s.points) for s in sweeps.values())
    print(f"wall time: {wall:.1f}s for {total_points} points "
          f"({args.workers} worker(s))")

    if args.verify_merge:
        serial_document, _ = build_document(
            scenarios, args, capacity_tps, multipliers, windows, workers=1
        )
        if merged_json(serial_document) != merged_json(document):
            print("FAIL: serial and parallel merged JSON differ", file=sys.stderr)
            return 1
        print("verify-merge OK: serial == parallel merged output, byte for byte")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(merged_json(document))
        print(f"wrote {args.out}")

    hwm = max(p.inflight_hwm for s in sweeps.values() for p in s.points)
    print(f"in-flight table high-water mark: {hwm} "
          f"(population {args.sim_clients:,})")

    gate = sweeps[scenarios[0]]
    graceful = gate.graceful(
        at=GRACEFUL_AT, reference=GRACEFUL_REFERENCE, threshold=GRACEFUL_BAR
    )
    verdict = "graceful" if graceful else "COLLAPSED"
    print(f"degradation at {GRACEFUL_AT:.0f}x offered load ({scenarios[0]}): "
          f"{verdict} (goodput ratio "
          f"{document['graceful']['goodput_ratio']:.2f}, bar {GRACEFUL_BAR})")
    return 0 if graceful else 1


if __name__ == "__main__":
    sys.exit(main())
