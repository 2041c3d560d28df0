#!/usr/bin/env python3
"""Compare two ledger files written by run.py.

    python bench/compare.py A.json B.json

For every (workload, end-to-end metric) prints A, B, the ratio B/A and one
verdict:

    same        within the metric's bound (exactly equal, for a simulated
                metric at one seed)
    better      B is better than A by more than the bound
    worse       B is worse than A by more than the bound
    unresolved  the reps inside A or inside B disagree with each other by
                more than the bound, so the files cannot settle the
                question; run both again on a quieter box

Simulated metrics are deterministic in (workload, seed), so two files at
one seed compare them with ``==`` and any difference is better or worse;
files at different seeds fall back to the metric's bound.  Exact work
counts that differ are listed as well.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys

from metrics import E2E_WALL, END_TO_END, FAILOVER

# setup_s may worsen by its bound or by this much, whichever is larger:
# the short set-ups are a few tenths of a second, where 25 % is noise.
SETUP_FLOOR_S = 0.15


def rep_spread(row: dict, name: str) -> float:
    """How far the reps inside one row disagree on a wall metric.

    ``ops_per_wall_s`` is stitched from the fastest run of each window
    slice, so its spread is how much slower the fastest whole rep was
    than that: small when at least one rep ran undisturbed.  ``setup_s``:
    the gap between the two fastest set-ups.  Both as a share of the
    reported value; 0 for metrics without per-rep values.
    """
    per_rep = row["per_rep"]
    if name == "ops_per_wall_s":
        return min(per_rep["window_wall_s"]) / per_rep["window_wall_stitched_s"] - 1.0
    reps = per_rep.get(name)
    if not isinstance(reps, list) or len(reps) < 2:
        return 0.0
    best, second = sorted(reps)[:2]
    return (second - best) / row["end_to_end"][name]


def verdict(metric, a: float, b: float, exact: bool, spread: float = 0.0) -> str:
    if a == b:
        return "same"
    worsening = (b - a) if metric.better == "lower" else (a - b)
    if exact:
        return "worse" if worsening > 0 else "better"
    allowed = metric.bound * abs(a)
    if metric.name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if spread * abs(a) > allowed:
        return "unresolved"
    if worsening > allowed:
        return "worse"
    return "better" if -worsening > allowed else "same"


def compare(a: dict, b: dict) -> tuple[list[tuple], list[str]]:
    """Rows ``(workload, metric, a, b, verdict)`` and the exact counts
    that differ."""
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    rows, moved = [], []
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            continue
        for metric in END_TO_END + (FAILOVER,):
            if metric.name not in row_a["end_to_end"] or metric.name not in row_b["end_to_end"]:
                continue
            va, vb = row_a["end_to_end"][metric.name], row_b["end_to_end"][metric.name]
            exact = same_seed and metric.name not in E2E_WALL
            spread = max(rep_spread(row_a, metric.name), rep_spread(row_b, metric.name))
            rows.append((name, metric.name, va, vb, verdict(metric, va, vb, exact, spread)))
        if same_seed:
            for key, value in row_a["counts"].items():
                if row_b["counts"].get(key) != value:
                    moved.append(f"{name} {key}: {value!r} -> {row_b['counts'].get(key)!r}")
            if row_a["sim"]["state_roots"] != row_b["sim"]["state_roots"]:
                moved.append(f"{name} state_roots differ")
    return rows, moved


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in paths:
        with open(path) as handle:
            ledgers.append(json.load(handle))
    a, b = ledgers
    rows, moved = compare(a, b)
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): simulated metrics compared "
              "within their bounds, not exactly")
    print(f"{'workload':24s} {'metric':18s} {'A':>14s} {'B':>14s} {'B/A':>8s}  verdict")
    tally: dict[str, int] = {}
    for name, metric, va, vb, result in rows:
        ratio = f"{vb / va:8.4f}" if va else "     n/a"
        print(f"{name:24s} {metric:18s} {va:14.4f} {vb:14.4f} {ratio}  {result}")
        tally[result] = tally.get(result, 0) + 1
    for line in moved:
        print(f"exact count moved: {line}")
    print(", ".join(f"{count} {result}" for result, count in sorted(tally.items()))
          + f"; {len(moved)} exact counts moved")
    return 1 if tally.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
