#!/usr/bin/env python3
"""The perf ledger's one command.

    python bench/run.py [--seed 3] [--workloads a,b] [--out f.json]
        runs every workload with tracing off, checks outputs, prints every
        end-to-end metric by name with its unit, and writes one JSON.
    python bench/run.py --traced
        the separate traced run that yields the per-layer numbers.
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, for the driver: the last line of standard output is
        one JSON object {correct, attempted, failed, metrics}.

Every workload runs in a fresh subprocess of its own (clean peak RSS, no
leakage through the shared buffer pool or the MAC cache), one at a time,
with PYTHONHASHSEED=0.  README.md explains the protocol and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

_T0 = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
GOLDEN_SEED = 3

sys.path.insert(0, BENCH_DIR)

from metrics import E2E_NAMES, E2E_UNITS, LAYER_UNITS, NETWORK, RUN_SECONDS  # noqa: E402


def _workload_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [w["name"] for w in json.load(handle)["workloads"]]


# -- the worker: one workload in this process ----------------------------------


def worker(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.common.hotpath import HOTPATH
    except ImportError as error:
        print(f"cannot import the program from {os.path.join(ROOT, 'src')}: {error}",
              file=sys.stderr)
        return 2
    import engine
    from workloads import BY_NAME

    if not HOTPATH.enabled:
        print("refusing to measure: repro.common.hotpath.HOTPATH.enabled is false",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    row = engine.run_workload(
        BY_NAME[args.workload], args.seed, args.seconds,
        traced=args.traced, smoke=args.smoke, import_s=import_s,
    )
    print(json.dumps(row))
    return 0


def spawn(name: str, args) -> dict:
    """Run one workload in a fresh interpreter and return its row."""
    command = [
        sys.executable, os.path.abspath(__file__), "--worker", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.traced:
        command.append("--traced")
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: the workload's process exited with {done.returncode}")
    return json.loads(lines[-1])


# -- golden pins -------------------------------------------------------------------


def golden_problems(row: dict) -> list[str]:
    """At the default seed and full windows, the simulated results and the
    exact counts must equal golden.json."""
    if row["seed"] != GOLDEN_SEED or row["scale"] != 1.0:
        return []
    with open(GOLDEN_PATH) as handle:
        pinned = json.load(handle).get(row["workload"])
    if pinned is None:
        return [f"golden.json has no entry for {row['workload']}"]
    return [
        f"{group}.{key} is {row[group].get(key)!r}, golden.json says {value!r}"
        for group in ("sim", "counts")
        for key, value in pinned[group].items()
        if row[group].get(key) != value
    ]


# -- the driver's single-workload run ----------------------------------------------


def driver_run(args) -> int:
    args.traced = bool(args.trace)
    row = spawn(args.workload, args)
    for problem in row["problems"]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    # A change to the model legitimately moves the pins, and says so by
    # updating golden.json; here a mismatch is reported, not failed.
    for problem in golden_problems(row):
        print(f"note: {problem}", file=sys.stderr)
    if args.traced:
        metrics = {name: {"value": row["per_layer"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": row["end_to_end"][name], "unit": E2E_UNITS[name]}
                   for name in E2E_NAMES}
    correct = not row["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": row["sim"]["attempted"],
        # Operations that ended in a way the workload does not allow.
        # Requests the system sheds or aborts by design are counted in
        # sim_ok_op_share, not here.
        "failed": row["sim"]["wrong_replies"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- the ledger run ----------------------------------------------------------------


def _host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _print_row(row: dict) -> None:
    print(f"\n{row['workload']}  ({row['loop']}; {row['sim_warmup_s']:g} + "
          f"{row['sim_window_s']:g} sim-s; {row['reps']} reps; {row['sim']['completed']} samples"
          f"{'' if row['p99_supported'] else ', too few for p99'})")
    for name, value in row["end_to_end"].items():
        per_rep = row["per_rep"].get(name)
        reps = f"   reps: {', '.join(f'{v:.4g}' for v in per_rep)}" if per_rep else ""
        print(f"  {name:18s} {value:14.4f} {E2E_UNITS[name]}{reps}")
    if "per_layer" in row:
        for name, unit in LAYER_UNITS.items():
            if row["per_layer"][name]:
                print(f"    {name:40s} {row['per_layer'][name]:14.4f} {unit}")
    for problem in row["problems"]:
        print(f"  PROBLEM {problem}")


def ledger_run(args) -> int:
    declared = _workload_names()
    names = args.workloads.split(",") if args.workloads else declared
    unknown = sorted(set(names) - set(declared))
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    host = _host()
    if host["loadavg_1m_start"] > 1.0:
        print(f"warning: 1-min load average is {host['loadavg_1m_start']:.2f}; "
              "wall-clock metrics will be noisy", file=sys.stderr)
    print(f"perf ledger: seed {args.seed}, {'traced' if args.traced else 'untraced'}"
          f"{', smoke (quarter windows, 1 rep)' if args.smoke else ''}")
    print(f"injected network: {NETWORK}")
    print("sim_* and sim-* units are the modelled system on the simulated clock; "
          "the rest is host cost")
    rows: dict[str, dict] = {}
    failed = False
    for name in names:
        row = spawn(name, args)
        if not args.smoke and not args.update_golden:
            row["problems"] += golden_problems(row)
        rows[name] = row
        failed = failed or bool(row["problems"])
        _print_row(row)
    host["loadavg_1m_end"] = os.getloadavg()[0]
    ledger = {
        "schema": 1,
        "what": "perf ledger: end-to-end metrics per workload"
                + (" + per-layer attribution" if args.traced else ""),
        "seed": args.seed,
        "traced": args.traced,
        "smoke": args.smoke,
        "network": NETWORK,
        "host": host,
        "workloads": rows,
    }
    out = args.out
    if out is None:
        kind = "traced" if args.traced else "untraced"
        out = os.path.join(RESULTS_DIR, f"{kind}-seed{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {os.path.relpath(out)}")
    if args.update_golden and not failed:
        if args.seed != GOLDEN_SEED or args.smoke:
            print("golden.json pins full windows at the default seed only", file=sys.stderr)
            return 2
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)
        golden.update({name: {"sim": row["sim"], "counts": row["counts"]}
                       for name, row in rows.items()})
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("updated golden.json")
    print("FAILED" if failed else "all checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall budget of the timed reps of one workload (at least 2 run)")
    parser.add_argument("--workloads", help="comma-separated subset, ledger run")
    parser.add_argument("--out", help="where the ledger run writes its JSON")
    parser.add_argument("--traced", action="store_true", help="per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="quarter windows, one rep, no golden check")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from this run (a model change says so)")
    parser.add_argument("--workload", help="run this one workload, driver protocol")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver protocol: 1 prints the per-layer metrics")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)
    try:
        if args.workload is None:
            return ledger_run(args)
        if args.workload not in _workload_names():
            print(f"unknown workload {args.workload}", file=sys.stderr)
            return 2
        return driver_run(args)
    except RuntimeError as error:  # a workload's process died; it said why on stderr
        print(error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
