#!/usr/bin/env python3
"""The membership campaign: Markov churn availability + live replica replace.

Every replica independently alternates exponentially distributed up/down
periods (the two-state fail/repair chain of arXiv:2210.14003 and
arXiv:2306.10960) across three regimes — healthy, steady, fragile — and
the measured fraction of time a 2f+1 quorum is live is compared with the
analytic binomial prediction.  A separate run orders a RECONFIG_REPLACE
through the protocol, physically swaps the slot's machine, and profiles
goodput before / during / after the bootstrap.  Beside the quorum-up
fraction each row reports ``service_availability`` — the share of 10 ms
bins in which the group actually completed an operation.  All six
single-group invariants (agreement, committed-op loss, checkpoint
monotonicity, liveness, flood liveness, membership safety) are enforced
on every run.

Run:  python examples/membership_campaign.py [--smoke]
          [--baseline BENCH_membership.json] [--out PATH] [--seeds N]
      Full mode (default) regenerates the committed artifact: the
      analytic-vs-measured table averaged over N seeds plus the
      deterministic smoke rows CI gates against.
      --smoke runs only the deterministic smoke rows and, when a
      baseline artifact exists, fails on >20% availability drift.
Exits non-zero on any invariant violation, on smoke-mode drift beyond
20%, or when fewer than two full-mode scenarios land within 20% of the
analytic prediction.
"""

import argparse
import json
import os
import sys
import time

from repro.harness import format_membership, run_membership_bench

TOLERANCE = 0.20


def gate_against_baseline(results: dict, baseline: dict) -> list[str]:
    """Compare deterministic smoke rows against the committed artifact."""
    problems: list[str] = []
    base_rows = {
        row["scenario"]: row for row in baseline.get("smoke_scenarios", [])
    }
    for row in results["smoke_scenarios"]:
        base = base_rows.get(row["scenario"])
        if base is None:
            problems.append(
                f"scenario {row['scenario']!r} missing from baseline"
            )
            continue
        expected = base["measured_availability"]
        measured = row["measured_availability"]
        if expected > 0 and abs(measured - expected) / expected > TOLERANCE:
            problems.append(
                f"scenario {row['scenario']}: measured availability "
                f"{measured:.4f} drifted more than {TOLERANCE:.0%} from the "
                f"baseline {expected:.4f}"
            )
    base_replace = baseline.get("replace")
    replace = results.get("replace")
    if base_replace and replace:
        expected = base_replace["goodput_after_ops_per_s"]
        measured = replace["goodput_after_ops_per_s"]
        if expected > 0 and (expected - measured) / expected > TOLERANCE:
            problems.append(
                f"replace: post-bootstrap goodput {measured:.0f} op/s fell "
                f"more than {TOLERANCE:.0%} below the baseline "
                f"{expected:.0f} op/s"
            )
    return problems


def collect_violations(results: dict) -> list[str]:
    rows = list(results.get("smoke_scenarios", []))
    rows += results.get("scenarios", [])
    rows.append(results["replace"])
    return [v for row in rows for v in row["violations"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="deterministic single-seed rows only (the CI-sized run)",
    )
    parser.add_argument(
        "--baseline", default="BENCH_membership.json", metavar="PATH",
        help="committed artifact to gate smoke runs against "
        "(default BENCH_membership.json; skipped if absent in full mode)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="where full mode writes the regenerated artifact "
        "(default: the --baseline path)",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, metavar="N",
        help="seeds averaged per full-mode scenario (default 3)",
    )
    args = parser.parse_args()

    start = time.time()
    results = run_membership_bench(
        seeds=tuple(range(1, args.seeds + 1)), smoke=args.smoke
    )
    wall = time.time() - start
    print(format_membership(results))
    print(f"wall time: {wall:.1f}s")

    failed = False
    violations = collect_violations(results)
    if violations:
        failed = True
        print(f"\n{len(violations)} invariant violation(s):")
        for violation in violations:
            print(f"  {violation}")

    if args.smoke:
        if os.path.exists(args.baseline):
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = json.load(fh)
            problems = gate_against_baseline(results, baseline)
            if problems:
                failed = True
                print("\nbaseline gate failed:")
                for problem in problems:
                    print(f"  {problem}")
            else:
                print(f"baseline gate passed ({args.baseline})")
        else:
            failed = True
            print(f"baseline {args.baseline} not found; smoke gate cannot run")
    else:
        within = sum(1 for row in results["scenarios"] if row["within_20pct"])
        print(
            f"{within}/{len(results['scenarios'])} scenarios within "
            f"{TOLERANCE:.0%} of the analytic Markov prediction"
        )
        if within < 2:
            failed = True
            print("FAIL: need at least two scenarios within tolerance")
        out = args.out or args.baseline
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
