#!/usr/bin/env python3
"""Regenerate the paper's full evaluation: Table 1, Figure 4, Figure 5,
the ACID comparison, and the section 2.3/2.4 fault experiments.

This is the long-form version of the benchmark suite (which uses shorter
measurement windows); expect a few minutes of wall time.

Run:  python examples/run_evaluation.py [--quick]
"""

import sys
import time

from repro.common.units import SECOND, format_duration
from repro.harness.experiments import (
    run_acid_comparison,
    run_fig4_size_sweep,
    run_fig5_sql,
    run_recovery_experiment,
    run_packet_loss_experiment,
    run_table1,
)
from repro.harness.reporting import format_acid, format_fig4, format_fig5, format_table1


def main() -> None:
    quick = "--quick" in sys.argv
    measure = 0.3 if quick else 0.6
    started = time.time()

    print("=" * 78)
    print("Table 1: null-operation TPS across library configurations")
    print("(paper values alongside; see EXPERIMENTS.md for calibration notes)")
    print("=" * 78)
    print(format_table1(run_table1(measure_s=measure)))

    print()
    print("=" * 78)
    print("Figure 4: the configuration matrix across payload sizes")
    print("=" * 78)
    sizes = (256, 1024, 2048, 4096) if not quick else (256, 1024)
    print(format_fig4(run_fig4_size_sweep(sizes=sizes, measure_s=measure / 2)))

    print()
    print("=" * 78)
    print("Figure 5: SQL-insert TPS (ACID; batching on)")
    print("=" * 78)
    print(format_fig5(run_fig5_sql(measure_s=measure)))

    print()
    print("=" * 78)
    print("Section 4.2: ACID vs No-ACID")
    print("=" * 78)
    acid, noacid = run_acid_comparison(measure_s=measure)
    print(format_acid(acid, noacid))

    print()
    print("=" * 78)
    print("Section 2.3: recovery stall vs authenticator rebroadcast interval")
    print("=" * 78)
    for interval_s in (0.5, 1.0, 2.0):
        result = run_recovery_experiment(
            use_macs=True, rebroadcast_interval_ns=int(interval_s * SECOND)
        )
        print(f"  MACs, rebroadcast every {interval_s:.1f}s: recovery took "
              f"{format_duration(result.recovery_time_ns)} "
              f"(state caught up after {format_duration(result.catch_up_time_ns)}, "
              f"{result.replay_auth_failures} failed replay validations)")
    sig = run_recovery_experiment(use_macs=False, rebroadcast_interval_ns=1 * SECOND)
    print(f"  signatures:                    recovery took "
          f"{format_duration(sig.recovery_time_ns)} (no stall)")

    print()
    print("=" * 78)
    print("Section 2.4: one lost datagram")
    print("=" * 78)
    big = run_packet_loss_experiment(all_big=True)
    small = run_packet_loss_experiment(all_big=False)
    print(f"  all-big: replica {big.wedged_replicas} wedged for "
          f"{format_duration(big.wedge_duration_ns)}, "
          f"{big.state_transfers} state transfer(s)")
    print(f"  no-big:  no replica wedged; healed by "
          f"{small.client_retransmissions} client retransmission(s)")

    print()
    print(f"total wall time: {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
