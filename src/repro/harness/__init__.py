"""The evaluation harness: regenerates every table and figure.

* Table 1 / Figure 4 — :func:`repro.harness.experiments.run_table1` and
  :func:`run_fig4_size_sweep` (null-op throughput across the ten library
  configurations and four payload sizes);
* Figure 5 — :func:`run_fig5_sql` (SQL insert throughput across
  configurations);
* section 4.2's ACID vs No-ACID — :func:`run_acid_comparison`;
* section 2.3's recovery stall — :func:`run_recovery_experiment`;
* section 2.4's packet-loss wedge — :func:`run_packet_loss_experiment`;
* degraded service, one replica of four crashed —
  :func:`run_degraded_experiment`;
* the fault-injection campaign — :func:`run_fault_campaign` (schedules ×
  seeds, the protocol invariants checked after every run).

Each returns structured results; :mod:`repro.harness.reporting` renders
them in the paper's row/series format.
"""

from repro.harness.configs import (
    TABLE1_CONFIGS,
    FIG5_CONFIGS,
    ConfigRow,
    build_config,
)
from repro.harness.measure import Measurement, run_null_workload, run_sql_workload
from repro.harness.experiments import (
    run_table1,
    run_fig4_size_sweep,
    run_fig5_sql,
    run_acid_comparison,
    run_recovery_experiment,
    run_packet_loss_experiment,
    run_degraded_experiment,
    run_fault_campaign,
)
from repro.harness.batching import (
    BatchingPoint,
    BatchingSweep,
    format_batching,
    run_batching_sweep,
)
from repro.harness.overload import estimate_capacity, overload_config
from repro.harness.reporting import (
    format_table1,
    format_fig4,
    format_fig5,
    format_acid,
    format_aggregate_overload,
    format_campaign,
)
from repro.harness.workload import (
    SCENARIOS,
    AggregatePoint,
    AggregateSweep,
    AggregateWorkload,
    make_workload,
    run_aggregate_overload_sweep,
    run_aggregate_point,
)
from repro.harness.sweeprunner import (
    SweepCell,
    derive_cell_seed,
    merged_json,
    run_cells,
)
from repro.harness.shardbench import (
    ShardBenchResult,
    ShardPoint,
    format_shard_bench,
    run_shard_bench,
    run_shard_scaling_point,
    run_shard_sql_mix,
    shard_bench_config,
)
from repro.harness.membershipbench import (
    MEMBERSHIP_SCENARIOS,
    MembershipScenario,
    analytic_availability,
    format_membership,
    run_markov_scenario,
    run_membership_bench,
    run_replace_scenario,
)
from repro.harness.wan import run_wan_sweep, format_wan, PROFILES

__all__ = [
    "TABLE1_CONFIGS",
    "FIG5_CONFIGS",
    "ConfigRow",
    "build_config",
    "Measurement",
    "run_null_workload",
    "run_sql_workload",
    "run_table1",
    "run_fig4_size_sweep",
    "run_fig5_sql",
    "run_acid_comparison",
    "run_recovery_experiment",
    "run_degraded_experiment",
    "run_packet_loss_experiment",
    "run_fault_campaign",
    "BatchingPoint",
    "BatchingSweep",
    "format_batching",
    "run_batching_sweep",
    "ShardBenchResult",
    "ShardPoint",
    "format_shard_bench",
    "run_shard_bench",
    "run_shard_scaling_point",
    "run_shard_sql_mix",
    "shard_bench_config",
    "estimate_capacity",
    "overload_config",
    "format_aggregate_overload",
    "SCENARIOS",
    "AggregatePoint",
    "AggregateSweep",
    "AggregateWorkload",
    "make_workload",
    "run_aggregate_overload_sweep",
    "run_aggregate_point",
    "SweepCell",
    "derive_cell_seed",
    "merged_json",
    "run_cells",
    "format_table1",
    "format_campaign",
    "format_fig4",
    "format_fig5",
    "format_acid",
    "MEMBERSHIP_SCENARIOS",
    "MembershipScenario",
    "analytic_availability",
    "format_membership",
    "run_markov_scenario",
    "run_membership_bench",
    "run_replace_scenario",
    "run_wan_sweep",
    "format_wan",
    "PROFILES",
]
