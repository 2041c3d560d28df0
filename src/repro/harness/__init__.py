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

All of them live in :mod:`repro.harness.experiments`.  Each returns
structured results; :mod:`repro.harness.reporting` renders them in the
paper's row/series format.  This ``__init__`` imports nothing (nor do
those of ``apps``, ``crypto`` and ``shard``): a caller names the module
that defines what it uses and loads only that module's imports.
"""
