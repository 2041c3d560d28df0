"""Multi-process sweep runner: farm independent (scenario, seed) cells.

Campaigns and sweeps are embarrassingly parallel — every cell builds its
own deterministic cluster — yet until this module they ran serially.  A
*cell* is one unit of sweep work (an aggregate overload point, a
shard-count measurement, a sharded SQL mix) described entirely by
JSON-able parameters, so it can cross a process boundary and its result
can be merged into a ``BENCH_*.json`` document.

Two guarantees the tests pin:

* **Collision-free per-cell seeds.**  Child seeds are derived by hashing
  ``(scenario, base seed, cell index)`` with SHA-256 — never ``seed + i``,
  which collides across scenarios sharing a base seed (scenario A cell 1
  and scenario B cell 0 would run identical RNG streams and masquerade as
  independent measurements).  Cells that carry an explicit ``seed`` (the
  shard benchmark's points, all measured at the caller's seed) bypass
  derivation.
* **Serial ≡ parallel.**  Results are returned in cell order regardless
  of completion order, every cell runs against a fresh deterministic
  simulation, and merged documents are serialized with sorted keys — so
  a parallel run's merged JSON is byte-identical to a serial run of the
  same cells.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.errors import ConfigError
from repro.crypto.digests import sha256


@dataclass
class SweepCell:
    """One unit of sweep work; ``params`` must be picklable and JSON-able."""

    kind: str                      # a key of _BUILTINS
    scenario: str                  # scenario label, part of seed derivation
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None     # explicit seed; None derives one per cell


def derive_cell_seed(scenario: str, base_seed: int, index: int) -> int:
    """Collision-free child seed for cell ``index`` of ``scenario``.

    SHA-256 over the full identity, truncated to 63 bits — distinct
    (scenario, base_seed, index) triples get distinct streams with
    overwhelming probability, unlike ``base_seed + index`` which collides
    as soon as two scenarios share a base seed.
    """
    material = f"cell|{scenario}|{base_seed}|{index}".encode()
    return int.from_bytes(sha256(material).digest()[:8], "big") >> 1


# -- cell runners -------------------------------------------------------------------

def _run_aggregate_overload_cell(params: dict, seed: int) -> dict:
    from repro.harness.workload import run_aggregate_point

    return run_aggregate_point(seed=seed, **params).to_dict()


def _run_shard_scaling_cell(params: dict, seed: int) -> dict:
    from repro.harness.shardbench import run_shard_scaling_point

    point = run_shard_scaling_point(seed=seed, **params)
    return {
        "shards": point.shards,
        "routers": point.routers,
        "tps": point.tps,
        "p50_latency_ns": point.p50_latency_ns,
        "p99_latency_ns": point.p99_latency_ns,
        "completed": point.completed,
    }


def _run_shard_sql_mix_cell(params: dict, seed: int) -> dict:
    from repro.harness.shardbench import run_shard_sql_mix

    return run_shard_sql_mix(seed=seed, **params)


# kind -> callable(params: dict, seed: int) -> JSON-able dict
_BUILTINS: dict[str, Callable[[dict, int], dict]] = {
    "aggregate-overload": _run_aggregate_overload_cell,
    "shard-scaling": _run_shard_scaling_cell,
    "shard-sql-mix": _run_shard_sql_mix_cell,
}


def cell_runner(name: str) -> Callable[[dict, int], dict]:
    if name not in _BUILTINS:
        raise ConfigError(
            f"unknown cell kind {name!r}; have: {sorted(_BUILTINS)}"
        )
    return _BUILTINS[name]


# -- running ------------------------------------------------------------------------


def _run_cell_task(task: tuple) -> dict:
    """Top-level so it pickles under any multiprocessing start method."""
    kind, params, seed = task
    return cell_runner(kind)(dict(params), seed)


def cell_seeds(cells: list[SweepCell], base_seed: int) -> list[int]:
    """The seed each cell will run at: explicit if set, derived otherwise."""
    return [
        cell.seed if cell.seed is not None
        else derive_cell_seed(cell.scenario, base_seed, index)
        for index, cell in enumerate(cells)
    ]


def run_cells(
    cells: list[SweepCell], base_seed: int = 3, workers: int = 1
) -> list[dict]:
    """Run every cell; results in cell order regardless of ``workers``.

    ``workers <= 1`` runs in-process (no subprocess cost, same results);
    more farms cells across a process pool.
    """
    tasks = [
        (cell.kind, cell.params, seed)
        for cell, seed in zip(cells, cell_seeds(cells, base_seed))
    ]
    for kind, _params, _seed in tasks:
        cell_runner(kind)  # fail fast on unknown kinds, before forking
    if workers <= 1 or len(tasks) <= 1:
        return [_run_cell_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_run_cell_task, tasks))


def merged_json(document: dict) -> str:
    """Canonical serialization for merged BENCH documents.

    Sorted keys and fixed separators make the bytes a pure function of
    the data, so serial and parallel sweeps of the same cells can be
    compared with ``==`` on the file contents.
    """
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
