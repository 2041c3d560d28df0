"""The multi-process sweep runner: seeds, cell kinds, ordering, merging."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.harness import sweeprunner
from repro.harness.sweeprunner import (
    SweepCell,
    cell_seeds,
    derive_cell_seed,
    merged_json,
    run_cells,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_cell_seed("uniform", 3, 0) == derive_cell_seed(
            "uniform", 3, 0
        )

    def test_distinct_across_the_grid(self):
        seeds = {
            derive_cell_seed(scenario, base, index)
            for scenario in ("uniform", "zipfian", "diurnal")
            for base in (1, 2, 3)
            for index in range(8)
        }
        assert len(seeds) == 3 * 3 * 8

    def test_no_additive_collisions(self):
        # The bug this replaces: ``base_seed + index`` collides as soon as
        # two scenarios share a base seed — scenario A's cell 1 and
        # scenario B's cell 0 would run byte-identical RNG streams.
        base = 3
        naive_a1 = base + 1           # scenario A, cell 1
        naive_b0 = (base + 1) + 0     # scenario B based at base+1, cell 0
        assert naive_a1 == naive_b0   # the collision
        assert derive_cell_seed("A", base, 1) != derive_cell_seed(
            "B", base + 1, 0
        )

    def test_explicit_seed_bypasses_derivation(self):
        cells = [
            SweepCell(kind="k", scenario="s", seed=41),
            SweepCell(kind="k", scenario="s"),
        ]
        seeds = cell_seeds(cells, base_seed=3)
        assert seeds[0] == 41
        assert seeds[1] == derive_cell_seed("s", 3, 1)

    def test_positive_63_bit(self):
        seed = derive_cell_seed("uniform", 3, 0)
        assert 0 <= seed < 2**63


def _echo_runner(params: dict, seed: int) -> dict:
    return {"seed": seed, **params}


@pytest.fixture
def echo_kind(monkeypatch):
    monkeypatch.setitem(sweeprunner._BUILTINS, "echo", _echo_runner)


class TestRegistryAndRunning:
    def test_unknown_kind_fails_fast(self):
        with pytest.raises(ConfigError, match="unknown cell kind"):
            run_cells([SweepCell(kind="no-such-kind", scenario="s")])

    def test_results_in_cell_order_with_derived_seeds(self, echo_kind):
        cells = [
            SweepCell(kind="echo", scenario=scenario, params={"tag": i})
            for i, scenario in enumerate(["a", "b", "a"])
        ]
        results = run_cells(cells, base_seed=9)
        assert [r["tag"] for r in results] == [0, 1, 2]
        assert [r["seed"] for r in results] == cell_seeds(cells, base_seed=9)
        # Two cells of the same scenario still get distinct seeds.
        assert results[0]["seed"] != results[2]["seed"]

    def test_parallel_matches_serial(self, echo_kind):
        # Forked workers inherit the patched table; order and seeds must
        # match the in-process run exactly.
        cells = [
            SweepCell(kind="echo", scenario="s", params={"tag": i})
            for i in range(5)
        ]
        serial = run_cells(cells, base_seed=4, workers=1)
        parallel = run_cells(cells, base_seed=4, workers=2)
        assert serial == parallel


class TestMergedJson:
    def test_canonical_bytes(self):
        a = merged_json({"b": 1, "a": [1, 2]})
        b = merged_json({"a": [1, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [1, 2], "b": 1}
