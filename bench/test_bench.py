"""Tests of the perf ledger itself.

    PYTHONPATH=src python -m pytest bench -q

Not in the tier-1 ``testpaths``: the two smoke runs below take about a
minute together.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SINGLE_GROUP = ("null_normal_case", "robust_sig_dynamic", "evoting_sql_fig5",
                "overload_1m_zipf_2x", "primary_crash_failover")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, check=False,
    )


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return {"ledger": json.loads(out.read_text()), "stdout": done.stdout}


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "traced.json"
    done = _run("--smoke", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


# -- names ---------------------------------------------------------------------------


def test_benchmark_json_is_the_catalogue(benchmark_json):
    assert benchmark_json == metrics.benchmark_json((w.name, w.why) for w in WORKLOADS)


def test_names_are_well_formed_and_unique(benchmark_json):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in benchmark_json[key]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in benchmark_json["end_to_end"]].count("setup_s") == 1


def test_smoke_finishes_every_workload_and_prints_every_metric(benchmark_json, smoke):
    rows = smoke["ledger"]["workloads"]
    assert list(rows) == [w["name"] for w in benchmark_json["workloads"]]
    for name, row in rows.items():
        assert row["problems"] == [], name
        emitted = set(row["end_to_end"]) - {metrics.FAILOVER.name}
        assert emitted == {m["name"] for m in benchmark_json["end_to_end"]}, name
        assert all(value > 0 for value in row["end_to_end"].values()
                   if name != "primary_crash_failover"), name
    assert metrics.FAILOVER.name in rows["primary_crash_failover"]["end_to_end"]
    for metric in benchmark_json["end_to_end"]:
        assert f"{metric['name']} " in smoke["stdout"]
        assert f" {metric['unit']}" in smoke["stdout"]


def test_traced_run_emits_exactly_the_declared_layer_metrics(benchmark_json, traced_smoke):
    declared = {m["name"] for m in benchmark_json["per_layer"]}
    for name, row in traced_smoke["workloads"].items():
        assert row["problems"] == [], name
        assert set(row["per_layer"]) == declared, name


def test_driver_protocol_result_line(benchmark_json):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "evoting_sql_fig5", "--seed", "11", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in benchmark_json[key]
        }


def test_interaction_table_names_declared_metrics():
    from fnmatch import fnmatchcase

    layer_names = [m.name for m in metrics.PER_LAYER]
    for patterns, _moves, _on, _not_on in metrics.INTERACTIONS:
        for pattern in patterns:
            assert any(fnmatchcase(name, pattern) for name in layer_names), pattern
    assert "ops_per_wall_s on null_normal_case" in metrics.moves_of("sim.events_per_op")


def test_golden_pins_every_workload(benchmark_json):
    with open(os.path.join(BENCH_DIR, "golden.json")) as handle:
        golden = json.load(handle)
    assert set(golden) == {w["name"] for w in benchmark_json["workloads"]}
    for pinned in golden.values():
        assert {"completed", "state_roots", "sim_tps", "sim_p50_us", "sim_p99_us",
                "sim_ok_op_share"} <= set(pinned["sim"])
        assert set(pinned["counts"]) == {m.name for m in metrics.COUNTS}


# -- the layer map and the fold ----------------------------------------------------


def _source_files() -> list[str]:
    base = os.path.join(ROOT, "src", "repro")
    return sorted(
        os.path.relpath(os.path.join(folder, name), base).replace(os.sep, "/")
        for folder, _dirs, files in os.walk(base)
        for name in files if name.endswith(".py")
    )


def test_every_source_file_has_a_layer_and_every_rule_a_file():
    files = _source_files()
    assert files
    unmapped = [path for path in files if layers.layer_of_module(path) is None]
    assert unmapped == []
    for prefix, _layer in layers.LAYER_RULES:
        assert any(path.startswith(prefix) for path in files), f"rule {prefix} matches nothing"


def test_fold_charges_builtins_to_the_calling_layer():
    src = os.path.join(ROOT, "src", "repro")
    mac = (os.path.join(src, "crypto", "mac.py"), 55, "compute_mac")
    replica = (os.path.join(src, "pbft", "replica.py"), 10, "on_request")
    heappush = (os.path.join(src, "sim", "simulator.py"), 20, "schedule")
    hmac_new = ("/usr/lib/python3/hmac.py", 1, "new")  # stdlib, called by crypto only
    md5 = ("~", 0, "<built-in method _hashlib.openssl_md5>")  # C, two callers
    push = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        replica: (1, 1, 0.5, 3.0, {}),
        mac: (10, 10, 1.0, 2.0, {replica: (10, 10, 1.0, 2.0)}),
        heappush: (5, 5, 0.25, 0.5, {replica: (5, 5, 0.25, 0.5)}),
        hmac_new: (10, 10, 0.5, 1.0, {mac: (10, 10, 0.5, 1.0)}),
        md5: (13, 13, 0.5, 0.5, {hmac_new: (10, 10, 0.4, 0.4), replica: (3, 3, 0.1, 0.1)}),
        push: (5, 5, 0.25, 0.25, {heappush: (5, 5, 0.25, 0.25)}),
    }
    folded = layers.fold_profile(stats)
    assert folded["crypto"]["self_s"] == pytest.approx(1.0 + 0.5 + 0.4)
    assert folded["pbft.replica"]["self_s"] == pytest.approx(0.5 + 0.1)
    assert folded["sim"]["self_s"] == pytest.approx(0.25 + 0.25)
    assert folded["crypto"]["calls"] == 10  # only functions defined in the layer
    total = sum(row[2] for row in stats.values())
    shares = sum(row["self_s"] for row in folded.values()) / total
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert layers.calls_where(stats, "crypto", ("compute_mac",)) == 10
    assert layers.calls_where(stats, "crypto", ("compute_mac",), caller_layer="pbft") == 10
    assert layers.calls_where(stats, "crypto", ("compute_mac",), caller_layer="sim") == 0


def test_profile_shares_and_phase_tiling_of_the_traced_run(traced_smoke):
    for name, row in traced_smoke["workloads"].items():
        layer_us = [row["per_layer"][f"{layer}.wall_us_per_op"] for layer in layers.LAYERS]
        assert all(value >= 0 for value in layer_us) and sum(layer_us) > 0, name
        tiled_ns = 1000 * sum(row["per_layer"][f"pbft.phase_us.{p}"] for p in metrics.PHASES)
        if name in SINGLE_GROUP:
            assert tiled_ns == pytest.approx(row["sim"]["sim_mean_latency_ns"], abs=1.0), name
        else:
            assert tiled_ns == 0, name
    for name in ("null_normal_case", "kv_4shard"):
        row = traced_smoke["workloads"][name]["per_layer"]
        assert all(row[f"{layer}.wall_us_per_op"] == 0
                   for layer in layers.LAYERS if layer.startswith("sqlstate.")), name


# -- compare.py ----------------------------------------------------------------------


def test_compare_verdicts():
    by_name = {m.name: m for m in metrics.END_TO_END}
    wall, sim = by_name["ops_per_wall_s"], by_name["sim_p50_us"]
    assert compare.verdict(wall, 1000.0, 1000.0, exact=False) == "same"
    assert compare.verdict(wall, 1000.0, 850.0, exact=False) == "same"
    assert compare.verdict(wall, 1000.0, 700.0, exact=False) == "worse"
    assert compare.verdict(wall, 1000.0, 1300.0, exact=False) == "better"
    assert compare.verdict(wall, 1000.0, 700.0, exact=False, spread=0.3) == "unresolved"
    assert compare.verdict(sim, 687.889, 687.889, exact=True) == "same"
    assert compare.verdict(sim, 687.889, 687.890, exact=True) == "worse"
    assert compare.verdict(sim, 687.889, 687.888, exact=True) == "better"
    assert compare.verdict(sim, 687.889, 700.0, exact=False) == "same"
    setup = by_name["setup_s"]
    assert compare.verdict(setup, 0.3, 0.44, exact=False) == "same"  # under the 0.15 s floor
    assert compare.verdict(setup, 0.3, 0.46, exact=False) == "worse"


def test_compare_flags_a_lower_ok_share_and_a_moved_count(smoke):
    a = smoke["ledger"]
    b = json.loads(json.dumps(a))
    row = b["workloads"]["overload_1m_zipf_2x"]
    row["end_to_end"]["sim_ok_op_share"] -= 0.001
    row["counts"]["net.packets_per_op"] += 1
    rows, moved = compare.compare(a, b)
    verdicts = {(w, m): v for w, m, _a, _b, v in rows}
    assert verdicts[("overload_1m_zipf_2x", "sim_ok_op_share")] == "worse"
    assert verdicts[("null_normal_case", "sim_tps")] == "same"
    assert len(moved) == 1 and "net.packets_per_op" in moved[0]
