"""The examples must actually run — they are part of the public API."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: int = 240, args: tuple = ()) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "PrePrepare" in out
    assert "state roots identical across replicas: True" in out


def test_dynamic_clients():
    out = run_example("dynamic_clients.py")
    assert "joined with service-assigned id 50000" in out
    assert "leave acknowledged: b'LEFT'" in out


def test_evoting():
    out = run_example("evoting.py")
    assert "3 votes" in out
    assert "UNIQUE constraint failed" in out
    assert "agree on the database state: True" in out


def test_preservation():
    out = run_example("preservation.py")
    assert "TAMPERED" in out
    assert "intact" in out


def test_threshold_keys():
    out = run_example("threshold_keys.py")
    assert "distinct signatures produced: 1" in out
    assert "verifies: False" in out


def test_fault_campaign_smoke():
    out = run_example("fault_campaign.py", args=("--smoke",))
    assert "14/14 runs passed all invariants" in out
    assert "withholding-replica" in out


def test_rebalance_campaign_smoke():
    out = run_example(
        "fault_campaign.py", args=("--suite", "rebalance", "--smoke")
    )
    assert "4/4 runs passed all invariants" in out
    assert "rebalance-under-churn" in out


def test_membership_campaign_smoke():
    out = run_example("membership_campaign.py", args=("--smoke",))
    assert "0 violations" in out
    assert "baseline gate passed" in out


@pytest.mark.slow
def test_packet_loss_demo():
    out = run_example("packet_loss_demo.py", timeout=400)
    assert "wedged replicas: [3]" in out
    assert "wedged replicas: none" in out
