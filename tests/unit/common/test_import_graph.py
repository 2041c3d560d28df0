"""Cold start: what the perf ledger's entry imports load, and what they must not.

Package ``__init__``s under ``harness``, ``apps``, ``crypto`` and ``shard``
import nothing, so a caller that names one module pays for that module's
imports only — not for the sweep stack's process pools, the threshold
scheme, the live-move rebalancer or the applications it did not ask for.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

ENTRY_IMPORTS = (
    "repro.harness.configs",
    "repro.harness.workload",
    "repro.shard.topology",
    "repro.shard.campaign",
    "repro.apps.sqlapp",
    "repro.apps.kvstore",
    "repro.membership",
)

NOT_LOADED = (
    "multiprocessing",
    "concurrent.futures",
    *(f"repro.harness.{name}" for name in (
        "batching", "experiments", "measure", "membershipbench", "reporting",
        "shardbench", "sweeprunner", "wan",
    )),
    "repro.crypto.threshold",
    "repro.shard.rebalance",
    "repro.apps.evoting",
    "repro.apps.preservation",
    "repro.apps.unreplicated",
)


def test_entry_imports_load_nothing_they_did_not_ask_for():
    probe = (
        "import importlib, sys\n"
        f"for name in {ENTRY_IMPORTS!r}: importlib.import_module(name)\n"
        f"print(' '.join(name for name in {NOT_LOADED!r} if name in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    )
    assert run.stdout.split() == []
