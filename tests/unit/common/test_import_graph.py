"""Cold start: what the perf ledger's entry imports load, and what they must not.

Package ``__init__``s under ``harness``, ``apps``, ``crypto`` and ``shard``
import nothing, so a caller that names one module pays for that module's
imports only — not for the sweep stack's process pools, the threshold
scheme, the live-move rebalancer or the applications it did not ask for.

Nothing loads OpenSSL either: every hash goes through
``repro.crypto.digests`` on CPython's built-in modules, and ``hashlib``,
``hmac`` (and ``secrets``, which imports ``hmac``) map ``libcrypto``.
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
    "_hashlib",
    "hashlib",
    "hmac",
    "ssl",
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


def _probe(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the words it printed."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    )
    return run.stdout.split()


def test_entry_imports_load_nothing_they_did_not_ask_for():
    assert _probe(
        "import importlib, sys\n"
        f"for name in {ENTRY_IMPORTS!r}: importlib.import_module(name)\n"
        f"print(' '.join(name for name in {NOT_LOADED!r} if name in sys.modules))\n"
    ) == []


def test_a_signing_cluster_never_maps_openssl():
    # Real crypto with signatures: key generation and Rabin signing (libgmp
    # where it loads), MAC keys, RNG stream seeds, page and request digests.
    ops, hashlib_loaded, *libcrypto_mapped = _probe(
        "import sys\n"
        "from repro.pbft.cluster import build_cluster\n"
        "from repro.pbft.config import PbftConfig\n"
        "cluster = build_cluster(PbftConfig(num_clients=2, use_macs=False), seed=1)\n"
        "def loop(client):\n"
        "    client.invoke(b'\\x00op', callback=lambda result, _: loop(client))\n"
        "for client in cluster.clients: loop(client)\n"
        "cluster.sim.run_for(20_000_000)\n"
        "print(sum(c.next_req_id for c in cluster.clients))\n"
        "print('_hashlib' in sys.modules)\n"
        "if sys.platform.startswith('linux'):\n"
        "    with open('/proc/self/maps') as maps: print('libcrypto' in maps.read())\n"
    )
    assert int(ops) > 2
    assert hashlib_loaded == "False"
    assert libcrypto_mapped in ([], ["False"])  # the maps half is Linux only
