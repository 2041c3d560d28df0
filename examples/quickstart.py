#!/usr/bin/env python3
"""Quickstart: a 4-replica PBFT cluster executing its first requests.

Builds the paper's deployment shape (f=1, so n=3f+1=4 replicas) on the
simulated testbed, runs a few operations, and prints the normal-case
message flow of the paper's Figure 1:

    client --request--> primary
    primary --pre-prepare--> backups
    replicas --prepare/commit--> replicas
    replicas --reply--> client

Run:  python examples/quickstart.py

It also records the run with the structured tracer and writes a Chrome
``trace_event`` file — drag it into https://ui.perfetto.dev (or open
chrome://tracing) to see every packet, protocol phase, and checkpoint on
the simulation's common clock.
"""

import os
import tempfile

from repro.common.units import format_duration
from repro.obs import Observability, chrome_trace_events
from repro.obs.report import packets
from repro.pbft import PbftConfig, build_cluster


def main() -> None:
    config = PbftConfig(num_clients=2, checkpoint_interval=8, log_window=16)
    obs = Observability(tracing=True)
    cluster = build_cluster(config, seed=1, obs=obs)
    client = cluster.clients[0]

    print(f"cluster: {config.n} replicas (f={config.f}), "
          f"{config.num_clients} clients, quorum={config.quorum}")
    print()

    result = cluster.invoke_and_wait(client, b"\x00hello-bft")
    latency = client.latencies_ns[-1]
    print(f"first request completed: {len(result)}-byte reply "
          f"in {format_duration(latency)} of simulated time")
    print()

    print("figure-1 message flow (first 20 datagrams):")
    for record in packets(chrome_trace_events(obs.tracer))[:20]:
        arrow = f"{record.src:>12s} -> {record.dst:<12s}"
        print(f"  t={record.time/1e6:7.3f}ms  {arrow} {record.kind:<14s} {record.size:>5d}B")
    print()

    for i in range(10):
        cluster.invoke_and_wait(cluster.clients[i % 2], bytes([0, i]))
    print("after 11 requests:")
    for replica in cluster.replicas:
        print(f"  replica{replica.node_id}: executed={replica.stats['requests_executed']}"
              f" view={replica.view} checkpoints={replica.stats['checkpoints_taken']}")
    roots = {r.state.refresh_tree() for r in cluster.replicas}
    print(f"  state roots identical across replicas: {len(roots) == 1}")
    print()

    trace_path = os.path.join(tempfile.gettempdir(), "pbft-quickstart-trace.json")
    cluster.collect_metrics()
    events = obs.write_chrome_trace(trace_path)
    print(f"wrote {events} trace events to {trace_path}")
    print("  open it at https://ui.perfetto.dev (or chrome://tracing) to see")
    print("  each request tiled into its protocol phases, or summarize it with")
    print(f"  python -m repro.obs.report {trace_path} traffic")


if __name__ == "__main__":
    main()
