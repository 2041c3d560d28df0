#!/usr/bin/env python3
"""Dynamic client membership — the paper's section 3.1 extension.

Walks the join sequence of the paper's Figure 2 with a live trace:

  1. the client multicasts its address/public key/nonce (phase 1);
  2. each replica answers with a deterministic challenge sent to the
     *claimed* address (anti-spoofing);
  3. the client's response travels as a totally-ordered system request;
  4. the reply assigns the service-side client identifier.

Then demonstrates the session rules: single session per principal, Leave,
and rejection after leaving.

Run:  python examples/dynamic_clients.py
"""

from repro.common.units import SECOND
from repro.membership import join_client, leave_client
from repro.obs import Observability, chrome_trace_events
from repro.obs.report import packets
from repro.pbft import PbftConfig, build_cluster


def main() -> None:
    config = PbftConfig(
        dynamic_clients=True, num_clients=3, checkpoint_interval=8, log_window=16
    )
    obs = Observability(tracing=True)
    cluster = build_cluster(config, seed=2, obs=obs)
    for app in cluster.apps:
        app.authorize_join = (
            lambda idbuf: int(idbuf[5:]) if idbuf.startswith(b"user:") else None
        )
    rng = cluster.rng.stream("demo-joins")

    print("=== Figure 2: the two-phase join ===")
    alice = cluster.clients[0]
    assigned = []
    join_client(alice, b"user:1", rng, callback=assigned.append)
    cluster.run_for(1 * SECOND)
    print(f"alice joined with service-assigned id {assigned[0]}")
    print("join message trace:")
    for record in packets(chrome_trace_events(obs.tracer))[:14]:
        print(f"  t={record.time/1e6:7.3f}ms {record.src:>12s} -> "
              f"{record.dst:<12s} {record.kind}")
    obs.tracer.enabled = False

    print()
    print("=== Normal operation under the new identity ===")
    result = cluster.invoke_and_wait(alice, b"\x00request-as-member")
    print(f"request by client {alice.node_id} completed ({len(result)}-byte reply)")

    print()
    print("=== Single session per principal ===")
    bob = cluster.clients[1]
    join_client(bob, b"user:1", rng, callback=lambda eid: print(
        f"bob joined as user:1 with id {eid} — alice's session is terminated"))
    cluster.run_for(1 * SECOND)
    tables = [sorted(r.membership.table) for r in cluster.replicas]
    print(f"replica client tables (identical: {all(t == tables[0] for t in tables)}): "
          f"{tables[0]}")

    print()
    print("=== Leave ===")
    leave_client(bob, callback=lambda r, l: print(f"leave acknowledged: {r!r}"))
    cluster.run_for(1 * SECOND)
    print(f"tables after leave: {sorted(cluster.replicas[0].membership.table)}")
    bob.invoke(b"\x00ghost-request")
    cluster.run_for(1 * SECOND)
    rejecting = sum(1 for r in cluster.replicas if r.stats["requests_rejected"] > 0)
    print(f"post-leave request rejected at all {rejecting} replicas "
          "(the redirection table no longer knows the id)")
    bob.cancel_pending()


if __name__ == "__main__":
    main()
