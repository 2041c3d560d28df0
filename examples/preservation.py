#!/usr/bin/env python3
"""Digital preservation on BFT — the paper's other motivating domain.

An archive ingests documents, audits them over time (every attestation
timestamped with the *agreed* clock), and detects tampering.  Midway, one
replica crashes and recovers; the custody trail is unaffected.

Run:  python examples/preservation.py
"""

from repro.apps.preservation import ArchiveClient, PreservationApplication
from repro.common.units import SECOND
from repro.pbft import PbftConfig, build_cluster


def wait(cluster, submit):
    box = []
    submit(lambda value, latency: box.append(value))
    deadline = cluster.sim.now + 10 * SECOND
    while not box and cluster.sim.now < deadline:
        cluster.run_for(10_000_000)
    if not box:
        raise TimeoutError("operation did not complete")
    return box[0]


def main() -> None:
    cluster = build_cluster(
        PbftConfig(num_clients=3, checkpoint_interval=8, log_window=16),
        seed=4,
        app_factory=lambda: PreservationApplication(),
    )
    curator = ArchiveClient(cluster.clients[0])
    auditor = ArchiveClient(cluster.clients[1])

    print("=== ingest ===")
    documents = {
        "pbft-osdi99.pdf": b"Practical Byzantine Fault Tolerance, Castro & Liskov",
        "middleware12.pdf": b"On the Practicality of 'Practical' BFT",
        "minutes-2026.txt": b"The committee approved the preservation policy.",
    }
    for name, content in documents.items():
        wait(cluster, lambda cb, n=name, c=content: curator.ingest(n, c, callback=cb))
        print(f"  ingested {name} ({len(content)} bytes)")

    count, total = wait(cluster, lambda cb: curator.holdings(callback=cb))[0]
    print(f"holdings: {count} documents, {total} bytes")

    print()
    print("=== audits (agreed timestamps) ===")
    for name in documents:
        wait(cluster, lambda cb, n=name: auditor.record_audit(n, "fixity-ok", callback=cb))
    trail = wait(cluster, lambda cb: auditor.custody_trail("pbft-osdi99.pdf", callback=cb))
    for event, detail, at in trail:
        print(f"  {event}: {detail} at t={at}")

    print()
    print("=== replica 1 crashes; the archive keeps serving ===")
    cluster.replicas[1].crash()
    verdict = wait(
        cluster,
        lambda cb: auditor.verify(
            "middleware12.pdf", documents["middleware12.pdf"], callback=cb
        ),
    )
    print(f"  verify middleware12.pdf with one replica down: {verdict}")
    cluster.restart(1)
    cluster.run_for(2 * SECOND)
    print(f"  replica 1 recovered (recovering={cluster.replicas[1].recovering})")

    print()
    print("=== tamper detection ===")
    verdict = wait(
        cluster,
        lambda cb: auditor.verify("minutes-2026.txt", b"The committee REJECTED it.", callback=cb),
    )
    print(f"  verifying altered content: {verdict}")
    verdict = wait(
        cluster,
        lambda cb: auditor.verify("minutes-2026.txt", documents["minutes-2026.txt"], callback=cb),
    )
    print(f"  verifying original content: {verdict}")


if __name__ == "__main__":
    main()
