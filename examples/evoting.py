#!/usr/bin/env python3
"""The motivating application: a BFT e-voting service (paper section 1).

An election runs end to end on the SQL state abstraction (section 3.2):
candidates are registered, voters cast ballots (one row INSERT with the
agreed timestamp and a random receipt — the section 4.2 operation), a
replica crashes and recovers mid-election, and the tally comes from a
read-only aggregate query.

Run:  python examples/evoting.py
"""

from repro.apps.evoting import EvotingApplication, EvotingClient
from repro.common.units import SECOND
from repro.pbft import PbftConfig, build_cluster


def wait(cluster, submit):
    box = []
    submit(lambda rows, latency: box.append(rows))
    deadline = cluster.sim.now + 10 * SECOND
    while not box and cluster.sim.now < deadline:
        cluster.run_for(10_000_000)
    if not box:
        raise TimeoutError("operation did not complete")
    return box[0]


def main() -> None:
    config = PbftConfig(num_clients=5, checkpoint_interval=8, log_window=16)
    cluster = build_cluster(
        config, seed=3, app_factory=lambda: EvotingApplication()
    )
    admin = EvotingClient(cluster.clients[0], "admin")

    print("=== setting up the election ===")
    wait(cluster, lambda cb: admin.create_election(1, "MIDDLEWARE 2012 best paper", callback=cb))
    for name in ("pbft-experience", "zyzzyva", "upright"):
        wait(cluster, lambda cb, n=name: admin.add_candidate(1, n, callback=cb))
    print("election 1 created with 3 candidates")

    print()
    print("=== voting (each ballot: INSERT with now() and randomblob()) ===")
    voters = [EvotingClient(cluster.clients[i], f"voter{i}") for i in range(1, 5)]
    choices = ["pbft-experience", "pbft-experience", "zyzzyva", "pbft-experience"]
    for voter, choice in zip(voters[:2], choices[:2]):
        wait(cluster, lambda cb, v=voter, c=choice: v.cast_vote(1, c, callback=cb))
        print(f"  {voter.username} voted")

    print()
    print("=== replica 2 crashes mid-election ===")
    cluster.replicas[2].crash()
    for voter, choice in zip(voters[2:], choices[2:]):
        wait(cluster, lambda cb, v=voter, c=choice: v.cast_vote(1, c, callback=cb))
        print(f"  {voter.username} voted (with one replica down)")
    victim = cluster.restart(2)
    cluster.run_for(2 * SECOND)
    print(f"  replica 2 restarted and recovered "
          f"(recovering={victim.recovering}, last_exec={victim.last_exec})")

    print()
    print("=== results (read-only aggregate query) ===")
    tally = wait(cluster, lambda cb: admin.view_results(1, callback=cb))
    for candidate, count in tally:
        print(f"  {candidate:<20s} {count} votes")

    print()
    print("=== double voting is rejected by the unique ballot index ===")
    try:
        wait(cluster, lambda cb: voters[0].cast_vote(1, "zyzzyva", callback=cb))
        print("  ERROR: double vote accepted!")
    except Exception as exc:
        print(f"  rejected: {exc}")

    receipt = wait(cluster, lambda cb: voters[0].my_ballot(callback=cb))
    print(f"  voter1's recorded ballot: vote={receipt[0][0]!r} at t={receipt[0][1]}")

    roots = {r.state.refresh_tree() for r in cluster.replicas}
    print()
    print(f"all {config.n} replicas agree on the database state: {len(roots) == 1}")


if __name__ == "__main__":
    main()
