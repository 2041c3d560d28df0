"""The motivating application end to end: an election on the BFT cluster."""

import pytest

from repro.apps.evoting import EvotingApplication, EvotingClient, voter_credential
from repro.common.errors import SqlError
from repro.common.units import SECOND
from repro.membership import join_client
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig


def make_cluster(dynamic=False, num_clients=4):
    config = PbftConfig(
        dynamic_clients=dynamic,
        num_clients=num_clients,
        checkpoint_interval=8,
        log_window=16,
    )
    return build_cluster(
        config, seed=53, app_factory=lambda: EvotingApplication()
    )


def wait_result(cluster, submit):
    box = []
    submit(lambda rows, latency: box.append(rows))
    deadline = cluster.sim.now + 10 * SECOND
    while not box and cluster.sim.now < deadline:
        cluster.run_for(10_000_000)
    assert box, "operation did not complete"
    return box[0]


def test_full_election_lifecycle():
    cluster = make_cluster()
    admin = EvotingClient(cluster.clients[0], "admin")
    wait_result(cluster, lambda cb: admin.create_election(1, "Best protocol", callback=cb))
    for name in ("pbft", "zyzzyva", "hq"):
        wait_result(cluster, lambda cb, n=name: admin.add_candidate(1, n, callback=cb))

    voters = [
        EvotingClient(cluster.clients[i], f"voter{i}") for i in range(1, 4)
    ]
    votes = ["pbft", "pbft", "zyzzyva"]
    for voter, vote in zip(voters, votes):
        count = wait_result(cluster, lambda cb, v=voter, c=vote: v.cast_vote(1, c, callback=cb))
        assert count == 1

    tally = wait_result(cluster, lambda cb: admin.view_results(1, callback=cb))
    assert tally == [("pbft", 2), ("zyzzyva", 1)]


def test_double_voting_rejected_by_unique_ballot_index():
    cluster = make_cluster()
    voter = EvotingClient(cluster.clients[1], "mallory")
    wait_result(cluster, lambda cb: voter.cast_vote(1, "a", callback=cb))
    with pytest.raises(SqlError, match="UNIQUE"):
        wait_result(cluster, lambda cb: voter.cast_vote(1, "b", callback=cb))
    # Her first ballot is intact.
    ballot = wait_result(cluster, lambda cb: voter.my_ballot(callback=cb))
    assert ballot[0][0] == "a"


def test_results_survive_replica_crash_and_recovery():
    cluster = make_cluster()
    admin = EvotingClient(cluster.clients[0], "admin")
    for i in range(1, 4):
        voter = EvotingClient(cluster.clients[i], f"v{i}")
        wait_result(cluster, lambda cb, v=voter: v.cast_vote(1, "yes", callback=cb))
    victim = cluster.replicas[2]
    victim.crash()
    cluster.run_for(int(0.2 * SECOND))
    victim = cluster.restart(2)
    cluster.run_for(2 * SECOND)
    tally = wait_result(cluster, lambda cb: admin.view_results(1, callback=cb))
    assert tally == [("yes", 3)]


def test_dynamic_voters_authorize_against_the_voter_table():
    """Section 3.1 + the e-voting app: the identification buffer carries
    the voter's credentials, validated against the replicated database."""
    cluster = make_cluster(dynamic=True, num_clients=3)
    rng = cluster.rng.stream("evoting-joins")

    # Client 0 joins with bootstrap credentials to register voters...
    # but no voters exist yet, so the very first join must be refused.
    from repro.common.errors import ProtocolError

    with pytest.raises(ProtocolError, match="refused|DENIED"):
        join_client(cluster.clients[0], b"ghost:nope", rng)
        cluster.run_for(2 * SECOND)

    # Seed a voter roll directly in every replica's database (the paper's
    # deployment registers voters before the election opens).
    for replica in cluster.replicas:
        for i in range(3):
            username = f"voter{i}"
            replica.app.db.execute(
                "INSERT INTO voters (election_id, username, credential) "
                "VALUES (1, ?, ?)",
                (username, voter_credential(username)),
            )
        replica.state.end_of_execution()

    joined = []
    for i, client in enumerate(cluster.clients):
        username = f"voter{i}"
        idbuf = f"{username}:{voter_credential(username)}".encode()
        join_client(client, idbuf, rng, callback=lambda eid: joined.append(eid))
    cluster.run_for(3 * SECOND)
    assert len(joined) == 3

    voter = EvotingClient(cluster.clients[0], "voter0")
    assert wait_result(cluster, lambda cb: voter.cast_vote(1, "pbft", callback=cb)) == 1
