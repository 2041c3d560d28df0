"""State-transfer mechanics between two live replicas, in isolation."""

import pytest

from repro.common.units import SECOND
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig


@pytest.fixture()
def cluster():
    return build_cluster(
        PbftConfig(num_clients=2, checkpoint_interval=4, log_window=8),
        seed=103,
        real_crypto=False,
    )


def diverge_and_checkpoint(cluster, ops=6):
    """Run ops so replicas checkpoint; returns the stable seq."""
    for i in range(ops):
        cluster.invoke_and_wait(cluster.clients[i % 2], bytes([0, i]))
    cluster.run_for(int(0.2 * SECOND))
    return cluster.replicas[0].checkpoints.stable_seq


def test_transfer_fetches_only_differing_pages(cluster):
    stable = diverge_and_checkpoint(cluster)
    assert stable >= 4
    source = cluster.replicas[0]
    target = cluster.replicas[3]
    # Reset the target's state to force a full diff against the source.
    target.state.restore(
        [bytes(target.config.page_size)] * target.config.state_pages
    )
    target.last_exec = 0
    target.committed_upto = 0
    checkpoint = source.checkpoints.latest_stable()
    target.maybe_start_state_transfer(checkpoint.seq, checkpoint.root)
    cluster.run_for(int(0.5 * SECOND))
    assert target.transfer is None  # completed
    assert target.last_exec >= checkpoint.seq
    assert target.state.refresh_tree() == checkpoint.root
    # Far fewer pages fetched than the region holds: only dirty ones.
    assert target.stats["state_transfer_pages"] < target.config.state_pages / 4


def test_transfer_with_identical_state_fetches_nothing(cluster):
    stable = diverge_and_checkpoint(cluster)
    target = cluster.replicas[3]
    checkpoint = target.checkpoints.latest_stable()
    before = target.stats["state_transfer_pages"]
    # Roll last_exec back without touching the (already correct) pages.
    target.last_exec = 0
    target.maybe_start_state_transfer(checkpoint.seq, checkpoint.root)
    cluster.run_for(int(0.3 * SECOND))
    assert target.transfer is None
    # Only the pages executed *past* the checkpoint differ (the rolling
    # execution counter), never the whole region.
    assert target.stats["state_transfer_pages"] - before <= 2
    assert target.last_exec >= checkpoint.seq


def test_transfer_retries_around_lost_fetches(cluster):
    from repro.net.fabric import DropRule

    diverge_and_checkpoint(cluster)
    source = cluster.replicas[0]
    target = cluster.replicas[3]
    cluster.fabric.add_drop_rule(
        DropRule(
            lambda p: p.kind in ("FetchDigestsMsg", "DigestsMsg"),
            count=2,
            name="lose-fetches",
        )
    )
    target.state.restore([bytes(target.config.page_size)] * target.config.state_pages)
    target.last_exec = 0
    target.committed_upto = 0
    checkpoint = source.checkpoints.latest_stable()
    target.maybe_start_state_transfer(checkpoint.seq, checkpoint.root)
    cluster.run_for(2 * SECOND)
    assert target.transfer is None  # the gossip retry healed the loss
    assert target.state.refresh_tree() == checkpoint.root


def test_transfer_falls_back_to_another_source_on_bad_root(cluster):
    diverge_and_checkpoint(cluster)
    target = cluster.replicas[3]
    source = cluster.replicas[0]
    checkpoint = source.checkpoints.latest_stable()
    target.state.restore([bytes(target.config.page_size)] * target.config.state_pages)
    target.last_exec = 0
    target.committed_upto = 0
    # Corrupt replica 0's stored copy of a page the transfer will actually
    # fetch (a non-zero one), so the first attempt produces a root
    # mismatch and the task retries with another peer.
    bad = list(checkpoint.pages)
    dirty = next(i for i, page in enumerate(bad) if any(page))
    bad[dirty] = b"\xff" * target.config.page_size
    source.checkpoints.get(checkpoint.seq).pages = bad
    target.maybe_start_state_transfer(checkpoint.seq, checkpoint.root)
    cluster.run_for(2 * SECOND)
    assert target.stats["state_transfer_failures"] >= 1
    assert target.state.refresh_tree() == checkpoint.root  # healed elsewhere


# -- reply-cache durability ---------------------------------------------------
#
# The last reply per client is part of the checkpointed state: anyone who
# adopts a checkpoint's client watermarks must also be able to answer
# retransmissions of the marked operations, or retransmitting clients hit
# a reply black hole (caught by the fault campaign's lossy-links schedule).


def test_stable_checkpoint_meta_carries_client_replies(cluster):
    diverge_and_checkpoint(cluster)
    replica = cluster.replicas[0]
    stable = replica.checkpoints.latest_stable()
    assert set(stable.client_replies) == set(stable.client_marks)
    for client, reply in stable.client_replies.items():
        assert reply.req_id == stable.client_marks[client]


def test_restart_restores_reply_cache_stabilized(cluster):
    diverge_and_checkpoint(cluster)
    replica = cluster.replicas[3]
    expected = replica.checkpoints.latest_stable().client_replies
    assert expected
    replica.crash()
    replica.restart()
    assert set(replica.reqstore.last_reply) == set(expected)
    for client, reply in replica.reqstore.last_reply.items():
        assert reply.req_id == expected[client].req_id
        # Stability proves commitment: restored replies are never tentative.
        assert not reply.tentative


def test_state_transfer_restores_reply_cache(cluster):
    diverge_and_checkpoint(cluster)
    source = cluster.replicas[0]
    target = cluster.replicas[3]
    checkpoint = source.checkpoints.latest_stable()
    expected = checkpoint.client_replies
    assert expected
    target.state.restore(
        [bytes(target.config.page_size)] * target.config.state_pages
    )
    target.last_exec = 0
    target.committed_upto = 0
    target.reqstore.last_reply = {}
    target.reqstore.last_executed_req = {}
    target.maybe_start_state_transfer(checkpoint.seq, checkpoint.root)
    cluster.run_for(int(0.5 * SECOND))
    assert target.transfer is None
    for client, reply in expected.items():
        got = target.reqstore.last_reply.get(client)
        assert got is not None
        assert got.req_id >= reply.req_id
        assert not got.tentative


# -- what a retransmitting client is told -------------------------------------
#
# A reply produced by tentative execution is flagged tentative; once a quorum
# proof shows the execution final (a commit certificate, a stable checkpoint,
# a committed replay) every resend of it must be flagged stable, or the
# client waits for f+1 stable votes that never come.  These tests watch the
# resend itself, not how the replica stores it.

LAGGARD = 3


def retransmit(replica, req):
    """The reply ``replica`` sends a client that retransmits ``req``."""
    sent = []
    replica.send_mac = lambda addr, kind, peer, msg, *rest: sent.append(msg)
    try:
        replica.on_request(req)
    finally:
        del replica.send_mac
    (reply,) = sent
    assert reply.req_id == req.req_id and not reply.digest_only
    return reply


def execute_without_commits(cluster, ops):
    """Run ``ops`` (client indices) while every Commit to the laggard is
    lost: it executes each batch tentatively and never sees a commit
    certificate.  Returns the laggard and ``{seq: requests}`` of what it
    executed (kept here: a stable checkpoint GCs its journal)."""
    from repro.net.fabric import DropRule
    from repro.pbft.node import replica_address

    laggard = cluster.replicas[LAGGARD]
    cluster.fabric.add_drop_rule(
        DropRule(
            lambda p: p.kind == "Commit" and p.dst == replica_address(LAGGARD),
            name="commits-to-laggard",
        )
    )
    executed = {}
    execute_batch = laggard._execute_batch

    def spy(pp, requests, *args, **kwargs):
        executed[pp.seq] = list(requests)
        execute_batch(pp, requests, *args, **kwargs)

    laggard._execute_batch = spy
    try:
        for i, client in enumerate(ops):
            cluster.invoke_and_wait(cluster.clients[client], bytes([0, i]))
        cluster.run_for(int(0.01 * SECOND))
    finally:
        del laggard._execute_batch
    return laggard, executed


def commit_at(replica, seq):
    """Deliver the commit certificate for ``seq`` from the other replicas."""
    from repro.pbft.messages import Commit

    pp = replica.exec_journal[seq][0]
    for rid in range(replica.n):
        if rid != replica.node_id:
            replica.on_commit(
                Commit(view=pp.view, seq=seq, batch_digest=pp.batch_digest, sender=rid)
            )


def replay_committed(replica, requests, seq):
    """A peer's certified retransmit of a committed batch at ``seq``."""
    from repro.pbft.messages import BatchRetransmit, PrePrepare

    earlier = replica.exec_journal[replica.last_exec][0]
    pp = PrePrepare(
        view=earlier.view, seq=seq,
        request_digests=tuple(r.digest for r in requests),
        nondet=earlier.nondet, sender=earlier.sender,
    )
    replica.on_batch_retransmit(
        BatchRetransmit(
            pre_prepare=pp,
            commit_proof=tuple(range(replica.config.quorum)),
            requests=tuple(requests),
            sender=earlier.sender,
        )
    )


def test_resend_is_tentative_until_the_commit_certificate(cluster):
    laggard, executed = execute_without_commits(cluster, [0])
    ((seq, (req,)),) = executed.items()
    assert retransmit(laggard, req).tentative
    commit_at(laggard, seq)
    assert laggard.committed_upto == seq
    assert not retransmit(laggard, req).tentative


def test_checkpoint_stable_finalizes_tentative_executions(cluster):
    """A stable checkpoint is a global commit proof: resends of replies
    executed tentatively at or below it are stable, even though this
    replica never saw their commit certificates."""
    interval = cluster.config.checkpoint_interval
    laggard, executed = execute_without_commits(cluster, [0, 1] * interval + [0])
    stable = laggard.checkpoints.stable_seq
    assert stable >= interval and max(executed) > stable
    # Only the checkpoint moved committed_upto: no commit ever arrived.
    assert laggard.committed_upto == stable
    below = executed[stable][-1]
    above = executed[max(executed)][-1]
    assert below.client != above.client
    assert not retransmit(laggard, below).tentative
    assert retransmit(laggard, above).tentative
    # The checkpoint snapshot carries the replies as they were answered
    # then: nothing past its seq was proven, so nothing was stabilized.
    snapshot = laggard.checkpoints.latest_stable().client_replies
    assert all(reply.tentative for reply in snapshot.values())


def test_committed_replay_stabilizes_the_resend(cluster):
    laggard, executed = execute_without_commits(cluster, [0])
    ((seq, (req,)),) = executed.items()
    assert retransmit(laggard, req).tentative
    # The same request in a later committed batch is executed already: the
    # replay proves it (and answers the client again, now stable).
    replay_committed(laggard, [req], seq + 1)
    assert laggard.last_exec == seq + 1
    assert not retransmit(laggard, req).tentative


def test_resend_stays_tentative_when_committed_upto_jumps_a_slot(cluster):
    """A committed replay of the *next* slot moves committed_upto past a
    slot that only executed tentatively; that slot is never finalized by
    the commit walk, so its reply stays tentative until a checkpoint
    covering it stabilizes."""
    from repro.pbft.messages import Request

    laggard, executed = execute_without_commits(cluster, [0])
    ((seq, (req,)),) = executed.items()
    other = Request(client=cluster.clients[1].node_id, req_id=1, op=b"\x00next")
    replay_committed(laggard, [other], seq + 1)
    assert laggard.committed_upto == seq + 1
    commit_at(laggard, seq)  # too late: the walk starts past it
    assert laggard.log.peek(seq).committed
    assert retransmit(laggard, req).tentative
    assert not retransmit(laggard, other).tentative
