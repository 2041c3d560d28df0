"""Checkpoint store: genesis, votes and stabilization."""

import pytest

from repro.common.errors import StateError
from repro.statemgr.checkpoints import Checkpoint, CheckpointStore

R = b"R" * 16
X = b"X" * 16


def cp(seq, root=R):
    return Checkpoint(seq=seq, root=root, pages=[], tree_nodes=[])


def store_of(quorum, **kwargs):
    return CheckpointStore(quorum, cp(0, b"G" * 16), **kwargs)


def test_becomes_stable_at_quorum():
    store = store_of(3)
    assert not store.add(cp(10), own=0)
    assert not store.record_vote(10, 1, R)
    assert store.record_vote(10, 2, R)
    assert store.stable_seq == 10


def test_divergent_roots_do_not_count():
    store = store_of(2)
    store.add(cp(10), own=0)
    assert not store.record_vote(10, 1, X)
    assert not store.record_vote(10, 2, X)
    assert store.stable_seq == 0


def test_duplicate_votes_counted_once():
    store = store_of(3)
    store.add(cp(10), own=0)
    for _ in range(5):
        store.record_vote(10, 1, R)
    assert store.get(10).stable_votes == 2


def test_vote_for_unknown_seq_ignored():
    store = store_of(2)
    assert not store.record_vote(99, 0, R)
    assert store.get(99) is None and store.stable_seq == 0


def test_stability_never_regresses():
    store = store_of(2)
    store.add(cp(20), own=0)
    assert store.record_vote(20, 1, R)
    assert store.stable_seq == 20
    assert not store.add(cp(10), own=0)
    assert not store.record_vote(10, 1, R)
    assert store.stable_seq == 20


def test_trim_keeps_stable_and_recent():
    store = store_of(2, max_kept=2)
    for seq in (10, 20, 30, 40, 50):
        store.add(cp(seq), own=0)
    store.record_vote(30, 1, R)
    assert store.get(30) is not None  # stable is protected
    assert store.get(40) is not None and store.get(50) is not None
    assert store.get(10) is None and store.get(20) is None
    assert store.get(0) is None  # genesis goes like any older checkpoint


def test_latest_and_latest_stable():
    store = store_of(2)
    assert store.latest().seq == 0
    store.add(cp(10), own=0)
    store.add(cp(20), own=0)
    assert store.latest().seq == 20
    assert store.latest_stable().seq == 0
    store.record_vote(10, 1, R)
    assert store.latest_stable().seq == 10


def test_meta_travels_with_checkpoint():
    checkpoint = Checkpoint(
        seq=1, root=b"r" * 16, pages=[], tree_nodes=[], client_marks={5: 9}
    )
    store = store_of(1)
    assert store.add(checkpoint, own=0)  # a quorum of one: our own vote
    assert store.get(1).client_marks == {5: 9}
    assert store.get(1).client_replies == {}


def test_zero_quorum_rejected():
    with pytest.raises(StateError):
        CheckpointStore(0, cp(0))


def test_genesis_is_stable_checkpoint_zero():
    genesis = cp(0, b"G" * 16)
    store = CheckpointStore(3, genesis)
    assert store.stable_seq == 0
    assert store.latest_stable() is genesis
    assert genesis.proof == {}  # vouched for by construction, not by votes
    # Votes at or below the stable seq change nothing.
    assert not store.record_vote(0, 1, b"G" * 16)
    assert genesis.proof == {}


def test_early_votes_are_parked_until_the_checkpoint_is_taken():
    store = store_of(3)
    assert not store.record_vote(10, 1, R)
    assert not store.record_vote(10, 2, X)  # divergent: parked, never counted
    assert not store.record_vote(10, 3, R)
    assert store.get(10) is None
    # Our own vote plus the two matching parked ones make the quorum.
    assert store.add(cp(10), own=0)
    assert store.stable_seq == 10
    assert store.get(10).proof == {0: R, 1: R, 3: R}


def test_parked_votes_all_land_even_past_the_quorum():
    store = store_of(2)
    for replica in (1, 2, 3):
        store.record_vote(10, replica, R)
    assert store.add(cp(10), own=0)
    assert sorted(store.get(10).proof) == [0, 1, 2, 3]


def test_stabilizing_drops_parked_votes_at_or_below():
    store = store_of(2)
    store.record_vote(10, 1, R)
    store.record_vote(20, 1, R)
    store.add(cp(20), own=0)  # parked 20 counts: stable at 20
    assert store.stable_seq == 20
    assert store.voters(10, R) == []
    # A later checkpoint at 10 starts from our own vote alone.
    assert not store.add(cp(10), own=0)
    assert store.get(10).proof == {0: R}


def test_voters_and_vouched_root():
    store = store_of(3)
    assert store.vouched_root(10, 2) is None
    store.record_vote(10, 3, X)
    store.record_vote(10, 2, R)
    assert store.vouched_root(10, 2) is None
    store.record_vote(10, 1, R)
    assert store.vouched_root(10, 2) == R
    assert store.voters(10, R) == [1, 2]
    assert store.voters(10, X) == [3]
    # A replica's later vote replaces its earlier one.
    store.record_vote(10, 3, R)
    assert store.voters(10, R) == [1, 2, 3] and store.voters(10, X) == []
    assert store.vouched_root(10, 4) is None


def test_vouched_root_prefers_the_first_root_to_reach_k():
    store = store_of(3)
    for replica, root in ((1, X), (2, R), (3, R), (4, X)):
        store.record_vote(10, replica, root)
    assert store.vouched_root(10, 2) == X


def test_discard_after_keeps_stable_and_older():
    store = store_of(2)
    for seq in (10, 20, 30):
        store.add(cp(seq), own=0)
    store.record_vote(10, 1, R)
    store.discard_after(10)
    assert store.get(10) is not None and store.latest().seq == 10
    assert store.get(20) is None and store.get(30) is None
    store.discard_after(0)  # never below the stable checkpoint
    assert store.latest_stable().seq == 10
    # Votes for a discarded checkpoint park again until it is retaken.
    assert not store.record_vote(20, 1, R)
    assert store.voters(20, R) == [1]
    assert store.add(cp(20), own=0)
