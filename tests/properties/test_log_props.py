"""Property tests for the message log's incremental bookkeeping.

``ViewSlot`` keeps matching-vote counts current instead of re-counting the
votes per message, and ``MessageLog`` counts its unexecuted slots instead
of scanning them.  Both are checked here against the definitions they
replaced, under the orders the protocol actually produces: pre-prepare
after the prepares, duplicate votes, conflicting digests, several views.
"""

from hypothesis import given, settings, strategies as st

from repro.pbft.log import MessageLog, Slot
from repro.pbft.messages import PrePrepare

F = 1
SENDERS = st.integers(min_value=0, max_value=3)
VIEWS = st.integers(min_value=0, max_value=2)
# Pre-prepare variants per view: differing nondet data gives differing
# batch digests (an equivocating primary); votes pick among their digests
# or an unrelated one.
VARIANTS = st.integers(min_value=0, max_value=2)


def pre_prepare(view: int, variant: int) -> PrePrepare:
    return PrePrepare(
        view=view, seq=7, request_digests=(b"r" * 16,), nondet=bytes([variant]), sender=0
    )


def vote_digest(view: int, variant: int) -> bytes:
    return pre_prepare(view, variant).batch_digest if variant < 2 else b"?" * 16


steps = st.lists(
    st.one_of(
        st.tuples(st.just("prepare"), VIEWS, SENDERS, VARIANTS),
        st.tuples(st.just("commit"), VIEWS, SENDERS, VARIANTS),
        st.tuples(st.just("accept"), VIEWS, st.integers(min_value=0, max_value=1)),
    ),
    max_size=40,
)


def old_matching(votes: dict, vs) -> int:
    """The replaced definition: a pass over the votes per query."""
    if vs.pre_prepare is None:
        return 0
    want = vs.pre_prepare.batch_digest
    return sum(1 for d in votes.values() if d == want)


@given(program=steps)
@settings(max_examples=300, deadline=None)
def test_view_slot_counters_equal_the_recounted_sums(program):
    slot = Slot(7)
    for step in program:
        vs = slot.view_slot(step[1])
        if step[0] == "prepare":
            vs.add_prepare(step[2], vote_digest(step[1], step[3]))
        elif step[0] == "commit":
            vs.add_commit(step[2], vote_digest(step[1], step[3]))
        else:
            vs.accept(pre_prepare(step[1], step[2]))
        for view, each in slot.views.items():
            prepares = old_matching(each.prepares, each)
            commits = old_matching(each.commits, each)
            assert each.matching_prepares == prepares
            assert each.matching_commits == commits
            has_pp = each.pre_prepare is not None
            assert slot.prepared(view, F) == (has_pp and prepares >= 2 * F)
            assert slot.committed_local(view, F) == (
                has_pp and prepares >= 2 * F and commits >= 2 * F + 1
            )
    assert not slot.prepared(99, F) and not slot.committed_local(99, F)


log_steps = st.lists(
    st.one_of(
        st.tuples(st.just("slot"), st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("executed"), st.integers(min_value=1, max_value=40), st.booleans()),
        st.tuples(st.just("stable"), st.integers(min_value=0, max_value=40)),
    ),
    max_size=60,
)


@given(program=log_steps)
@settings(max_examples=300, deadline=None)
def test_unexecuted_counter_equals_a_scan_of_the_log(program):
    log = MessageLog(16)
    for step in program:
        if step[0] == "stable":
            log.advance_stable(step[1])
        elif log.in_window(step[1]):
            slot = log.slot(step[1])
            if step[0] == "executed":
                log.set_executed(slot, step[2])
                log.set_executed(slot, step[2])  # idempotent
        assert log.unexecuted == sum(1 for s in log.slots.values() if not s.executed)
