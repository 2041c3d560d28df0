"""The replica message log: certificates, watermarks, GC."""

import pytest

from repro.common.errors import ProtocolError
from repro.pbft.log import MessageLog, RequestStore, Slot
from repro.pbft.messages import PrePrepare, Request

D = b"d" * 16
F = 1


def pp_for(seq, view=0, digests=(D,)):
    return PrePrepare(view=view, seq=seq, request_digests=tuple(digests), sender=0)


def prepared_slot(seq=1, view=0):
    slot = Slot(seq)
    vs = slot.view_slot(view)
    vs.accept(pp_for(seq, view))
    vs.add_prepare(1, vs.pre_prepare.batch_digest)
    vs.add_prepare(2, vs.pre_prepare.batch_digest)
    return slot


class TestSlot:
    def test_not_prepared_without_preprepare(self):
        slot = Slot(1)
        slot.view_slot(0).add_prepare(1, D)
        slot.view_slot(0).add_prepare(2, D)
        assert not slot.prepared(0, F)

    def test_prepared_needs_2f_matching_prepares(self):
        slot = Slot(1)
        vs = slot.view_slot(0)
        vs.accept(pp_for(1))
        vs.add_prepare(1, vs.pre_prepare.batch_digest)
        assert not slot.prepared(0, F)
        vs.add_prepare(2, vs.pre_prepare.batch_digest)
        assert slot.prepared(0, F)

    def test_mismatched_prepare_digests_do_not_count(self):
        slot = Slot(1)
        vs = slot.view_slot(0)
        vs.accept(pp_for(1))
        vs.add_prepare(1, b"x" * 16)
        vs.add_prepare(2, b"y" * 16)
        assert not slot.prepared(0, F)

    def test_committed_needs_prepared_plus_quorum_commits(self):
        slot = prepared_slot()
        vs = slot.view_slot(0)
        digest = vs.pre_prepare.batch_digest
        vs.add_commit(0, digest)
        vs.add_commit(1, digest)
        assert not slot.committed_local(0, F)
        vs.add_commit(2, digest)
        assert slot.committed_local(0, F)

    def test_latest_prepared_proof_picks_highest_view(self):
        slot = prepared_slot(seq=5, view=0)
        vs2 = slot.view_slot(2)
        vs2.accept(pp_for(5, view=2))
        vs2.add_prepare(1, vs2.pre_prepare.batch_digest)
        vs2.add_prepare(3, vs2.pre_prepare.batch_digest)
        view, digest = slot.latest_prepared_proof(F)
        assert view == 2
        assert digest == vs2.pre_prepare.batch_digest


class TestMessageLog:
    def test_in_window(self):
        log = MessageLog(16)
        assert log.in_window(1) and log.in_window(16)
        assert not log.in_window(0) and not log.in_window(17)

    def test_slot_outside_window_raises(self):
        log = MessageLog(16)
        with pytest.raises(ProtocolError):
            log.slot(17)

    def test_open_resolves_the_same_pair_as_slot_and_view_slot(self):
        log = MessageLog(16)
        log.advance_stable(4)
        assert log.open(4, 0) is None and log.open(21, 0) is None
        assert log.slots == {} and log.unexecuted == 0  # nothing created outside
        slot, vs = log.open(5, 1)
        assert (slot, vs) == (log.slot(5), log.slot(5).view_slot(1))
        assert log.unexecuted == 1
        assert log.open(5, 1) == (slot, vs)
        assert log.open(5, 2)[1] is not vs

    def test_advance_stable_moves_window_and_gcs(self):
        log = MessageLog(16)
        log.slot(1)
        log.slot(8)
        log.slot(12)
        log.advance_stable(8)
        assert log.low_watermark == 8
        assert log.high_watermark == 24
        assert log.peek(1) is None and log.peek(8) is None
        assert log.peek(12) is not None

    def test_advance_stable_never_regresses(self):
        log = MessageLog(16)
        log.advance_stable(8)
        log.advance_stable(4)
        assert log.low_watermark == 8

    def test_live_request_digests_collects_from_preprepares(self):
        log = MessageLog(16)
        log.slot(1).view_slot(0).accept(pp_for(1, digests=(b"a" * 16, b"b" * 16)))
        log.slot(2).view_slot(0).accept(pp_for(2, digests=(b"c" * 16,)))
        assert log.live_request_digests() == {b"a" * 16, b"b" * 16, b"c" * 16}

    def test_prepared_proofs_ordered_by_seq(self):
        log = MessageLog(32)
        for seq in (5, 2, 9):
            slot = log.slot(seq)
            vs = slot.view_slot(0)
            vs.accept(pp_for(seq))
            vs.add_prepare(1, vs.pre_prepare.batch_digest)
            vs.add_prepare(2, vs.pre_prepare.batch_digest)
        assert [seq for seq, _v, _d in log.prepared_proofs(F)] == [2, 5, 9]


class TestRequestStore:
    def req(self, client=1, req_id=1):
        return Request(client=client, req_id=req_id, op=b"op")

    def test_at_most_once_tracking(self):
        store = RequestStore()
        request = self.req(req_id=5)
        assert not store.already_executed(request)
        store.record_execution(request, reply="cached", timestamp=100)
        assert store.already_executed(request)
        assert store.already_executed(self.req(req_id=4))
        assert not store.already_executed(self.req(req_id=6))

    def test_last_reply_and_activity(self):
        store = RequestStore()
        store.record_execution(self.req(), reply="r1", timestamp=42)
        assert store.last_reply[1] == "r1"
        assert store.last_active[1] == 42

    def test_gc_keeps_unexecuted_bodies(self):
        """The regression behind the first wedge bug: bodies pending at the
        primary must survive checkpoint GC."""
        store = RequestStore()
        executed = self.req(client=1, req_id=1)
        pending = self.req(client=2, req_id=1)
        store.add(executed)
        store.add(pending)
        store.record_execution(executed, reply="r", timestamp=0)
        store.gc_digests(keep=set())
        assert store.get(executed.digest) is None
        assert store.get(pending.digest) is not None

    def test_forget_client(self):
        store = RequestStore()
        store.record_execution(self.req(), reply="r", timestamp=0)
        store.forget_client(1)
        assert not store.already_executed(self.req(req_id=1))
        assert 1 not in store.last_reply
