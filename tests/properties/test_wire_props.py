"""Property tests: protocol messages survive encode/decode, and the
wire memos always equal a fresh encoding."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.crypto.digests import md5_digest
from repro.pbft.messages import (
    AuthenticatorRefresh,
    BatchRetransmit,
    BusyReply,
    CheckpointMsg,
    Commit,
    DigestsMsg,
    FetchDigestsMsg,
    FetchPagesMsg,
    NewViewMsg,
    PagesMsg,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StatusMsg,
    ViewChangeMsg,
    PreparedProof,
    decode_message,
)

digests = st.binary(min_size=16, max_size=16)
small_int = st.integers(min_value=0, max_value=2**31)
seq_nums = st.integers(min_value=0, max_value=2**40)
replica_ids = st.integers(min_value=0, max_value=6)

requests = st.builds(
    Request,
    client=small_int,
    req_id=seq_nums,
    op=st.binary(max_size=256),
    readonly=st.booleans(),
    big=st.booleans(),
)


@given(msg=requests)
@settings(max_examples=100)
def test_request_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(
    msg=st.builds(
        PrePrepare,
        view=seq_nums,
        seq=seq_nums,
        request_digests=st.lists(digests, max_size=8).map(tuple),
        nondet=st.binary(max_size=16),
        inline_requests=st.lists(requests, max_size=3).map(tuple),
        sender=replica_ids,
    )
)
@settings(max_examples=60)
def test_preprepare_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(
    msg=st.one_of(
        st.builds(Prepare, view=seq_nums, seq=seq_nums, batch_digest=digests, sender=replica_ids),
        st.builds(Commit, view=seq_nums, seq=seq_nums, batch_digest=digests, sender=replica_ids),
        st.builds(CheckpointMsg, seq=seq_nums, root=digests, sender=replica_ids),
        st.builds(
            StatusMsg,
            view=seq_nums,
            last_exec_seq=seq_nums,
            stable_seq=seq_nums,
            sender=replica_ids,
            recovering=st.booleans(),
        ),
        st.builds(
            Reply,
            view=seq_nums,
            req_id=seq_nums,
            client=small_int,
            sender=replica_ids,
            result=st.binary(max_size=128),
            tentative=st.booleans(),
            digest_only=st.booleans(),
        ),
        st.builds(
            BusyReply,
            view=seq_nums,
            req_id=seq_nums,
            client=small_int,
            sender=replica_ids,
            reason=st.integers(min_value=0, max_value=2),
            retry_after_ns=seq_nums,
            queue_depth=st.integers(min_value=0, max_value=2**31),
        ),
    )
)
@settings(max_examples=150)
def test_small_messages_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(
    msg=st.builds(
        ViewChangeMsg,
        new_view=seq_nums,
        stable_seq=seq_nums,
        stable_root=digests,
        checkpoint_proof=st.lists(
            st.tuples(replica_ids, digests), max_size=4
        ).map(tuple),
        prepared=st.lists(
            st.builds(
                PreparedProof, seq=seq_nums, view=seq_nums, batch_digest=digests
            ),
            max_size=4,
        ).map(tuple),
        sender=replica_ids,
    )
)
@settings(max_examples=60)
def test_viewchange_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@given(
    msg=st.builds(
        PagesMsg,
        checkpoint_seq=seq_nums,
        root=digests,
        pages=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000), st.binary(max_size=64)),
            max_size=4,
        ).map(tuple),
        sender=replica_ids,
        client_marks=st.lists(
            st.tuples(small_int, seq_nums), max_size=4
        ).map(tuple),
    )
)
@settings(max_examples=60)
def test_pages_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


def sample_messages():
    """One deterministic instance of every wire message type (all 16 tags).

    Shared with the golden-vector regression test
    (tests/unit/pbft/test_wire_golden.py): any change to these samples or
    to an encoder must be reflected there on purpose.
    """
    d = bytes(range(16))
    req = Request(client=7, req_id=42, op=b"op-bytes", readonly=False, big=False)
    pp = PrePrepare(
        view=1,
        seq=9,
        request_digests=(req.digest,),
        nondet=b"nd",
        inline_requests=(req,),
        sender=0,
    )
    vc = ViewChangeMsg(
        new_view=2,
        stable_seq=100,
        stable_root=d,
        checkpoint_proof=((0, d), (1, d)),
        prepared=(
            PreparedProof(
                seq=101,
                view=1,
                batch_digest=d,
                request_digests=(d,),
                nondet=b"n",
                noop=False,
            ),
        ),
        sender=3,
    )
    return [
        req,
        pp,
        Prepare(view=1, seq=9, batch_digest=d, sender=1),
        Commit(view=1, seq=9, batch_digest=d, sender=2),
        Reply(
            view=1, req_id=42, client=7, sender=0,
            result=b"result", tentative=True, digest_only=False,
        ),
        CheckpointMsg(seq=100, root=d, sender=1),
        vc,
        NewViewMsg(
            view=2,
            view_changes=(vc,),
            pre_prepares=(PreparedProof(seq=101, view=1, batch_digest=d, noop=True),),
            stable_seq=100,
            sender=2,
        ),
        StatusMsg(view=2, last_exec_seq=101, stable_seq=100, sender=3, recovering=True),
        BatchRetransmit(pre_prepare=pp, commit_proof=(0, 1, 2), requests=(req,), sender=1),
        FetchDigestsMsg(checkpoint_seq=100, node_indices=(0, 3, 7), sender=2),
        DigestsMsg(checkpoint_seq=100, entries=((3, d),), sender=0),
        FetchPagesMsg(checkpoint_seq=100, page_indices=(1, 2), sender=3),
        PagesMsg(
            checkpoint_seq=100,
            root=d,
            pages=((1, b"pagedata"),),
            sender=0,
            client_marks=((7, 42),),
            client_replies=((7, b"reply"),),
        ),
        AuthenticatorRefresh(client=7, keys=((0, bytes(16)), (1, d))),
        BusyReply(
            view=1, req_id=43, client=7, sender=2,
            reason=1, retry_after_ns=5000, queue_depth=9,
        ),
    ]


def test_sample_catalog_covers_every_tag():
    tags = {type(m).TAG for m in sample_messages()}
    assert tags == set(range(1, 17))


def test_memoized_wire_equals_fresh_encode_for_every_type():
    # The oracle is the memo-free codec itself: ``encode()``/``body_size()``
    # called directly, on this object and on a fresh equal one whose memos
    # were never filled.  Read twice: the first read computes and stores,
    # the second is the stored value.
    for msg in sample_messages():
        twin = replace(msg)
        assert twin == msg and "wire" not in vars(twin)
        for _read in range(2):
            assert msg.wire == msg.encode() == twin.encode()
            assert msg.wire_size == msg.body_size() == twin.body_size()
        assert msg.wire is msg.wire  # memoized: literally the same object
        assert decode_message(msg.wire) == msg
        if isinstance(msg, PrePrepare):
            assert msg.header_wire == msg.encode_header() == twin.encode_header()
            assert msg.header_wire is msg.header_wire
            assert msg.batch_digest == md5_digest(twin.encode_header())
        if isinstance(msg, (Request, ViewChangeMsg)):
            assert msg.digest == md5_digest(twin.encode())
            assert msg.digest is msg.digest


@given(msg=requests)
@settings(max_examples=100)
def test_request_digest_identical_across_cache_modes(msg):
    """The two modes a memo has: cold (this read computes) and warm (this
    read is the stored value) both equal a digest worked out from a fresh
    equal request's direct ``encode()``."""
    fresh = Request(
        client=msg.client, req_id=msg.req_id, op=msg.op,
        readonly=msg.readonly, big=msg.big,
    )
    expected = md5_digest(fresh.encode())
    assert "digest" not in vars(msg)
    assert msg.digest == expected  # cold
    assert msg.digest == expected  # warm
    assert msg.wire == fresh.encode()


@given(msg=requests)
@settings(max_examples=100)
def test_digest_is_injective_over_samples(msg):
    other = Request(
        client=msg.client,
        req_id=msg.req_id + 1,
        op=msg.op,
        readonly=msg.readonly,
        big=msg.big,
    )
    assert msg.digest != other.digest
