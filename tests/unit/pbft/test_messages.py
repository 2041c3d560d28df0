"""Protocol message encode/decode and invariants."""

import pytest

from repro.common.errors import ProtocolError
from repro.pbft.messages import PrePrepare, Reply, Request, decode_message
from tests.properties.test_wire_props import sample_messages, surcharge

D = b"d" * 16


def sample_request(**kw):
    defaults = dict(client=1000, req_id=7, op=b"operation", readonly=False, big=True)
    defaults.update(kw)
    return Request(**defaults)


# The one catalogue (its Reply is a full, tentative one) and that reply's
# digest-only twin, which sets the other flag byte.
ALL_MESSAGES = sample_messages() + [
    Reply(view=2, req_id=7, client=1000, sender=2, result=D, digest_only=True)
]


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_body_size_counts_at_least_encoded_bytes(msg):
    """Exactly them, plus what the layout declares as charged beyond its
    encoding (``AuthenticatorRefresh``: 48 bytes per key) — the accounting
    that ``net.bytes_per_op`` and every bandwidth charge is made of."""
    assert msg.wire_size == msg.body_size() == len(msg.wire) + surcharge(msg)
    assert surcharge(msg) == (96 if type(msg).__name__ == "AuthenticatorRefresh" else 0)


def test_request_digest_stable_and_distinct():
    a = sample_request()
    assert a.digest == sample_request().digest
    assert a.digest != sample_request(req_id=8).digest


def test_preprepare_batch_digest_binds_view_seq_batch_nondet():
    base = dict(request_digests=(D,), nondet=b"n", sender=0)
    pp = PrePrepare(view=1, seq=5, **base)
    assert pp.batch_digest != PrePrepare(view=2, seq=5, **base).batch_digest
    assert pp.batch_digest != PrePrepare(view=1, seq=6, **base).batch_digest
    other_nondet = PrePrepare(view=1, seq=5, request_digests=(D,), nondet=b"m", sender=0)
    assert pp.batch_digest != other_nondet.batch_digest


def test_preprepare_inline_bodies_do_not_change_batch_digest():
    """Authentication covers the header; bodies are covered transitively
    by their digests."""
    with_inline = PrePrepare(
        view=1, seq=5, request_digests=(D,), inline_requests=(sample_request(),), sender=0
    )
    without = PrePrepare(view=1, seq=5, request_digests=(D,), sender=0)
    assert with_inline.batch_digest == without.batch_digest
    assert with_inline.body_size() > without.body_size()


def test_reply_result_digest_matches_between_full_and_digest_replies():
    full = Reply(view=0, req_id=1, client=1, sender=0, result=b"the result")
    digest = Reply(
        view=0, req_id=1, client=1, sender=1,
        result=full.result_digest, digest_only=True,
    )
    assert full.result_digest == digest.result_digest


def test_decode_rejects_unknown_tag():
    with pytest.raises(ProtocolError):
        decode_message(b"\xee1234")
    with pytest.raises(ProtocolError):
        decode_message(b"")


def test_decode_rejects_trailing_garbage():
    raw = sample_request().encode() + b"junk"
    with pytest.raises(ProtocolError):
        decode_message(raw)
