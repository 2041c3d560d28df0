"""Membership wire messages and system-op payloads."""

from repro.membership.messages import (
    Join2Payload,
    JoinChallenge,
    JoinPhase1,
    SYS_JOIN2,
    SYS_LEAVE,
    compute_challenge,
    compute_response,
    encode_leave_op,
    system_op_kind,
)
from repro.pbft.wire import Decoder, decode_exact


def sample_phase1():
    return JoinPhase1(
        temp_client=1000,
        pubkey_n=b"\x01" * 32,
        nonce=b"\x02" * 16,
        host="clienthost0",
        port=6000,
    )


def test_phase1_roundtrip():
    msg = sample_phase1()
    assert JoinPhase1.decode(Decoder(msg.encode())) == msg
    assert msg.body_size() >= len(msg.encode()) - 8


def test_challenge_roundtrip():
    msg = JoinChallenge(temp_client=1000, challenge=b"c" * 16, sender=2)
    assert JoinChallenge.decode(Decoder(msg.encode())) == msg


def test_challenge_is_deterministic_across_replicas():
    """All correct replicas must derive the same challenge so phase 2 can
    be validated identically group-wide."""
    a = compute_challenge(b"\x01" * 32, b"\x02" * 16)
    b = compute_challenge(b"\x01" * 32, b"\x02" * 16)
    assert a == b
    assert a != compute_challenge(b"\x01" * 32, b"\x03" * 16)


def test_response_requires_the_challenge():
    challenge = compute_challenge(b"k" * 32, b"n" * 16)
    assert compute_response(challenge, b"n" * 16) != compute_response(
        b"\0" * 16, b"n" * 16
    )


def test_join2_payload_roundtrip():
    payload = Join2Payload(
        temp_client=1000,
        pubkey_n=b"\x01" * 32,
        nonce=b"\x02" * 16,
        response=b"\x03" * 16,
        idbuf=b"user:secret",
        session_keys=((0, b"k" * 16), (1, b"j" * 16)),
        host="clienthost0",
        port=6001,
    )
    op = payload.encode()
    assert system_op_kind(op) == SYS_JOIN2
    assert decode_exact(Join2Payload, op) == payload


def test_leave_op():
    op = encode_leave_op()
    assert system_op_kind(op) == SYS_LEAVE


def test_non_system_op_returns_none():
    assert system_op_kind(b"\x00regular") is None
    assert system_op_kind(b"") is None
