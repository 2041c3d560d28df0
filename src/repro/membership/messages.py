"""Membership wire messages and the system-operation payloads.

Phase 1 of the join and the challenge are plain transport-level messages
(there is nothing to order yet).  Phase 2 and Leave are *system requests*:
their payloads are packed into a normal :class:`repro.pbft.messages.Request`
op whose first byte is :data:`repro.pbft.messages.SYSTEM_OP_PREFIX`, giving
them the same total order as every application request.
"""

from __future__ import annotations

from repro.crypto.digests import md5_digest
from repro.pbft.messages import (  # noqa: F401  (SYS_* re-exported)
    DIGEST,
    SYS_JOIN2,
    SYS_LEAVE,
    SYS_RECONFIG,
    SYSTEM_OP_PREFIX,
    WireMemo,
    message,
)
from repro.pbft.wire import blob, enum, layout, raw, seq, text, u16, u32

# Replica-reconfiguration actions (ordered system ops; see
# repro.pbft.reconfig).  The group stays 3f+1 *slots*; a reconfiguration
# fills a vacant slot, vacates one, or replaces a slot's incarnation.
RECONFIG_JOIN = 1
RECONFIG_LEAVE = 2
RECONFIG_REPLACE = 3

# Join replies are b"JOINED" + 8-byte external id.
REPLY_PREFIX_LEN = 6


@message
class JoinPhase1(WireMemo):
    """Phase 1: announce address, public key, nonce, and await a challenge."""

    TAG = 20
    SENDER_KIND = "client"
    SENDER_FIELD = "temp_client"
    PLAIN = True

    temp_client: int
    pubkey_n: bytes  # Rabin modulus, big-endian
    nonce: bytes
    host: str
    port: int

    LAYOUT = layout(TAG, temp_client=u32, pubkey_n=blob, nonce=blob, host=text, port=u16)


@message
class JoinChallenge(WireMemo):
    """A replica's challenge, sent to the claimed address.

    The challenge is computed deterministically from the join data, so
    every correct replica issues the same one and phase 2 can be validated
    identically group-wide.
    """

    TAG = 21
    PLAIN = True

    temp_client: int
    challenge: bytes
    sender: int

    LAYOUT = layout(TAG, sender=u16, temp_client=u32, challenge=DIGEST)


def compute_challenge(pubkey_n: bytes, nonce: bytes, epoch: int = 0) -> bytes:
    """The deterministic challenge every correct replica derives."""
    return md5_digest(b"join-challenge:" + pubkey_n + nonce + epoch.to_bytes(8, "big"))


def compute_response(challenge: bytes, nonce: bytes) -> bytes:
    """The phase-2 response; requires having received the challenge."""
    return md5_digest(b"join-response:" + challenge + nonce)


@message
class Join2Payload:
    """The system-op payload of a phase-2 join request."""

    temp_client: int
    pubkey_n: bytes
    nonce: bytes
    response: bytes
    idbuf: bytes  # application-level identification buffer
    session_keys: tuple[tuple[int, bytes], ...]  # (replica, key) "encrypted"
    host: str
    port: int

    LAYOUT = layout(
        SYSTEM_OP_PREFIX, SYS_JOIN2, temp_client=u32, pubkey_n=blob, nonce=blob,
        response=DIGEST, idbuf=blob, session_keys=seq(u16, raw(16)), host=text, port=u16,
    )


def encode_leave_op() -> bytes:
    return bytes([SYSTEM_OP_PREFIX, SYS_LEAVE])


@message
class ReconfigPayload:
    """The system-op payload of a replica-reconfiguration request.

    ``incarnation`` disambiguates successive occupants of the same slot:
    a replace bumps it, and the epoch gate rejects agreement traffic from
    the slot's previous incarnation afterwards.
    """

    action: int  # RECONFIG_JOIN | RECONFIG_LEAVE | RECONFIG_REPLACE
    slot: int
    incarnation: int

    LAYOUT = layout(
        SYSTEM_OP_PREFIX, SYS_RECONFIG,
        action=enum(RECONFIG_JOIN, RECONFIG_LEAVE, RECONFIG_REPLACE), slot=u16, incarnation=u32,
    )


def encode_reconfig_op(action: int, slot: int, incarnation: int = 0) -> bytes:
    return ReconfigPayload(action=action, slot=slot, incarnation=incarnation).encode()


def system_op_kind(op: bytes) -> int | None:
    """Return SYS_JOIN2/SYS_LEAVE/SYS_RECONFIG for a system op, else None."""
    if len(op) >= 2 and op[0] == SYSTEM_OP_PREFIX:
        return op[1]
    return None
