"""Membership wire messages and the system-operation payloads.

Phase 1 of the join and the challenge are plain transport-level messages
(there is nothing to order yet).  Phase 2 and Leave are *system requests*:
their payloads are packed into a normal :class:`repro.pbft.messages.Request`
op whose first byte is :data:`repro.pbft.messages.SYSTEM_OP_PREFIX`, giving
them the same total order as every application request.
"""

from __future__ import annotations

from repro.common.errors import ProtocolError
from repro.crypto.digests import DIGEST_SIZE, md5_digest
from repro.pbft.messages import (  # noqa: F401  (SYS_* re-exported)
    SYS_JOIN2,
    SYS_LEAVE,
    SYS_RECONFIG,
    SYSTEM_OP_PREFIX,
    WireMemo,
    message,
)
from repro.pbft.wire import Decoder, Encoder

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

    temp_client: int
    pubkey_n: bytes  # Rabin modulus, big-endian
    nonce: bytes
    host: str
    port: int

    def encode(self) -> bytes:
        return (
            Encoder()
            .u8(self.TAG)
            .u32(self.temp_client)
            .blob(self.pubkey_n)
            .blob(self.nonce)
            .blob(self.host.encode())
            .u16(self.port)
            .finish()
        )

    @classmethod
    def decode(cls, dec: Decoder) -> "JoinPhase1":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a JoinPhase1")
        return cls(
            temp_client=dec.u32(),
            pubkey_n=dec.blob(),
            nonce=dec.blob(),
            host=dec.blob().decode(),
            port=dec.u16(),
        )

    def body_size(self) -> int:
        return (
            1 + 4 + (4 + len(self.pubkey_n)) + (4 + len(self.nonce))
            + (4 + len(self.host.encode())) + 2
        )


@message
class JoinChallenge(WireMemo):
    """A replica's challenge, sent to the claimed address.

    The challenge is computed deterministically from the join data, so
    every correct replica issues the same one and phase 2 can be validated
    identically group-wide.
    """

    TAG = 21

    temp_client: int
    challenge: bytes
    sender: int

    def encode(self) -> bytes:
        return (
            Encoder()
            .u8(self.TAG)
            .u16(self.sender)
            .u32(self.temp_client)
            .raw(self.challenge)
            .finish()
        )

    @classmethod
    def decode(cls, dec: Decoder) -> "JoinChallenge":
        if dec.u8() != cls.TAG:
            raise ProtocolError("not a JoinChallenge")
        return cls(
            sender=dec.u16(), temp_client=dec.u32(), challenge=dec.raw(DIGEST_SIZE)
        )

    def body_size(self) -> int:
        return 1 + 2 + 4 + DIGEST_SIZE


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

    def encode_op(self) -> bytes:
        enc = Encoder().u8(SYSTEM_OP_PREFIX).u8(SYS_JOIN2)
        enc.u32(self.temp_client)
        enc.blob(self.pubkey_n)
        enc.blob(self.nonce)
        enc.raw(self.response)
        enc.blob(self.idbuf)
        enc.sequence(self.session_keys, lambda e, rk: e.u16(rk[0]).raw(rk[1]))
        enc.blob(self.host.encode())
        enc.u16(self.port)
        return enc.finish()

    @classmethod
    def decode_op(cls, op: bytes) -> "Join2Payload":
        dec = Decoder(op)
        if dec.u8() != SYSTEM_OP_PREFIX or dec.u8() != SYS_JOIN2:
            raise ProtocolError("not a Join2 system op")
        return cls(
            temp_client=dec.u32(),
            pubkey_n=dec.blob(),
            nonce=dec.blob(),
            response=dec.raw(DIGEST_SIZE),
            idbuf=dec.blob(),
            session_keys=tuple(dec.sequence(lambda d: (d.u16(), d.raw(16)))),
            host=dec.blob().decode(),
            port=dec.u16(),
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

    def encode_op(self) -> bytes:
        return (
            Encoder()
            .u8(SYSTEM_OP_PREFIX)
            .u8(SYS_RECONFIG)
            .u8(self.action)
            .u16(self.slot)
            .u32(self.incarnation)
            .finish()
        )

    @classmethod
    def decode_op(cls, op: bytes) -> "ReconfigPayload":
        dec = Decoder(op)
        if dec.u8() != SYSTEM_OP_PREFIX or dec.u8() != SYS_RECONFIG:
            raise ProtocolError("not a Reconfig system op")
        action = dec.u8()
        if action not in (RECONFIG_JOIN, RECONFIG_LEAVE, RECONFIG_REPLACE):
            raise ProtocolError(f"unknown reconfig action {action}")
        return cls(action=action, slot=dec.u16(), incarnation=dec.u32())


def encode_reconfig_op(action: int, slot: int, incarnation: int = 0) -> bytes:
    return ReconfigPayload(
        action=action, slot=slot, incarnation=incarnation
    ).encode_op()


def system_op_kind(op: bytes) -> int | None:
    """Return SYS_JOIN2/SYS_LEAVE/SYS_RECONFIG for a system op, else None."""
    if len(op) >= 2 and op[0] == SYSTEM_OP_PREFIX:
        return op[1]
    return None
