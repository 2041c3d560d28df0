"""The replica-side membership manager.

Owns the client table and the redirection table, executes Join/Leave
system requests deterministically, and persists the table into the
*library partition* of the shared state region so membership state is
checkpointed, transferred, and rolled back with everything else — the
paper's requirement that "the replicas need to identify each client in an
identical (deterministic) manner ... this leads us to store the client
identifiers in the shared state of the service."
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ProtocolError
from repro.crypto.mac import MacKey
from repro.crypto.rabin import RabinPublicKey
from repro.membership.messages import (
    Join2Payload,
    JoinChallenge,
    JoinPhase1,
    SYS_JOIN2,
    SYS_LEAVE,
    SYS_RECONFIG,
    compute_challenge,
    compute_response,
    system_op_kind,
)
from repro.pbft.wire import decode_exact

# Fixed-size slot layout inside the library partition, so per-request
# activity timestamps update in place without rewriting the whole table.
_HEADER = struct.Struct(">IQI")  # magic, next_external_id, entry_count
_MAGIC = 0x4D454D42  # "MEMB"
_ENTRY = struct.Struct(">BIqq16sH64sB")
# in_use, external_id, principal, last_active, host(16), port, pubkey(64), keylen
_ENTRY_SIZE = _ENTRY.size

EXTERNAL_ID_BASE = 50_000

REPLY_JOINED = b"JOINED"
REPLY_DENIED = b"DENIED"
REPLY_FULL = b"FULL"
REPLY_LEFT = b"LEFT"


@dataclass
class ClientEntry:
    slot: int
    external_id: int
    principal: int
    last_active: int
    host: str
    port: int
    pubkey_n: bytes


class MembershipManager:
    """Dynamic client management for one replica (paper section 3.1)."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.config = replica.config
        self.table: dict[int, ClientEntry] = {}  # external id -> entry
        self.redirection: dict[int, int] = {}  # external id -> slot
        self.by_principal: dict[int, int] = {}  # principal -> external id
        self.free_slots: list[int] = list(range(self.config.max_node_entries))
        self.next_external = EXTERNAL_ID_BASE
        self.pending_joins: dict[int, JoinPhase1] = {}  # temp id -> phase 1
        # Addresses of recently departed clients, kept just long enough to
        # deliver the Leave acknowledgement.
        self.recently_left: dict[int, tuple[str, int]] = {}
        self.stats = replica.stats
        self._persist_header()
        # The section 3.3.2 extension: per-session state slots, placed in
        # the library partition right after the client table.
        from repro.membership.sessions import SessionStateManager

        table_end = self._slot_offset(self.config.max_node_entries)
        self.session_state = SessionStateManager(replica, base_offset=table_end)

    # -- request admission (the redirection-table check) -------------------------

    def admit_request(self, req) -> bool:
        """Cheap pre-check before signature work: is the sender known?

        "When a client request arrives, the system first checks to see if
        the identifier exists in the redirection table before going into
        the more lengthy process of verifying its signature."
        """
        kind = system_op_kind(req.op)
        if kind == SYS_JOIN2:
            return True  # joins are from not-yet-members by definition
        if kind == SYS_RECONFIG:
            # Replica reconfiguration is an operator action authenticated
            # like any request; it must not depend on the client table
            # (the operator may be a statically configured client).
            return True
        return req.client in self.redirection

    # -- phase 1 / challenge ------------------------------------------------------

    def dispatch(self, env) -> None:
        if isinstance(env.msg, JoinPhase1):
            self.on_join_phase1(env.msg)

    def on_join_phase1(self, msg: JoinPhase1) -> None:
        self.pending_joins[msg.temp_client] = msg
        challenge = compute_challenge(msg.pubkey_n, msg.nonce)
        reply = JoinChallenge(
            temp_client=msg.temp_client,
            challenge=challenge,
            sender=self.replica.node_id,
        )
        # Sent to the *claimed* address: only its true owner will ever see
        # the challenge, which is the anti-spoofing point of phase 1.
        self.replica.send_plain((msg.host, msg.port), reply)
        self.stats.inc("join_challenges_sent")

    # -- ordered execution ----------------------------------------------------------

    def execute_system(self, req, nondet_ts: int) -> bytes:
        """Execute one ordered Join2/Leave op.  The op is already ordered, so
        an undecodable payload or an unknown kind is answered — identically
        at every replica — not raised."""
        if system_op_kind(req.op) == SYS_LEAVE:
            return self._execute_leave(req)
        try:
            payload = decode_exact(Join2Payload, req.op)  # checks the kind byte too
        except ProtocolError:
            self.stats.inc("joins_malformed")
            return REPLY_DENIED
        return self._execute_join(payload, nondet_ts)

    def _execute_join(self, payload: Join2Payload, nondet_ts: int) -> bytes:
        challenge = compute_challenge(payload.pubkey_n, payload.nonce)
        if payload.response != compute_response(challenge, payload.nonce):
            self.stats.inc("joins_denied")
            return REPLY_DENIED
        principal = self.replica.app.authorize_join(payload.idbuf)
        if principal is None:
            self.stats.inc("joins_denied")
            return REPLY_DENIED
        if not self.free_slots:
            self._collect_stale_sessions(nondet_ts)
        if not self.free_slots:
            self.stats.inc("joins_denied_full")
            return REPLY_FULL
        # Single live session per principal: terminate any previous one.
        previous = self.by_principal.get(principal)
        if previous is not None:
            self._remove_client(previous)
            self.stats.inc("sessions_terminated")
        slot = self.free_slots.pop(0)
        external_id = self.next_external
        self.next_external += 1
        entry = ClientEntry(
            slot=slot,
            external_id=external_id,
            principal=principal,
            last_active=nondet_ts,
            host=payload.host,
            port=payload.port,
            pubkey_n=payload.pubkey_n,
        )
        self.table[external_id] = entry
        self.redirection[external_id] = slot
        self.by_principal[principal] = external_id
        for rid, key_bytes in payload.session_keys:
            if rid == self.replica.node_id:
                key = MacKey(key_bytes)
                self.replica.install_session_key("client", external_id, key)
                # The join *reply* still addresses the temporary id, so the
                # session key must be reachable under it too.
                self.replica.install_session_key("client", payload.temp_client, key)
        # Keep the pending record so the reply can be addressed/verified
        # under the temporary id; bound the dict against join floods.
        if len(self.pending_joins) > 4 * self.config.max_node_entries:
            oldest = next(iter(self.pending_joins))
            del self.pending_joins[oldest]
        self._persist_entry(entry)
        self._persist_header()
        self.stats.inc("joins_completed")
        return REPLY_JOINED + external_id.to_bytes(8, "big")

    def _execute_leave(self, req) -> bytes:
        if req.client in self.table:
            self._remove_client(req.client, keep_session_for_reply=True)
            self.stats.inc("leaves_completed")
        return REPLY_LEFT

    def _remove_client(self, external_id: int, keep_session_for_reply: bool = False) -> None:
        entry = self.table.pop(external_id, None)
        if entry is None:
            return
        self.redirection.pop(external_id, None)
        if self.by_principal.get(entry.principal) == external_id:
            del self.by_principal[entry.principal]
        self.free_slots.append(entry.slot)
        self.free_slots.sort()
        if keep_session_for_reply:
            # The Leave acknowledgement still has to reach the departing
            # client; the redirection table already blocks anything else.
            self.recently_left[external_id] = (entry.host, entry.port)
            if len(self.recently_left) > self.config.max_node_entries:
                self.recently_left.pop(next(iter(self.recently_left)))
        else:
            self.replica.session_keys.pop(("client", external_id), None)
        self.replica.reqstore.forget_client(external_id)
        self._erase_slot(entry.slot)
        self.session_state.wipe_slot(entry.slot)
        self._persist_header()

    def _collect_stale_sessions(self, now_ts: int) -> None:
        """Evict sessions idle longer than the configured threshold."""
        threshold = now_ts - self.config.session_stale_ns
        stale = [
            ext for ext, entry in self.table.items() if entry.last_active < threshold
        ]
        for ext in sorted(stale):
            self._remove_client(ext)
            self.stats.inc("stale_sessions_collected")

    # -- per-request bookkeeping -------------------------------------------------------

    def touch(self, client_id: int, nondet_ts: int) -> None:
        """Record request activity (primary-timestamped, so deterministic)."""
        entry = self.table.get(client_id)
        if entry is None or entry.last_active >= nondet_ts:
            return
        entry.last_active = nondet_ts
        # last_active sits after (in_use:1, external:4, principal:8).
        offset = self._slot_offset(entry.slot) + 1 + 4 + 8
        state = self.replica.state
        state.modify(offset, 8)
        state.write(offset, struct.pack(">q", nondet_ts))

    # -- lookups used by the replica --------------------------------------------------

    def client_public(self, client_id: int) -> Optional[RabinPublicKey]:
        entry = self.table.get(client_id)
        if entry is not None:
            return RabinPublicKey(int.from_bytes(entry.pubkey_n, "big"))
        pending = self.pending_joins.get(client_id)
        if pending is not None:
            return RabinPublicKey(int.from_bytes(pending.pubkey_n, "big"))
        return None

    def client_address(self, client_id: int):
        entry = self.table.get(client_id)
        if entry is not None:
            return (entry.host, entry.port)
        pending = self.pending_joins.get(client_id)
        if pending is not None:
            return (pending.host, pending.port)
        return self.recently_left.get(client_id)

    # -- persistence into the library partition ------------------------------------------

    def _slot_offset(self, slot: int) -> int:
        return _HEADER.size + slot * _ENTRY_SIZE

    def _persist_header(self) -> None:
        state = self.replica.state
        data = _HEADER.pack(_MAGIC, self.next_external, len(self.table))
        state.modify(0, _HEADER.size)
        state.write(0, data)

    def _persist_entry(self, entry: ClientEntry) -> None:
        state = self.replica.state
        host = entry.host.encode()[:16].ljust(16, b"\0")
        pubkey = entry.pubkey_n[:64].ljust(64, b"\0")
        data = _ENTRY.pack(
            1,
            entry.external_id,
            entry.principal,
            entry.last_active,
            host,
            entry.port,
            pubkey,
            len(entry.pubkey_n),
        )
        offset = self._slot_offset(entry.slot)
        state.modify(offset, _ENTRY_SIZE)
        state.write(offset, data)

    def _erase_slot(self, slot: int) -> None:
        state = self.replica.state
        offset = self._slot_offset(slot)
        state.modify(offset, _ENTRY_SIZE)
        state.write(offset, bytes(_ENTRY_SIZE))

    def reload_from_state(self) -> None:
        """Rebuild the in-memory tables from the library partition after a
        state transfer, rollback, or restart."""
        state = self.replica.state
        magic, next_external, _count = _HEADER.unpack(state.read(0, _HEADER.size))
        self.table.clear()
        self.redirection.clear()
        self.by_principal.clear()
        self.free_slots = []
        if magic != _MAGIC:
            # Fresh (all-zero) state: nothing persisted yet.
            self.next_external = EXTERNAL_ID_BASE
            self.free_slots = list(range(self.config.max_node_entries))
            self._persist_header()
            return
        self.next_external = next_external
        for slot in range(self.config.max_node_entries):
            raw = state.read(self._slot_offset(slot), _ENTRY_SIZE)
            in_use, external, principal, last_active, host, port, pubkey, keylen = (
                _ENTRY.unpack(raw)
            )
            if not in_use:
                self.free_slots.append(slot)
                continue
            entry = ClientEntry(
                slot=slot,
                external_id=external,
                principal=principal,
                last_active=last_active,
                host=host.rstrip(b"\0").decode(),
                port=port,
                pubkey_n=pubkey[:keylen],
            )
            self.table[external] = entry
            self.redirection[external] = slot
            self.by_principal[principal] = external
