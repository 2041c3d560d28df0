"""Client-side join/leave flows (paper section 3.1, Figure 2).

The join sequence reproduced here is exactly the paper's UML diagram:

1. the client multicasts its address, public key and a nonce (phase 1);
2. each replica answers with a deterministic challenge, sent to the
   *claimed* address;
3. after f+1 matching challenges the client computes the response and
   submits phase 2 as a *system request*, which is totally ordered with
   all other requests and executed by the middleware on every replica;
4. the reply carries the newly assigned client identifier, under which all
   further requests are authenticated with the session keys shipped in
   phase 2.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import ProtocolError
from repro.membership.messages import (
    Join2Payload,
    JoinChallenge,
    JoinPhase1,
    REPLY_PREFIX_LEN,
    compute_response,
    encode_leave_op,
)
from repro.pbft.client import PbftClient, PendingOp
from repro.pbft.messages import Request
from repro.pbft.node import replica_address


class JoinState:
    """Tracks one client's in-progress join."""

    def __init__(
        self,
        client: PbftClient,
        idbuf: bytes,
        rng,
        callback: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.client = client
        self.idbuf = idbuf
        self.callback = callback
        self.nonce = bytes(rng.randrange(256) for _ in range(16))
        self.challenges: dict[bytes, set[int]] = {}
        self.phase2_sent = False
        self.completed = False
        self.timer = None

    # -- phase 1 -------------------------------------------------------------------

    def start(self) -> None:
        self.client.join_state = self
        self._send_phase1()

    def _phase1_msg(self) -> JoinPhase1:
        pair = self.client.keys.client_keys[self.client.node_id]
        host, port = self.client.socket.address
        bits = pair.public.n.bit_length()
        return JoinPhase1(
            temp_client=self.client.node_id,
            pubkey_n=pair.public.n.to_bytes((bits + 7) // 8, "big"),
            nonce=self.nonce,
            host=host,
            port=port,
        )

    def _send_phase1(self) -> None:
        msg = self._phase1_msg()
        for rid in range(self.client.config.n):
            # Self-certifying: the public key rides in the message itself,
            # and address ownership is what the challenge round proves.
            self.client.send_plain(replica_address(rid, self.client.group_prefix), msg)
        self.timer = self.client.host.sim.schedule(
            self.client.config.client_retransmit_ns, self._on_timeout
        )

    def _on_timeout(self) -> None:
        if self.completed or self.phase2_sent:
            return
        self._send_phase1()

    # -- challenge collection ------------------------------------------------------------

    def dispatch(self, env) -> None:
        if isinstance(env.msg, JoinChallenge):
            self.on_challenge(env.msg)

    def on_challenge(self, msg: JoinChallenge) -> None:
        if self.phase2_sent or msg.temp_client != self.client.node_id:
            return
        voters = self.challenges.setdefault(msg.challenge, set())
        voters.add(msg.sender)
        if len(voters) >= self.client.config.weak_quorum:
            self._send_phase2(msg.challenge)

    # -- phase 2 ---------------------------------------------------------------------------

    def _send_phase2(self, challenge: bytes) -> None:
        self.phase2_sent = True
        if self.timer is not None:
            self.timer.cancel()
        client = self.client
        phase1 = self._phase1_msg()
        payload = Join2Payload(
            temp_client=client.node_id,
            pubkey_n=phase1.pubkey_n,
            nonce=self.nonce,
            response=compute_response(challenge, self.nonce),
            idbuf=self.idbuf,
            session_keys=tuple(
                (rid, key.key)
                for (kind, rid), key in sorted(client.session_keys.items())
                if kind == "replica"
            ),
            host=phase1.host,
            port=phase1.port,
        )
        client.next_req_id += 1
        request = Request(
            client=client.node_id,
            req_id=client.next_req_id,
            op=payload.encode(),
            big=True,  # joins are always multicast to the whole group
        )
        client.pending = PendingOp(
            request=request,
            callback=self._on_join_reply,
            sent_at=client.host.sim.now,
            signed=True,
        )
        client._transmit(first=True)

    def _on_join_reply(self, result: bytes, latency: int) -> None:
        self.completed = True
        self.client.join_state = None
        if not result.startswith(b"JOINED"):
            raise ProtocolError(f"join refused: {result!r}")
        external_id = int.from_bytes(result[REPLY_PREFIX_LEN:], "big")
        # Keep signing material reachable under the service-assigned id.
        pair = self.client.keys.client_keys.get(self.client.node_id)
        if pair is not None:
            self.client.keys.client_keys[external_id] = pair
        self.client.node_id = external_id
        self.client.joined = True
        if self.callback is not None:
            self.callback(external_id)


def join_client(
    client: PbftClient,
    idbuf: bytes,
    rng,
    callback: Optional[Callable[[int], None]] = None,
) -> JoinState:
    """Begin the two-phase join for ``client``; returns the join tracker."""
    state = JoinState(client, idbuf, rng, callback)
    state.start()
    return state


def leave_client(
    client: PbftClient, callback: Optional[Callable[[bytes, int], None]] = None
) -> None:
    """Submit a Leave system request; the session ends when it executes."""
    client.invoke(encode_leave_op(), callback=callback)
