"""Shared machinery for replicas and clients: keys, envelopes, send paths.

Authentication modes mirror the original implementation (paper section
2.1):

* ``use_macs=True`` — messages to the replica group carry an
  *authenticator* (one MAC per replica); point-to-point messages carry a
  single MAC tag.  Cheap, but session keys are transient — the root cause
  of the erratic recovery of section 2.3.
* ``use_macs=False`` — every message carries a Rabin signature.  Slow
  (Table 1's robust rows), but recovery works from public keys alone.

The simulator charges the cost model for every generate/verify; when
``real_crypto`` is on, the tags and signatures are also actually computed
and checked, so corruption genuinely fails.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ConfigError
from repro.crypto.authenticators import Authenticator, MacCache
from repro.crypto.mac import MacKey
from repro.crypto.rabin import (
    RabinKeyPair,
    RabinPublicKey,
    RabinSignature,
    rabin_generate,
    rabin_sign,
    rabin_verify,
)
from repro.net.fabric import Address, DatagramSocket, Host, Packet
from repro.pbft.config import PbftConfig

REPLICA_PORT = 5000
CLIENT_PORT = 6000

AUTH_NONE = 0
AUTH_MAC = 1
AUTH_VECTOR = 2  # authenticator: one MAC per replica
AUTH_SIG = 3

# Wire size charged for a signature that was never computed (stub crypto):
# 2 salt bytes + a 512-bit root.  A modelled size, not a measured one — a
# real signature under the default 256-bit key takes 34 — and every
# stub-crypto run that sends a signed message pins its value.
STUB_SIGNATURE_SIZE = 66


def _receive_cost(costs, wire_size: int, auth_kind: int) -> int:
    """Simulated CPU a receiver spends before it can dispatch a message."""
    if auth_kind == AUTH_SIG:
        verify = costs.crypto.verify_ns
    elif auth_kind == AUTH_NONE:
        verify = 0
    else:
        verify = costs.crypto.mac_ns
    return costs.msg_recv_ns + costs.bytes_cost(wire_size) + verify


class Envelope:
    """A message plus its authentication trailer.

    Envelopes are immutable once sent (the same object flows by reference
    to every destination), so everything the per-datagram lane needs is
    computed once, here: the wire ``size``, the ``sender`` key receivers
    look session keys up by, and — when the sender passes its cost model —
    the ``recv_cost`` every receiver sharing that model charges (receivers
    with another model, as in multi-config deployments, compute their own).
    """

    __slots__ = (
        "msg", "auth_kind", "auth", "sender_kind", "sender_id", "sender_epoch",
        "sender", "size", "recv_cost", "cost_model",
    )

    def __init__(
        self,
        msg,
        auth_kind: int,
        auth: object,  # bytes tag | Authenticator | RabinSignature | None
        sender_kind: str,  # "replica" | "client"
        sender_id: int,
        # The sender's configuration epoch (repro.pbft.reconfig).  Stamped
        # on every send; receivers gate replica agreement traffic on it so
        # a reconfigured-away incarnation is rejected loudly.  Clients
        # always send 0 — their requests are ordered, not epoch-bound.
        sender_epoch: int = 0,
        costs=None,
    ) -> None:
        self.msg = msg
        self.auth_kind = auth_kind
        self.auth = auth
        self.sender_kind = sender_kind
        self.sender_id = sender_id
        self.sender_epoch = sender_epoch
        self.sender = (sender_kind, sender_id)
        wire_size = msg.wire_size
        size = wire_size + 4  # 4-byte trailer header
        if auth_kind == AUTH_MAC:
            size += 4
        elif auth_kind == AUTH_VECTOR:
            size += auth.size
        elif auth_kind == AUTH_SIG:
            size += auth.size_bytes if auth is not None else STUB_SIGNATURE_SIZE
        self.size = size
        self.cost_model = costs
        self.recv_cost = (
            _receive_cost(costs, wire_size, auth_kind) if costs is not None else 0
        )

    def __repr__(self) -> str:
        return (
            f"Envelope({self.msg!r}, auth_kind={self.auth_kind}, "
            f"sender={self.sender_kind}{self.sender_id}, epoch={self.sender_epoch})"
        )


class KeyDirectory:
    """All long-lived key material for one deployment.

    Public keys are a priori knowledge in PBFT's static-membership model;
    with the dynamic extension, clients only need the *replica* public
    keys (paper section 3.1).
    """

    def __init__(self, config: PbftConfig, rng) -> None:
        self.config = config
        bits = config.signature_key_bits
        self.replica_keys: dict[int, RabinKeyPair] = {
            rid: rabin_generate(rng, bits) for rid in range(config.n)
        }
        self.client_keys: dict[int, RabinKeyPair] = {}
        # Pairwise replica-replica session keys (stable per deployment).
        self.replica_session: dict[frozenset[int], MacKey] = {}
        for i in range(config.n):
            for j in range(i + 1, config.n):
                self.replica_session[frozenset((i, j))] = MacKey.generate(rng)
        self._rng = rng
        # One MAC memo per deployment: every node shares it, so the tag a
        # sender computed is already cached when the receiver verifies.
        self.mac_cache = MacCache()

    def new_client_keypair(self, client_id: int) -> RabinKeyPair:
        pair = rabin_generate(self._rng, self.config.signature_key_bits)
        self.client_keys[client_id] = pair
        return pair

    def replica_public(self, rid: int) -> Optional[RabinPublicKey]:
        """None for an id outside the group (a sender can claim any)."""
        pair = self.replica_keys.get(rid)
        return pair.public if pair else None

    def client_public(self, client_id: int) -> Optional[RabinPublicKey]:
        pair = self.client_keys.get(client_id)
        return pair.public if pair else None

    def replica_pair_key(self, a: int, b: int) -> Optional[MacKey]:
        """None unless ``a`` and ``b`` are two replicas of the group."""
        return self.replica_session.get(frozenset((a, b)))

    def refresh_slot(self, rid: int) -> None:
        """Regenerate one replica slot's key material (proactive recovery
        or slot replacement).  The directory plays the PKI: peers re-derive
        the new pairwise keys from here, while the slot's old incarnation
        keeps only stale copies."""
        self.replica_keys[rid] = rabin_generate(self._rng, self.config.signature_key_bits)
        for other in range(self.config.n):
            if other != rid:
                self.replica_session[frozenset((rid, other))] = MacKey.generate(self._rng)


def replica_address(rid: int, prefix: str = "") -> Address:
    return (f"{prefix}replica{rid}", REPLICA_PORT)


class Node:
    """Base class: a socket plus authenticated, cost-accounted send/verify."""

    def __init__(
        self,
        config: PbftConfig,
        host: Host,
        port: int,
        keys: KeyDirectory,
        kind: str,
        node_id: int,
        real_crypto: bool = True,
        obs=None,
    ) -> None:
        from repro.obs import Observability

        config.validate()
        self.config = config
        self.n = config.n  # group size; a node's config never changes
        self.costs = config.costs
        self.host = host
        self.keys = keys
        self.kind = kind
        self.node_id = node_id
        self.group_prefix = config.group_prefix
        self.real_crypto = real_crypto
        # Shared observability (metrics registry + tracer).  A private
        # registry and disabled tracer are created when none is supplied,
        # so standalone nodes keep working and pay nothing for tracing.
        self.obs = obs if obs is not None else Observability()
        self.obs.attach_clock(lambda: host.sim.now)
        self.tracer = self.obs.tracer
        self.socket: DatagramSocket = host.fabric.bind(host.name, port)
        self.socket.on_receive(self._on_packet)
        # Session keys for MAC mode, keyed by (peer kind, peer id).
        self.session_keys: dict[tuple[str, int], MacKey] = {}
        # Replica-group key map memo for broadcasts; invalidated whenever
        # session keys change (install/drop).
        self._group_keys: Optional[dict[int, MacKey]] = None
        # excluded id -> addresses for full-group broadcasts; replica
        # addresses are a pure function of the id.
        self._dests_memo: dict[int | None, tuple[Address, ...]] = {}
        # Replicas point this at their admission penalty box; while it has
        # entries, ``_penalized`` may shed a packet before verification.
        self.penalty = None
        self.auth_failures = 0
        self.messages_handled = 0
        # (message, key, signature) of the last signature computed: a
        # message unicast to every replica is signed once, not n times.
        self._last_signed: tuple = (None, None, None)
        # Fault injection: a muted node receives and processes messages but
        # sends nothing — a live process behind a dead NIC.  Muting the
        # primary models the paper's silent-primary failure, which only
        # client retransmissions and view changes can detect.
        self.muted = False
        self.messages_muted = 0
        # Configuration epoch stamped on every outgoing envelope; replicas
        # keep it in sync with their ReconfigManager, clients stay at 0.
        self.current_epoch = 0

    # -- key management -------------------------------------------------------

    def install_session_key(self, peer_kind: str, peer_id: int, key: MacKey) -> None:
        self.session_keys[(peer_kind, peer_id)] = key
        self._group_keys = None

    def drop_session_keys(self, peer_kind: str | None = None) -> None:
        """Forget session keys (restart); replica-replica keys re-derive
        from static configuration, client keys do not (section 2.3)."""
        self._group_keys = None
        if peer_kind is None:
            self.session_keys.clear()
            return
        for key in [k for k in self.session_keys if k[0] == peer_kind]:
            del self.session_keys[key]

    def _own_signing_key(self) -> RabinKeyPair:
        if self.kind == "replica":
            return self.keys.replica_keys[self.node_id]
        pair = self.keys.client_keys.get(self.node_id)
        if pair is None:
            raise ConfigError(f"client {self.node_id} has no signing key")
        return pair

    # -- send paths ------------------------------------------------------------

    def _post(self, dsts, msg, auth_kind: int, auth, kind: str) -> None:
        """Seal ``msg`` in one envelope and put a copy out per destination."""
        env = Envelope(
            msg, auth_kind, auth, self.kind, self.node_id, self.current_epoch, self.costs
        )
        self.socket.multicast(dsts, env, env.size, kind or msg.KIND)

    def _sign(self, msg) -> Optional[RabinSignature]:
        """The signature over ``msg``; callers charge ``sign_ns`` per send.

        Messages are frozen and a signature is a pure function of key and
        bytes, so signing the same message object again under the same key
        object returns the signature already made — identity, not equality,
        so the check costs nothing and a refreshed key signs afresh.
        """
        if not self.real_crypto:
            return None
        key = self._own_signing_key()
        last_msg, last_key, signature = self._last_signed
        if msg is not last_msg or key is not last_key:
            signature = rabin_sign(key, msg.auth_bytes())
            self._last_signed = (msg, key, signature)
        return signature

    def send_signed(self, dst: Address, msg, kind: str = "") -> None:
        """Sign with our private key and send (expensive)."""
        if self.muted:
            self.messages_muted += 1
            return
        self.host.charge_cpu(self._marshal_cost(msg) + self.costs.crypto.sign_ns)
        self._post((dst,), msg, AUTH_SIG, self._sign(msg), kind)

    def send_mac(self, dst: Address, peer_kind: str, peer_id: int, msg, kind: str = "") -> None:
        """Authenticate with the pairwise session key and send (cheap)."""
        if self.muted:
            self.messages_muted += 1
            return
        self.host.charge_cpu(self._marshal_cost(msg) + self.costs.crypto.mac_ns)
        key = self._session_key_for(peer_kind, peer_id)
        tag = (
            self.keys.mac_cache.tag(key, msg.auth_bytes())
            if (self.real_crypto and key)
            else b"\0\0\0\0"
        )
        self._post((dst,), msg, AUTH_MAC, tag, kind)

    def send_plain(self, dst: Address, msg, kind: str = "") -> None:
        """Unauthenticated send (join phase 1, challenges)."""
        if self.muted:
            self.messages_muted += 1
            return
        self.host.charge_cpu(self._marshal_cost(msg))
        self._post((dst,), msg, AUTH_NONE, None, kind)

    def broadcast_to_replicas(
        self,
        msg,
        kind: str = "",
        exclude: int | None = None,
        only: list[int] | None = None,
    ) -> None:
        """Send to replicas with the configured authentication mode.

        In MAC mode this builds ONE authenticator covering every replica we
        share a session key with (even when unicasting to the primary only,
        so the message stays verifiable group-wide) and reuses it for each
        unicast — the optimization that makes multicast cheap and that
        section 2.3 shows complicates recovery.  Marshalling CPU is charged
        per destination: each datagram is a separate copy out of the NIC.
        """
        if self.muted:
            self.messages_muted += 1
            return
        if only is None:
            dests = self._dests_memo.get(exclude)
            if dests is None:
                dests = self._dests_memo[exclude] = tuple(
                    replica_address(rid, self.group_prefix)
                    for rid in range(self.n)
                    if rid != exclude
                )
        else:
            dests = [
                replica_address(rid, self.group_prefix) for rid in only if rid != exclude
            ]
        if not dests:
            return
        marshal = self._marshal_cost(msg) * len(dests)
        if self.config.use_macs:
            known = self._replica_group_keys()
            self.host.charge_cpu(marshal + self.costs.crypto.authenticator_cost(len(known)))
            auth = (
                self.keys.mac_cache.authenticator(known, msg.auth_bytes())
                if self.real_crypto
                else Authenticator({rid: b"\0\0\0\0" for rid in known})
            )
            self._post(dests, msg, AUTH_VECTOR, auth, kind)
        else:
            self.host.charge_cpu(marshal + self.costs.crypto.sign_ns)
            self._post(dests, msg, AUTH_SIG, self._sign(msg), kind)

    def _replica_group_keys(self) -> dict[int, MacKey]:
        """Session keys we hold for every replica in the group, memoized.

        The dict's contents only change when session keys are installed or
        dropped, and every such path (``install_session_key``,
        ``drop_session_keys``, ``reconfig.refresh_replica_keys``) resets
        ``_group_keys`` to ``None``.
        """
        known = self._group_keys
        if known is not None:
            return known
        exclude_self = self.node_id if self.kind == "replica" else -1
        known = {}
        for rid in range(self.n):
            if rid == exclude_self:
                continue
            key = self._session_key_for("replica", rid)
            if key is not None:
                known[rid] = key
        self._group_keys = known
        return known

    def _marshal_cost(self, msg) -> int:
        return self.costs.msg_send_ns + self.costs.bytes_cost(msg.wire_size)

    def _session_key_for(self, peer_kind: str, peer_id: int) -> Optional[MacKey]:
        key = self.session_keys.get((peer_kind, peer_id))
        if key is not None:
            return key
        # Replica-replica keys come from static configuration.
        if (
            self.kind == "replica"
            and peer_kind == "replica"
            and peer_id != self.node_id
        ):
            key = self.keys.replica_pair_key(self.node_id, peer_id)
            if key is not None:
                self.session_keys[(peer_kind, peer_id)] = key
            return key
        return None

    # -- receive path ------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        env = packet.payload
        if not isinstance(env, Envelope):
            return
        penalty = self.penalty
        if penalty is not None and penalty.entries and self._penalized(env):
            return
        if env.cost_model is self.costs:
            cost = env.recv_cost
        else:
            cost = _receive_cost(self.costs, env.msg.wire_size, env.auth_kind)
        self.host.execute(cost, self._verified_dispatch, env)

    def _verified_dispatch(self, env: Envelope) -> None:
        if not self.verify_envelope(env):
            self.auth_failures += 1
            self.on_auth_failure(env)
            return
        self.messages_handled += 1
        self.dispatch(env)

    def verify_envelope(self, env: Envelope) -> bool:
        """Check that the message speaks for the envelope's principal and
        the envelope's authentication trailer against our keys.

        ``auth_bytes()`` is only materialized on the branches that hash it
        — with fake crypto (the harness default) no verification receives
        bytes at all.
        """
        msg = env.msg
        if (
            env.sender_kind != msg.SENDER_KIND
            or getattr(msg, msg.SENDER_FIELD) != env.sender_id
        ):
            # The body names another principal than the one the trailer
            # authenticates: handlers trust the body's sender/client field.
            return False
        auth_kind = env.auth_kind
        if auth_kind == AUTH_NONE:
            # The join handshake, and only towards the other side.
            return msg.PLAIN and msg.SENDER_KIND != self.kind
        if auth_kind == AUTH_SIG:
            key = self._public_key_of(env.sender_kind, env.sender_id)
            if key is None:
                return False
        else:
            key = self.session_keys.get(env.sender)
            if key is None:
                key = self._session_key_for(env.sender_kind, env.sender_id)
                if key is None:
                    # No session key for this peer: exactly the restarted-replica
                    # condition of paper section 2.3.
                    return False
        if not self.real_crypto:
            return True
        data = msg.auth_bytes()
        try:
            if auth_kind == AUTH_VECTOR:
                return self.keys.mac_cache.verify_authenticator(
                    key, self.node_id, data, env.auth
                )
            if auth_kind == AUTH_MAC:
                return self.keys.mac_cache.verify(key, data, env.auth)
            return rabin_verify(key, data, env.auth)
        except (AttributeError, TypeError):
            # The trailer is not of the shape its auth_kind promises (no
            # trailer at all, a tag where a signature belongs): a sender
            # can put anything there, so that is a failed check.
            return False

    def _public_key_of(self, kind: str, node_id: int) -> Optional[RabinPublicKey]:
        if kind == "replica":
            return self.keys.replica_public(node_id)
        return self.keys.client_public(node_id)

    # -- subclass hooks ---------------------------------------------------------

    def dispatch(self, env: Envelope) -> None:
        raise NotImplementedError

    def on_auth_failure(self, env: Envelope) -> None:
        """Called when a message fails authentication (default: drop)."""

    def _penalized(self, env: Envelope) -> bool:
        """Whether to drop ``env`` unverified (only asked with a penalty box)."""
        return False
