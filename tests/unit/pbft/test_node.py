"""Node-level authentication paths (envelopes, keys, failure modes)."""

import pytest

from repro.crypto.rabin import RabinSignature
from repro.net.fabric import DropRule, NetworkFabric
from repro.pbft.config import PbftConfig
from repro.pbft.messages import StatusMsg
from repro.pbft.node import (
    AUTH_MAC,
    AUTH_NONE,
    AUTH_SIG,
    AUTH_VECTOR,
    Envelope,
    KeyDirectory,
    Node,
    replica_address,
)
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


class Collector(Node):
    """Node that records what passes verification."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def dispatch(self, env):
        self.received.append(env.msg)


@pytest.fixture()
def rig():
    sim = Simulator()
    rng = RngStreams(17)
    fabric = NetworkFabric(sim, rng)
    config = PbftConfig()
    for rid in range(config.n):
        fabric.add_host(f"replica{rid}")
    keys = KeyDirectory(config, rng.stream("keys"))
    nodes = [
        Collector(config, fabric.host(f"replica{rid}"), 5000, keys, "replica", rid)
        for rid in range(config.n)
    ]
    return sim, config, keys, nodes


def msg(sender=0):
    return StatusMsg(view=0, last_exec_seq=1, stable_seq=0, sender=sender, recovering=False)


def test_mac_send_verifies_at_peer(rig):
    sim, _config, _keys, nodes = rig
    nodes[0].send_mac(replica_address(1), "replica", 1, msg(0))
    sim.run()
    assert len(nodes[1].received) == 1
    assert nodes[1].auth_failures == 0


def test_signed_send_verifies_at_peer(rig):
    sim, _config, _keys, nodes = rig
    nodes[0].send_signed(replica_address(2), msg(0))
    sim.run()
    assert len(nodes[2].received) == 1


def test_broadcast_reaches_all_but_excluded(rig):
    sim, _config, _keys, nodes = rig
    nodes[0].broadcast_to_replicas(msg(0), exclude=0)
    sim.run()
    assert len(nodes[0].received) == 0
    for peer in nodes[1:]:
        assert len(peer.received) == 1


def test_broadcast_only_subset(rig):
    sim, _config, _keys, nodes = rig
    nodes[0].broadcast_to_replicas(msg(0), only=[2])
    sim.run()
    assert len(nodes[2].received) == 1
    assert len(nodes[1].received) == 0


def test_forged_signature_rejected(rig):
    sim, _config, keys, nodes = rig
    from repro.crypto.rabin import rabin_sign

    message = msg(0)
    # Signed with replica 3's key but claiming to be replica 0.
    sig = rabin_sign(keys.replica_keys[3], message.auth_bytes())
    env = Envelope(message, AUTH_SIG, sig, "replica", 0)
    nodes[0].socket.send(replica_address(1), env, env.size, "forged")
    sim.run()
    assert nodes[1].received == []
    assert nodes[1].auth_failures == 1


def test_mac_without_session_key_rejected(rig):
    """The paper section 2.3 condition: a replica without the sender's
    session key cannot validate MAC-authenticated traffic."""
    sim, _config, _keys, nodes = rig
    nodes[0].send_mac(replica_address(1), "replica", 1, msg(0))
    nodes[1].drop_session_keys()
    # Re-deriving replica-replica keys from static config succeeds, so use
    # a client-keyed envelope instead to model the missing-key case.
    env = Envelope(msg(0), AUTH_MAC, b"\0\0\0\0", "client", 4242)
    nodes[0].socket.send(replica_address(1), env, env.size, "client-msg")
    sim.run()
    assert nodes[1].auth_failures == 1


def test_replica_pair_keys_rederive_after_drop(rig):
    sim, _config, _keys, nodes = rig
    nodes[1].drop_session_keys("replica")
    nodes[0].send_mac(replica_address(1), "replica", 1, msg(0))
    sim.run()
    assert len(nodes[1].received) == 1  # static config re-derives the key


def test_plain_send_accepted_without_keys(rig):
    sim, _config, _keys, nodes = rig
    nodes[0].send_plain(replica_address(1), msg(0))
    sim.run()
    assert len(nodes[1].received) == 1


def test_envelope_size_includes_auth_trailer(rig):
    _sim, _config, keys, nodes = rig
    message = msg(0)
    plain = Envelope(message, AUTH_NONE, None, "replica", 0)
    mac = Envelope(message, AUTH_MAC, b"\0\0\0\0", "replica", 0)
    from repro.crypto.authenticators import Authenticator

    vec = Envelope(
        message, AUTH_VECTOR, Authenticator({0: b"x" * 4, 1: b"y" * 4}), "replica", 0
    )
    assert plain.size < mac.size < vec.size + 8
    from repro.crypto.rabin import rabin_sign

    sig = rabin_sign(keys.replica_keys[0], message.auth_bytes())
    signed = Envelope(message, AUTH_SIG, sig, "replica", 0)
    assert signed.size > mac.size


def test_tampered_message_with_valid_looking_mac_rejected(rig):
    sim, _config, keys, nodes = rig
    from repro.crypto.mac import compute_mac

    original = msg(0)
    key = keys.replica_pair_key(0, 1)
    tag = compute_mac(key, original.auth_bytes())
    tampered = StatusMsg(
        view=0, last_exec_seq=999, stable_seq=0, sender=0, recovering=False
    )
    env = Envelope(tampered, AUTH_MAC, tag, "replica", 0)
    nodes[0].socket.send(replica_address(1), env, env.size, "tampered")
    sim.run()
    assert nodes[1].received == []
    assert nodes[1].auth_failures == 1


# -- malformed trailers -------------------------------------------------------------


# What a sender can put where the trailer goes (envelopes travel by
# reference), given a good signature over the same request.
@pytest.mark.parametrize(
    "auth_kind,craft",
    [
        pytest.param(AUTH_SIG, lambda good: RabinSignature(70000, good.root), id="salt-too-big"),
        pytest.param(AUTH_SIG, lambda good: RabinSignature(-1, good.root), id="salt-negative"),
        # What a stub-crypto sender emits.
        pytest.param(AUTH_SIG, lambda good: None, id="sig-missing"),
        pytest.param(AUTH_MAC, lambda good: None, id="mac-missing"),
        pytest.param(AUTH_MAC, lambda good: good, id="mac-is-a-signature"),
    ],
)
def test_malformed_trailer_is_an_auth_failure_not_an_exception(auth_kind, craft):
    from repro.crypto.rabin import rabin_sign
    from repro.pbft.cluster import build_cluster
    from repro.pbft.messages import Request

    cluster = build_cluster(PbftConfig(num_clients=2), seed=5, real_crypto=True)
    client, replica = cluster.clients[0], cluster.replicas[0]
    assert ("client", client.node_id) in replica.session_keys
    request = Request(client=client.node_id, req_id=1, op=b"\x00crafted")
    good = rabin_sign(cluster.keys.client_keys[client.node_id], request.auth_bytes())
    env = Envelope(request, auth_kind, craft(good), "client", client.node_id)
    handled = replica.messages_handled
    client.socket.send(replica_address(0), env, env.size, "crafted")
    cluster.sim.run_for(5_000_000)  # raises here if the handler does
    assert replica.auth_failures == 1
    assert replica.stats["auth_failures"] == 1
    assert replica.messages_handled == handled
    # The replica is unharmed: the same client's honest request commits.
    assert cluster.invoke_and_wait(client, b"\x00honest") is not None
    assert replica.auth_failures == 1


# -- sender ids outside the group ---------------------------------------------------


def _trailer(auth_kind, cluster, data):
    """A well-formed trailer of ``auth_kind`` under some real key."""
    from repro.crypto.authenticators import Authenticator
    from repro.crypto.mac import compute_mac
    from repro.crypto.rabin import rabin_sign

    if auth_kind == AUTH_SIG:
        return rabin_sign(cluster.keys.replica_keys[1], data)
    tag = compute_mac(cluster.keys.replica_pair_key(0, 1), data)
    return tag if auth_kind == AUTH_MAC else Authenticator({0: tag})


@pytest.mark.parametrize(
    "auth_kind", [AUTH_SIG, AUTH_MAC, AUTH_VECTOR], ids=["sig", "mac", "vector"]
)
def test_replica_rejects_a_replica_id_outside_the_group(auth_kind):
    from repro.pbft.cluster import build_cluster
    from repro.pbft.messages import Prepare

    cluster = build_cluster(PbftConfig(num_clients=2), seed=5, real_crypto=True)
    client, replica = cluster.clients[0], cluster.replicas[0]
    # The envelope's claim is what selects the key; the body's sender
    # field is unsigned on the wire.
    for claimed in (7, -1):
        prepare = Prepare(view=0, seq=1, batch_digest=b"\x00" * 16, sender=7)
        env = Envelope(
            prepare, auth_kind, _trailer(auth_kind, cluster, prepare.auth_bytes()),
            "replica", claimed,
        )
        client.socket.send(replica_address(0), env, env.size, "claimed")
    cluster.sim.run_for(5_000_000)  # raises here if verification does
    assert replica.auth_failures == 2
    assert replica.stats["auth_failures"] == 2
    assert cluster.invoke_and_wait(client, b"\x00honest") is not None


def test_signing_client_rejects_a_replica_id_outside_the_group():
    from repro.pbft.cluster import build_cluster
    from repro.pbft.messages import Reply

    cluster = build_cluster(
        PbftConfig(num_clients=2, use_macs=False), seed=5, real_crypto=True
    )
    client, replica = cluster.clients[0], cluster.replicas[0]
    for claimed in (7, -1):
        reply = Reply(view=0, req_id=1, client=client.node_id, sender=7, result=b"")
        env = Envelope(
            reply, AUTH_SIG, _trailer(AUTH_SIG, cluster, reply.auth_bytes()),
            "replica", claimed,
        )
        replica.socket.send(client.socket.address, env, env.size, "claimed")
    cluster.sim.run_for(5_000_000)
    assert client.auth_failures == 2
    assert cluster.invoke_and_wait(client, b"\x00honest") is not None


# -- one signature per message ----------------------------------------------------


@pytest.fixture()
def signatures(monkeypatch):
    """Every ``rabin_sign`` call a node makes, as ``(key, bytes)``."""
    import repro.pbft.node as node_module

    made = []
    real_sign = node_module.rabin_sign

    def counting_sign(key, data):
        made.append((key, data))
        return real_sign(key, data)

    monkeypatch.setattr(node_module, "rabin_sign", counting_sign)
    return made


def test_one_message_to_every_replica_is_signed_once_and_charged_per_send(rig, signatures):
    sim, config, _keys, nodes = rig
    sender, message = nodes[0], msg(0)
    before = sender.host.cpu_busy_ns
    for rid in range(1, config.n):
        sender.send_signed(replica_address(rid), message)
    sends = config.n - 1
    assert len(signatures) == 1
    # The simulated signer is still paid once per destination.
    assert sender.host.cpu_busy_ns - before == sends * (
        sender._marshal_cost(message) + config.costs.crypto.sign_ns
    )
    sim.run()
    assert [len(peer.received) for peer in nodes[1:]] == [1] * sends
    assert all(peer.auth_failures == 0 for peer in nodes)


def test_equal_bytes_in_another_message_object_are_signed_afresh(rig, signatures):
    _sim, _config, _keys, nodes = rig
    first, second = msg(0), msg(0)
    assert first == second and first is not second
    nodes[0].send_signed(replica_address(1), first)
    nodes[0].send_signed(replica_address(1), second)
    nodes[0].send_signed(replica_address(1), first)
    assert len(signatures) == 3


def test_same_message_after_key_refresh_is_signed_with_the_new_key(rig, signatures):
    sim, _config, keys, nodes = rig
    message = msg(0)
    nodes[0].send_signed(replica_address(1), message)
    keys.refresh_slot(0)
    nodes[0].send_signed(replica_address(1), message)
    assert len(signatures) == 2
    assert signatures[0][0] is not signatures[1][0]
    assert signatures[1][0] is keys.replica_keys[0]
    sim.run()
    # The first envelope now fails against the refreshed public key; the
    # second was signed under it.
    assert (len(nodes[1].received), nodes[1].auth_failures) == (1, 1)


# -- the slotted envelope ---------------------------------------------------------


def test_envelope_keyword_constructor_and_attributes():
    message = msg(2)
    env = Envelope(
        msg=message, auth_kind=AUTH_MAC, auth=b"abcd",
        sender_kind="replica", sender_id=2, sender_epoch=5,
    )
    assert env.msg is message and env.auth == b"abcd"
    assert (env.auth_kind, env.sender_kind, env.sender_id, env.sender_epoch) == (
        AUTH_MAC, "replica", 2, 5,
    )
    assert env.sender == ("replica", 2)
    assert Envelope(message, AUTH_NONE, None, "client", 9).sender_epoch == 0
    assert not hasattr(env, "__dict__")
    with pytest.raises(AttributeError):
        env.extra = 1
    assert "StatusMsg" in repr(env)


def test_envelope_size_is_exact_for_every_trailer(rig):
    _sim, _config, keys, _nodes = rig
    from repro.crypto.authenticators import Authenticator
    from repro.crypto.rabin import rabin_sign

    message = msg(0)
    body = message.body_size()
    assert Envelope(message, AUTH_NONE, None, "replica", 0).size == body + 4
    assert Envelope(message, AUTH_MAC, b"\0\0\0\0", "replica", 0).size == body + 8
    vec = Authenticator({rid: b"tag!" for rid in range(3)})
    assert Envelope(message, AUTH_VECTOR, vec, "replica", 0).size == body + 4 + 3 * 6
    sig = rabin_sign(keys.replica_keys[0], message.auth_bytes())
    assert Envelope(message, AUTH_SIG, sig, "replica", 0).size == body + 4 + sig.size_bytes
    # Fake-crypto signed sends carry no signature object: nominal 66 bytes.
    assert Envelope(message, AUTH_SIG, None, "replica", 0).size == body + 4 + 66


def test_envelope_receive_cost_computed_once_for_the_senders_model(rig):
    from repro.crypto.authenticators import Authenticator

    _sim, config, _keys, _nodes = rig
    costs = config.costs
    message = msg(0)
    byte_ns = costs.bytes_cost(message.body_size())
    bare = Envelope(message, AUTH_MAC, b"\0\0\0\0", "replica", 0)
    assert bare.cost_model is None  # hand-built: receivers compute their own
    for auth_kind, verify_ns in (
        (AUTH_NONE, 0),
        (AUTH_MAC, costs.crypto.mac_ns),
        (AUTH_VECTOR, costs.crypto.mac_ns),
        (AUTH_SIG, costs.crypto.verify_ns),
    ):
        auth = Authenticator({}) if auth_kind == AUTH_VECTOR else None
        env = Envelope(message, auth_kind, auth, "replica", 0, costs=costs)
        assert env.cost_model is costs
        assert env.recv_cost == costs.msg_recv_ns + byte_ns + verify_ns


def test_receiver_charges_the_same_cpu_with_or_without_the_senders_cost(rig):
    # A hand-built envelope (no cost model) and a node-sealed one must
    # occupy the receiver's CPU identically.
    sim, config, _keys, nodes = rig
    nodes[0].send_plain(replica_address(1), msg(0))
    sim.run()
    sealed = nodes[1].host.cpu_busy_ns
    env = Envelope(msg(0), AUTH_NONE, None, "replica", 0)
    nodes[0].socket.send(replica_address(1), env, env.size, "bare")
    sim.run()
    assert nodes[1].host.cpu_busy_ns == 2 * sealed
    assert len(nodes[1].received) == 2


def test_kind_label_defaults_to_the_message_class_name(rig):
    sim, _config, _keys, nodes = rig
    kinds = []
    # A never-matching drop rule is a tap on every datagram sent.
    nodes[0].host.fabric.add_drop_rule(DropRule(lambda p: kinds.append(p.kind) or False))
    nodes[0].send_plain(replica_address(1), msg(0))
    nodes[0].send_mac(replica_address(1), "replica", 1, msg(0), kind="custom")
    nodes[0].broadcast_to_replicas(msg(0), only=[2])
    sim.run()
    assert kinds == ["StatusMsg", "custom", "StatusMsg"]
    assert StatusMsg.KIND == "StatusMsg"
