"""The replica-side membership manager, unit-tested on one replica."""

import pytest

from repro.common.units import SECOND
from repro.membership.manager import (
    EXTERNAL_ID_BASE,
    REPLY_DENIED,
    REPLY_FULL,
    REPLY_LEFT,
    SESSION_STALE_NS,
    MembershipManager,
)
from repro.membership.messages import (
    Join2Payload,
    compute_challenge,
    compute_response,
    encode_leave_op,
)
from repro.net.fabric import NetworkFabric
from repro.pbft.config import PbftConfig
from repro.pbft.messages import Request
from repro.pbft.wire import decode_exact
from repro.pbft.node import KeyDirectory
from repro.pbft.replica import NullApplication, Replica
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


@pytest.fixture()
def replica():
    sim = Simulator()
    rng = RngStreams(13)
    fabric = NetworkFabric(sim, rng)
    config = PbftConfig(dynamic_clients=True, max_node_entries=4, num_clients=2)
    for rid in range(config.n):
        fabric.add_host(f"replica{rid}")
    keys = KeyDirectory(config, rng.stream("keys"))
    rep = Replica(0, config, fabric.host("replica0"), keys, NullApplication())
    rep.membership = MembershipManager(rep)
    return rep


def join_op(temp=1000, user=b"user:1", host="clienthost0", port=6000):
    pubkey = bytes([temp % 251] * 32)
    nonce = b"\x05" * 16
    challenge = compute_challenge(pubkey, nonce)
    payload = Join2Payload(
        temp_client=temp,
        pubkey_n=pubkey,
        nonce=nonce,
        response=compute_response(challenge, nonce),
        idbuf=user,
        session_keys=tuple((rid, bytes([rid] * 16)) for rid in range(4)),
        host=host,
        port=port,
    )
    return Request(client=temp, req_id=1, op=payload.encode(), big=True)


def execute_join(replica, **kwargs):
    return replica.membership.execute_system(join_op(**kwargs), nondet_ts=1_000)


class TestJoin:
    def test_successful_join_assigns_external_id(self, replica):
        reply = execute_join(replica)
        assert reply.startswith(b"JOINED")
        external = int.from_bytes(reply[6:], "big")
        assert external == EXTERNAL_ID_BASE
        assert external in replica.membership.table
        assert external in replica.membership.redirection

    def test_join_installs_session_key_for_this_replica(self, replica):
        reply = execute_join(replica)
        external = int.from_bytes(reply[6:], "big")
        assert ("client", external) in replica.session_keys

    def test_bad_response_denied(self, replica):
        request = join_op()
        payload = decode_exact(Join2Payload, request.op)
        bad = Join2Payload(
            temp_client=payload.temp_client,
            pubkey_n=payload.pubkey_n,
            nonce=payload.nonce,
            response=b"\x00" * 16,
            idbuf=payload.idbuf,
            session_keys=payload.session_keys,
            host=payload.host,
            port=payload.port,
        )
        bad_req = Request(client=1000, req_id=1, op=bad.encode(), big=True)
        assert replica.membership.execute_system(bad_req, 0) == REPLY_DENIED

    def test_unauthorized_idbuf_denied(self, replica):
        assert execute_join(replica, user=b"") == REPLY_DENIED

    def test_single_session_per_principal(self, replica):
        first = int.from_bytes(execute_join(replica, temp=1000)[6:], "big")
        second = int.from_bytes(execute_join(replica, temp=1001)[6:], "big")
        assert first not in replica.membership.table
        assert second in replica.membership.table
        assert replica.stats["sessions_terminated"] == 1

    def test_table_full_denies_fresh_sessions(self, replica):
        for i in range(4):
            execute_join(replica, temp=1000 + i, user=f"user:{i}".encode())
        reply = replica.membership.execute_system(
            join_op(temp=1100, user=b"user:99"), nondet_ts=2_000
        )
        assert reply == REPLY_FULL

    def test_stale_sessions_collected_when_full(self, replica):
        for i in range(4):
            execute_join(replica, temp=1000 + i, user=f"user:{i}".encode())
        # A join long after the stale threshold evicts the idle sessions.
        late = SESSION_STALE_NS + 10 * SECOND
        reply = replica.membership.execute_system(
            join_op(temp=1100, user=b"user:99"), nondet_ts=late
        )
        assert reply.startswith(b"JOINED")
        assert replica.stats["stale_sessions_collected"] > 0


class TestLeave:
    def test_leave_removes_client(self, replica):
        external = int.from_bytes(execute_join(replica)[6:], "big")
        leave = Request(client=external, req_id=2, op=encode_leave_op())
        assert replica.membership.execute_system(leave, 0) == REPLY_LEFT
        assert external not in replica.membership.table
        assert not replica.membership.admit_request(
            Request(client=external, req_id=3, op=b"\x00x")
        )

    def test_leave_keeps_address_for_the_farewell_reply(self, replica):
        external = int.from_bytes(execute_join(replica)[6:], "big")
        leave = Request(client=external, req_id=2, op=encode_leave_op())
        replica.membership.execute_system(leave, 0)
        assert replica.membership.client_address(external) is not None


class TestAdmission:
    def test_unknown_client_rejected(self, replica):
        assert not replica.membership.admit_request(
            Request(client=9999, req_id=1, op=b"\x00x")
        )

    def test_join_ops_always_admitted(self, replica):
        assert replica.membership.admit_request(join_op(temp=4242))

    def test_member_admitted(self, replica):
        external = int.from_bytes(execute_join(replica)[6:], "big")
        assert replica.membership.admit_request(
            Request(client=external, req_id=2, op=b"\x00x")
        )


class TestPersistence:
    def test_reload_from_state_rebuilds_tables(self, replica):
        external = int.from_bytes(execute_join(replica)[6:], "big")
        manager = replica.membership
        entry_before = manager.table[external]
        manager.table.clear()
        manager.redirection.clear()
        manager.reload_from_state()
        assert external in manager.table
        restored = manager.table[external]
        assert restored.principal == entry_before.principal
        assert restored.host == entry_before.host
        assert restored.pubkey_n == entry_before.pubkey_n
        assert manager.next_external == EXTERNAL_ID_BASE + 1

    def test_touch_updates_last_active_in_state(self, replica):
        external = int.from_bytes(execute_join(replica)[6:], "big")
        manager = replica.membership
        manager.touch(external, nondet_ts=5_555)
        manager.reload_from_state()
        assert manager.table[external].last_active == 5_555

    def test_fresh_state_reload_resets(self, replica):
        manager = replica.membership
        execute_join(replica)
        replica.state.restore(
            [bytes(replica.config.page_size)] * replica.config.state_pages
        )
        manager.reload_from_state()
        assert manager.table == {}
        assert manager.next_external == EXTERNAL_ID_BASE
