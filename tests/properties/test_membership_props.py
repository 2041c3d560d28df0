"""Property test: membership execution is a deterministic state machine.

Any sequence of ordered Join/Leave system operations applied to two
independent replicas yields identical tables, identical assigned ids, and
identical state-region bytes — the property total ordering buys the paper
(section 3.1: "the replicas need to identify each client in an identical
(deterministic) manner").
"""

from hypothesis import given, settings, strategies as st

from repro.membership.manager import MembershipManager
from repro.membership.messages import (
    Join2Payload,
    compute_challenge,
    compute_response,
    encode_leave_op,
)
from repro.net.fabric import NetworkFabric
from repro.pbft.config import PbftConfig
from repro.pbft.messages import Request
from repro.pbft.node import KeyDirectory
from repro.pbft.replica import NullApplication, Replica
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def build_replica(rid: int):
    sim = Simulator()
    rng = RngStreams(131)
    fabric = NetworkFabric(sim, rng)
    config = PbftConfig(dynamic_clients=True, max_node_entries=6, num_clients=2)
    for r in range(config.n):
        fabric.add_host(f"replica{r}")
    keys = KeyDirectory(config, rng.stream("keys"))
    replica = Replica(rid, config, fabric.host(f"replica{rid}"), keys, NullApplication())
    replica.membership = MembershipManager(replica)
    return replica


def join_request(temp: int, principal: int):
    pubkey = bytes([temp % 251] * 32)
    nonce = bytes([principal % 256] * 16)
    challenge = compute_challenge(pubkey, nonce)
    payload = Join2Payload(
        temp_client=temp,
        pubkey_n=pubkey,
        nonce=nonce,
        response=compute_response(challenge, nonce),
        idbuf=f"user:{principal}".encode(),
        session_keys=tuple((rid, bytes([rid] * 16)) for rid in range(4)),
        host="clienthost0",
        port=6000 + temp % 100,
    )
    return Request(client=temp, req_id=1, op=payload.encode(), big=True)


# Each op: (is_join, principal, leave_target_index)
ops_strategy = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=20),
    ),
    max_size=20,
)


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None)
def test_two_replicas_apply_identically(ops):
    replicas = [build_replica(0), build_replica(1)]
    replies = [[], []]
    assigned: list[int] = []
    for index, (is_join, principal, leave_pick) in enumerate(ops):
        ts = 1_000 * (index + 1)
        if is_join or not assigned:
            request = join_request(temp=2000 + index, principal=principal)
        else:
            target = assigned[leave_pick % len(assigned)]
            request = Request(client=target, req_id=index + 2, op=encode_leave_op())
        for side, replica in enumerate(replicas):
            reply = replica.membership.execute_system(request, ts)
            replica.state.end_of_execution()
            replies[side].append(reply)
        if replies[0][-1].startswith(b"JOINED"):
            assigned.append(int.from_bytes(replies[0][-1][6:], "big"))
    assert replies[0] == replies[1]
    a, b = replicas
    assert sorted(a.membership.table) == sorted(b.membership.table)
    assert a.membership.next_external == b.membership.next_external
    assert a.state.refresh_tree() == b.state.refresh_tree()


@given(ops=ops_strategy)
@settings(max_examples=25, deadline=None)
def test_reload_from_state_is_lossless(ops):
    replica = build_replica(0)
    for index, (is_join, principal, _pick) in enumerate(ops):
        if is_join:
            replica.membership.execute_system(
                join_request(temp=3000 + index, principal=principal), 1000 * index
            )
            replica.state.end_of_execution()
    manager = replica.membership
    before = {
        ext: (e.principal, e.host, e.port, e.last_active)
        for ext, e in manager.table.items()
    }
    manager.reload_from_state()
    after = {
        ext: (e.principal, e.host, e.port, e.last_active)
        for ext, e in manager.table.items()
    }
    assert before == after
