"""The per-session state subsystem (paper section 3.3.2)."""

import pytest

from repro.common.errors import StateError
from repro.membership.manager import MembershipManager
from repro.membership.sessions import SLOT_BYTES
from repro.net.fabric import NetworkFabric
from repro.pbft.config import PbftConfig
from repro.pbft.messages import Request
from repro.pbft.node import KeyDirectory
from repro.pbft.replica import NullApplication, Replica
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

from tests.unit.membership.test_manager import execute_join


@pytest.fixture()
def replica():
    sim = Simulator()
    rng = RngStreams(101)
    fabric = NetworkFabric(sim, rng)
    config = PbftConfig(dynamic_clients=True, max_node_entries=4, num_clients=2)
    for rid in range(config.n):
        fabric.add_host(f"replica{rid}")
    keys = KeyDirectory(config, rng.stream("keys"))
    rep = Replica(0, config, fabric.host("replica0"), keys, NullApplication())
    rep.membership = MembershipManager(rep)
    return rep


def joined_client(replica, temp=1000, user=b"user:1"):
    reply = execute_join(replica, temp=temp, user=user)
    return int.from_bytes(reply[6:], "big")


def test_write_and_read_session_state(replica):
    client = joined_client(replica)
    sessions = replica.membership.session_state
    sessions.write(client, b"cart: 3 items")
    replica.state.end_of_execution()
    assert sessions.read(client) == b"cart: 3 items"


def test_unwritten_session_reads_empty(replica):
    client = joined_client(replica)
    assert replica.membership.session_state.read(client) == b""


def test_state_wiped_when_session_ends(replica):
    from repro.membership.messages import encode_leave_op

    client = joined_client(replica)
    sessions = replica.membership.session_state
    sessions.write(client, b"secret session data")
    replica.state.end_of_execution()
    replica.membership.execute_system(
        Request(client=client, req_id=2, op=encode_leave_op()), 0
    )
    replica.state.end_of_execution()
    # A new session reusing the slot must not see the old data.
    newcomer = joined_client(replica, temp=1001, user=b"user:2")
    assert replica.membership.redirection[newcomer] == 0  # reused slot 0
    assert sessions.read(newcomer) == b""


def test_unknown_client_rejected(replica):
    with pytest.raises(StateError, match="no live session"):
        replica.membership.session_state.read(4242)


def test_oversized_state_rejected(replica):
    client = joined_client(replica)
    sessions = replica.membership.session_state
    with pytest.raises(StateError, match="slot"):
        sessions.write(client, b"x" * (SLOT_BYTES + 1))


def test_session_state_lives_in_replicated_pages(replica):
    """Session slots sit in the state region, so they change the Merkle
    root — meaning checkpoints/state transfer carry them for free."""
    client = joined_client(replica)
    root_before = replica.state.refresh_tree()
    replica.membership.session_state.write(client, b"persisted")
    replica.state.end_of_execution()
    assert replica.state.refresh_tree() != root_before


def test_session_state_survives_reload(replica):
    client = joined_client(replica)
    sessions = replica.membership.session_state
    sessions.write(client, b"durable")
    replica.state.end_of_execution()
    replica.membership.reload_from_state()
    assert sessions.read(client) == b"durable"
