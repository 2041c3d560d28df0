"""Restart is construction: a crashed replica comes back as a new Replica
built from its DurableImage, and keeps nothing the image does not name."""

import dataclasses
import inspect

import pytest

from repro.common.errors import StateError
from repro.common.units import MILLISECOND, SECOND
from repro.net.fabric import Host, NetworkFabric
from repro.obs import Observability
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.messages import DurableImage, Request, StatusMsg, ViewChangeMsg
from repro.pbft.node import KeyDirectory
from repro.pbft.replica import Application, NullApplication, Replica
from repro.pbft.wire import decode_exact
from repro.sim.simulator import Simulator, Timer

CONFIG = dict(num_clients=2, checkpoint_interval=4, log_window=8)
VICTIM = 3
# Shared plumbing, not replica state: compared by type only.
WIRING = (
    Host, NetworkFabric, Simulator, KeyDirectory, PbftConfig, Observability,
    Application, Replica,
)


def make_cluster():
    return build_cluster(PbftConfig(**CONFIG), seed=5, real_crypto=False)


def shape(value):
    """A value with every object replaced by its class name and attributes,
    wiring by its class name, and callables by their qualified name."""
    if isinstance(value, (type(None), bool, int, float, str, bytes, bytearray)):
        return value
    if isinstance(value, WIRING) or type(value).__name__ in ("StatsView", "Tracer", "Gauge"):
        return type(value).__name__
    if isinstance(value, type):
        return value.__name__
    if isinstance(value, Timer):
        return ("Timer", value.deadline, value.cancelled, value.fired, shape(value.callback))
    if inspect.ismethod(value) or inspect.isfunction(value):
        return value.__qualname__
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return (type(value).__name__, [shape(getattr(value, f.name)) for f in fields])
    if isinstance(value, dict):
        return ("dict", [(shape(k), shape(v)) for k, v in value.items()])
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(repr(shape(v)) for v in value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [shape(v) for v in value])
    slots = getattr(type(value), "__slots__", ())
    attrs = dict(getattr(value, "__dict__", {}))
    attrs.update((name, getattr(value, name)) for name in slots if hasattr(value, name))
    return (type(value).__name__, {name: shape(v) for name, v in attrs.items()})


def replica_shape(replica):
    # The application and the non-determinism validator are the
    # deployment's objects, handed to every incarnation of the slot.
    skip = {"app", "nondet_validator"}
    return {name: shape(v) for name, v in vars(replica).items() if name not in skip}


def load_victim(cluster):
    """Drive the group past a checkpoint, then give the victim one of each
    kind of volatile state."""
    for i in range(6):
        cluster.invoke_and_wait(cluster.clients[i % 2], bytes([0, i]))
    victim = cluster.replicas[VICTIM]
    client = cluster.clients[0].node_id
    waiting = Request(client=client, req_id=900, op=b"\x00waiting")
    victim.on_request(waiting)
    queued = Request(client=client, req_id=901, op=b"\x00queued")
    victim.pending_requests.append(queued)
    victim.queued_digests.add(queued.digest)
    stable = victim.checkpoints.latest_stable()
    victim.on_view_change(ViewChangeMsg(
        new_view=1, stable_seq=stable.seq, stable_root=stable.root,
        checkpoint_proof=(), prepared=(), sender=1,
    ))
    victim.maybe_start_state_transfer(victim.last_exec + 4, bytes(16))
    victim._note_view_evidence(2, 1)
    victim._nudge_stale_view(0)
    assert stable.seq == 4 and victim.last_exec == 6
    assert victim.log.slots and victim.exec_journal
    assert victim.waiting_requests and victim.pending_requests
    assert victim.view_changes and victim.transfer is not None
    return victim


def test_restart_keeps_exactly_the_image():
    cluster = make_cluster()
    victim = load_victim(cluster)
    image = victim.durable_image().encode()
    victim.crash()
    restarted = cluster.restart(VICTIM)
    assert restarted is cluster.replicas[VICTIM] and restarted is not victim
    # image -> replica -> image
    assert restarted.durable_image().encode() == image
    assert restarted.last_exec == 4 and restarted.view_evidence == {2: 1}
    # The same image built into a replica of a deployment that never saw the
    # crashed one: nothing else crossed the crash.
    twin_cluster = make_cluster()
    twin_cluster.run_for(cluster.sim.now - twin_cluster.sim.now)
    old = twin_cluster.replicas[VICTIM]
    old.crash()
    twin = Replica(
        VICTIM, twin_cluster.config, old.host, twin_cluster.keys, NullApplication(),
        real_crypto=False, obs=twin_cluster.obs, image=decode_exact(DurableImage, image),
    )
    for client_id, addr in old.client_addr.items():
        twin.register_client(client_id, addr)
    ours, theirs = replica_shape(restarted), replica_shape(twin)
    assert sorted(ours) == sorted(theirs)
    assert [name for name in ours if ours[name] != theirs[name]] == []
    assert restarted.recovering and not restarted.log.slots and not restarted.exec_journal


def test_an_image_that_does_not_match_its_root_is_refused():
    cluster = make_cluster()
    victim = load_victim(cluster)
    image = victim.durable_image()
    victim.crash()

    def build(bad):
        return Replica(
            VICTIM, cluster.config, victim.host, cluster.keys, NullApplication(),
            real_crypto=False, obs=cluster.obs, image=bad,
        )

    with pytest.raises(StateError, match="root"):
        build(dataclasses.replace(image, root=bytes(16)))
    pages = list(image.pages)
    pages[9] = b"\xff" + pages[9][1:]
    with pytest.raises(StateError, match="root"):
        build(dataclasses.replace(image, pages=tuple(pages)))
    pages[9] = pages[9][:-1]
    with pytest.raises(StateError, match="bytes"):
        build(dataclasses.replace(image, pages=tuple(pages)))
    # Nothing was bound by the refused builds: the real restart still works.
    assert cluster.restart(VICTIM).durable_image() == image
    cluster.invoke_and_wait(cluster.clients[1], b"\x00after", max_wait_ns=10 * SECOND)


def test_restart_of_a_live_slot_does_nothing():
    cluster = make_cluster()
    live = cluster.replicas[VICTIM]
    assert cluster.restart(VICTIM) is None
    assert cluster.replicas[VICTIM] is live and not live.crashed


def test_work_queued_before_the_crash_reaches_no_handler_and_no_timer_fires():
    cluster = make_cluster()
    victim = load_victim(cluster)
    reached = []
    victim._handlers[StatusMsg] = (lambda msg, env=None: reached.append(msg), False)
    deliver = victim.socket.handler

    def deliver_then_crash(packet):
        deliver(packet)  # authentication and dispatch now queued on the CPU
        victim.crash()

    victim.socket.on_receive(deliver_then_crash)
    handled = victim.messages_handled
    cluster.replicas[0].send_to_replica(
        VICTIM, StatusMsg(view=0, last_exec_seq=0, stable_seq=0, sender=0, recovering=True)
    )
    cluster.run_for(MILLISECOND)
    assert victim.crashed
    # Authenticated like any packet, dispatched to nothing.
    assert victim.messages_handled == handled + 1 and reached == []
    timers = [
        arg for _when, _seq, _fn, arg in cluster.sim._queue
        if isinstance(arg, Timer) and getattr(arg.callback, "__self__", None) is victim
    ]
    assert timers and all(timer.cancelled for timer in timers)
    cluster.run_for(2 * SECOND)
    assert not any(timer.fired for timer in timers)
    assert not any(
        getattr(fn, "__self__", None) is victim
        or getattr(getattr(arg, "callback", None), "__self__", None) is victim
        for _when, _seq, fn, arg in cluster.sim._queue
    )
