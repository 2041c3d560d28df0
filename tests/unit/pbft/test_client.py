"""Client-side quorum logic and retransmission, isolated from replicas."""

import pytest

from repro.common.errors import ConfigError
from repro.net.fabric import NetworkFabric
from repro.pbft.client import PbftClient
from repro.pbft.config import PbftConfig
from repro.pbft.messages import (
    BUSY_OVERSIZED,
    BUSY_SHED,
    BusyReply,
    Reply,
    Request,
    designated_replier,
)
from repro.pbft.node import REPLICA_PORT, KeyDirectory
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def build_rig(obs=None):
    sim = Simulator()
    rng = RngStreams(91)
    fabric = NetworkFabric(sim, rng)
    config = PbftConfig(num_clients=1)
    for rid in range(config.n):
        fabric.add_host(f"replica{rid}")
    fabric.add_host("clienthost0")
    keys = KeyDirectory(config, rng.stream("keys"))
    client_id = 1000
    keys.new_client_keypair(client_id)
    client = PbftClient(
        client_id, config, fabric.host("clienthost0"), 6000, keys, obs=obs
    )
    client.generate_session_keys(rng.stream("sessions"))
    return sim, config, client


@pytest.fixture()
def rig():
    return build_rig()


def feed_reply(client, sender, result=b"res", tentative=False, digest_only=False,
               req_id=None):
    pending = client.pending
    reply = Reply(
        view=0,
        req_id=req_id if req_id is not None else pending.request.req_id,
        client=client.node_id,
        sender=sender,
        result=result,
        tentative=tentative,
        digest_only=digest_only,
    )
    client.on_reply(reply)


def test_single_outstanding_request_enforced(rig):
    _sim, _config, client = rig
    client.invoke(b"op1")
    with pytest.raises(ConfigError):
        client.invoke(b"op2")


def test_f_plus_one_stable_replies_complete(rig):
    _sim, _config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(r))
    feed_reply(client, sender=0)
    assert not done
    feed_reply(client, sender=1)
    assert done == [b"res"]
    assert client.pending is None


def test_tentative_replies_need_2f_plus_one(rig):
    _sim, _config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(r))
    feed_reply(client, sender=0, tentative=True)
    feed_reply(client, sender=1, tentative=True)
    assert not done
    feed_reply(client, sender=2, tentative=True)
    assert done == [b"res"]


def test_mixed_stable_and_tentative_count_toward_strong_quorum(rig):
    _sim, _config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(r))
    feed_reply(client, sender=0, tentative=True)
    feed_reply(client, sender=1, tentative=True)
    feed_reply(client, sender=2, tentative=False)
    assert done  # 3 matching total


def test_mismatched_results_do_not_combine(rig):
    _sim, _config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(r))
    feed_reply(client, sender=0, result=b"A")
    feed_reply(client, sender=1, result=b"B")
    assert not done
    feed_reply(client, sender=2, result=b"A")
    assert done == [b"A"]


def test_duplicate_sender_counted_once(rig):
    _sim, _config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(r))
    feed_reply(client, sender=0)
    feed_reply(client, sender=0)
    feed_reply(client, sender=0)
    assert not done


def test_digest_only_replies_wait_for_a_full_result(rig):
    _sim, _config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(r))
    full = Reply(view=0, req_id=1, client=client.node_id, sender=0, result=b"payload")
    feed_reply(client, sender=1, result=full.result_digest, digest_only=True)
    feed_reply(client, sender=2, result=full.result_digest, digest_only=True)
    assert not done  # quorum of digests, but no full payload yet
    client.on_reply(full)
    assert done == [b"payload"]


def test_readonly_needs_strong_quorum(rig):
    _sim, _config, client = rig
    done = []
    client.invoke(b"op", readonly=True, callback=lambda r, l: done.append(r))
    feed_reply(client, sender=0)
    feed_reply(client, sender=1)
    assert not done  # f+1 is not enough for read-only
    feed_reply(client, sender=2)
    assert done == [b"res"]


def test_stale_reply_ignored(rig):
    _sim, _config, client = rig
    client.invoke(b"op")
    feed_reply(client, sender=0, req_id=999)
    assert client.pending.votes == {}
    client.cancel_pending()


def test_retransmission_timer_fires_and_multicasts(rig):
    sim, config, client = rig
    client.invoke(b"op")
    sent_before = client.socket.sent
    sim.run_for(config.client_retransmit_ns + 1_000_000)
    assert client.retransmissions == 1
    # The retransmission is a multicast to the whole group.
    assert client.socket.sent >= sent_before + config.n
    client.cancel_pending()


def test_latency_recorded_on_completion(rig):
    sim, _config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(l))
    sim.run_for(5_000_000)
    feed_reply(client, sender=0)
    feed_reply(client, sender=1)
    assert client.latencies_ns == done
    assert done[0] >= 5_000_000
    # The same observation must land in the shared repro.obs histogram —
    # downstream percentile math reads it from there, not from the list.
    hist = client.obs.registry.histogram("client.latency_ns")
    assert hist.count == 1
    assert hist.min == hist.max == done[0]


def test_view_guess_tracks_replies(rig):
    _sim, _config, client = rig
    client.invoke(b"op")
    reply = Reply(view=3, req_id=1, client=client.node_id, sender=0, result=b"r")
    client.on_reply(reply)
    assert client.view_guess == 3
    client.cancel_pending()


def test_retransmit_interval_doubles_then_caps(rig):
    _sim, config, client = rig
    base = config.client_retransmit_ns
    cap = config.client_retransmit_cap_ns
    assert client._retransmit_interval_ns(0) == base
    assert client._retransmit_interval_ns(1) == 2 * base
    assert client._retransmit_interval_ns(2) == 4 * base
    assert client._retransmit_interval_ns(10) == cap
    # Huge counters must not overflow into giant shifts before the cap.
    assert client._retransmit_interval_ns(10_000) == cap


def test_retransmit_timer_backs_off(rig):
    sim, config, client = rig
    base = config.client_retransmit_ns
    client.invoke(b"op")
    sim.run_for(base + 1_000_000)
    assert client.retransmissions == 1
    # The second interval is doubled: another base elapses with no fire...
    sim.run_for(base)
    assert client.retransmissions == 1
    # ...but it does fire once the doubled interval is up.
    sim.run_for(base + 1_000_000)
    assert client.retransmissions == 2
    client.cancel_pending()


def test_backoff_resets_on_completion(rig):
    sim, config, client = rig
    client.invoke(b"op")
    sim.run_for(config.client_retransmit_ns + 1_000_000)
    assert client.pending.retransmits == 1
    feed_reply(client, sender=0)
    feed_reply(client, sender=1)
    assert client.pending is None
    # A fresh request starts from the base interval again.
    client.invoke(b"op2")
    assert client.pending.retransmits == 0
    sim.run_for(config.client_retransmit_ns + 1_000_000)
    assert client.pending.retransmits == 1
    client.cancel_pending()


def test_cancel_pending_reconciles_failed_op_stats(rig):
    _sim, _config, client = rig
    client.invoke(b"op")
    client.cancel_pending()
    assert client.failed_ops == 1
    assert client.stats["failed_ops"] == 1
    # Idempotent with nothing outstanding: neither counter moves.
    client.cancel_pending()
    assert client.failed_ops == 1
    assert client.stats["failed_ops"] == 1


def test_invoke_before_join_rejected():
    sim = Simulator()
    rng = RngStreams(92)
    fabric = NetworkFabric(sim, rng)
    config = PbftConfig(num_clients=1, dynamic_clients=True)
    for rid in range(config.n):
        fabric.add_host(f"replica{rid}")
    fabric.add_host("clienthost0")
    keys = KeyDirectory(config, rng.stream("keys"))
    keys.new_client_keypair(1000)
    client = PbftClient(1000, config, fabric.host("clienthost0"), 6000, keys)
    with pytest.raises(ConfigError, match="joined"):
        client.invoke(b"op")


# -- BUSY backpressure ------------------------------------------------------


def feed_busy(client, sender, reason=BUSY_SHED, retry_after_ns=0, req_id=None):
    pending = client.pending
    client.on_busy(
        BusyReply(
            view=0,
            req_id=req_id if req_id is not None else pending.request.req_id,
            client=client.node_id,
            sender=sender,
            reason=reason,
            retry_after_ns=retry_after_ns,
            queue_depth=5,
        )
    )


def test_busy_reschedules_on_its_own_backoff(rig):
    sim, config, client = rig
    client.invoke(b"op")
    feed_busy(client, sender=0)
    assert client.stats["busy_received"] == 1
    assert client.pending is not None  # the op survives; only timing changes
    # The busy backoff (20 ms base +/-25% jitter) fires long before the
    # loss-retransmit interval (150 ms) would have.
    sim.run_for(int(config.client_busy_backoff_ns * 1.5))
    assert client.stats["busy_retries"] == 1
    assert client.stats["retransmissions"] == 0
    # ... and hands back to the ordinary loss-retransmit schedule.
    sim.run_for(config.client_retransmit_ns + 1_000_000)
    assert client.stats["retransmissions"] == 1
    client.cancel_pending()


def test_busy_backoff_is_deterministic_and_jitter_bounded(rig):
    _sim, config, client = rig
    client.invoke(b"op")
    pending = client.pending
    pending.busy_count = 1
    first = client._busy_backoff_ns(pending, 0)
    assert first == client._busy_backoff_ns(pending, 0)  # same inputs, same delay
    base = config.client_busy_backoff_ns
    assert 0.75 * base <= first <= 1.25 * base
    # Doubling per consecutive BUSY, still inside the jitter band.
    pending.busy_count = 3
    third = client._busy_backoff_ns(pending, 0)
    assert 0.75 * 4 * base <= third <= 1.25 * 4 * base
    client.cancel_pending()


def test_busy_backoff_honors_retry_hint_and_cap(rig):
    _sim, config, client = rig
    client.invoke(b"op")
    pending = client.pending
    pending.busy_count = 1
    hint = 7 * config.client_busy_backoff_ns
    floored = client._busy_backoff_ns(pending, hint)
    assert floored >= 0.75 * hint  # replica's retry-after floors the interval
    # Far past the doubling range the cap bounds it, independent of the
    # loss-retransmit cap (which may be much larger).
    pending.busy_count = 30
    capped = client._busy_backoff_ns(pending, 0)
    assert capped <= 1.25 * config.client_busy_backoff_cap_ns
    client.cancel_pending()


def test_busy_backoff_independent_of_loss_retransmit_counter(rig):
    _sim, _config, client = rig
    client.invoke(b"op")
    pending = client.pending
    pending.busy_count = 1
    baseline = client._busy_backoff_ns(pending, 0)
    pending.retransmits = 9  # deep into loss-retransmit backoff
    assert client._busy_backoff_ns(pending, 0) == baseline
    client.cancel_pending()


def test_oversized_needs_weak_quorum_of_distinct_senders(rig):
    _sim, config, client = rig
    done = []
    client.invoke(b"op", callback=lambda r, l: done.append(r))
    feed_busy(client, sender=0, reason=BUSY_OVERSIZED)
    assert client.pending is not None  # one replica cannot kill an op
    feed_busy(client, sender=0, reason=BUSY_OVERSIZED)
    assert client.pending is not None  # duplicates do not count twice
    feed_busy(client, sender=2, reason=BUSY_OVERSIZED)
    assert client.pending is None  # f+1 distinct senders agree
    assert client.stats["rejected_oversized"] == 1
    assert client.failed_ops == 1
    assert not done  # the callback is never invoked for a failed op


def test_busy_for_stale_request_ignored(rig):
    _sim, _config, client = rig
    client.invoke(b"op")
    feed_busy(client, sender=0, req_id=999)
    assert client.stats["busy_received"] == 0
    client.cancel_pending()


# -- degraded-mode reply fast path -------------------------------------------

BODY = bytes(64)  # larger than a digest, so only the designated replier sends it
BODY_DIGEST = Reply(view=0, req_id=0, client=0, sender=0, result=BODY).result_digest


def listen(sim, client):
    """Bind the replica addresses; returns ``drain() -> [(rid, msg), ...]``
    of the datagrams that have reached the replicas since the last call."""
    inbox = []
    for rid in range(client.n):
        sock = client.host.fabric.bind(f"replica{rid}", REPLICA_PORT)
        sock.on_receive(lambda packet, rid=rid: inbox.append((rid, packet.payload.msg)))

    def drain():
        sim.run_for(1_000_000)
        got = list(inbox)
        inbox.clear()
        return got

    return drain


def invoke_for(client, designated, callback=None, readonly=False):
    """Invoke, skipping req_ids until ``designated`` is the designated replier."""
    while designated_replier(
        Request(client=client.node_id, req_id=client.next_req_id + 1, op=b""), client.n
    ) != designated:
        client.next_req_id += 1
    return client.invoke(b"op", readonly=readonly, callback=callback)


def feed_digests(client, senders):
    for sender in senders:
        feed_reply(client, sender, result=BODY_DIGEST, tentative=True, digest_only=True)


def stall_on(sim, config, client, dead, drain):
    """One request designated for ``dead`` sits out its retransmit timeout
    with a digest quorum and no body; the resent replies then complete it."""
    invoke_for(client, dead)
    others = [rid for rid in range(client.n) if rid != dead]
    feed_digests(client, others)
    drain()
    sim.run_for(config.client_retransmit_ns)
    assert client.retransmissions >= 1
    feed_reply(client, others[0], result=BODY, tentative=True)
    assert client.pending is None
    drain()


def test_designated_replier_is_shared_with_the_replica():
    from repro.pbft import replica

    assert replica.designated_replier is designated_replier
    request = Request(client=1000, req_id=7, op=b"")
    assert designated_replier(request, 4) == (1000 + 7) % 4


def test_no_fetch_without_evidence(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    invoke_for(client, 3)
    assert len(drain()) == config.n  # "op" is big: the request itself is multicast
    feed_digests(client, [0, 1, 2])
    assert client.pending is not None and client.pending.awaiting_body
    # Nothing suggests replica 3 will not deliver: wait for it.
    assert drain() == []
    assert client.full_reply_fetches == 0 and not client.suspects
    feed_reply(client, 3, result=BODY, tentative=True)
    assert client.pending is None


def test_stall_at_the_retransmit_timeout_marks_the_designated_replier(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    stall_on(sim, config, client, dead=3, drain=drain)
    assert client.suspects == {3}
    assert client.full_reply_fetches == 0  # the stall itself was paid in full


def test_timeout_without_a_digest_quorum_marks_nobody(rig):
    sim, config, client = rig
    invoke_for(client, 3)
    feed_digests(client, [0, 1])  # one short of 2f+1 tentative
    sim.run_for(config.client_retransmit_ns + 1_000_000)
    assert client.retransmissions == 1
    assert not client.suspects
    client.cancel_pending()


def test_marked_replier_triggers_exactly_one_fetch_to_a_responder(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    stall_on(sim, config, client, dead=3, drain=drain)
    done = []
    request = invoke_for(client, 3, callback=lambda r, l: done.append(r))
    drain()
    feed_digests(client, [0, 1])
    assert drain() == []  # no quorum yet
    feed_digests(client, [2])
    fetches = drain()
    assert [msg for _rid, msg in fetches] == [request]  # the request, re-sent as is
    assert fetches[0][0] in (0, 1, 2)  # to a replica that voted, not the dead slot
    assert client.full_reply_fetches == client.stats["full_reply_fetches"] == 1
    # Further votes and repeats of the quorum do not fetch again.
    feed_digests(client, [0, 1, 2])
    assert drain() == []
    assert client.pending.timer.pending  # the retransmit timer is still the fallback
    feed_reply(client, fetches[0][0], result=BODY, tentative=True)
    assert done == [BODY]
    assert client.retransmissions == 1  # only the original stall


def test_fetch_not_sent_when_the_designated_replier_is_not_marked(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    stall_on(sim, config, client, dead=3, drain=drain)
    invoke_for(client, 2)
    drain()
    feed_digests(client, [0, 1, 3])
    assert drain() == [] and client.full_reply_fetches == 0
    feed_reply(client, 2, result=BODY, tentative=True)
    assert client.pending is None


def test_fetch_target_rotates_over_the_responders(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    stall_on(sim, config, client, dead=0, drain=drain)  # the view-0 primary's slot
    targets = []
    for _ in range(6):
        invoke_for(client, 0)
        drain()
        feed_digests(client, [1, 2, 3])
        ((target, _msg),) = drain()
        targets.append(target)
        feed_reply(client, target, result=BODY, tentative=True)
        assert client.pending is None
    assert targets == [1, 2, 3, 1, 2, 3]


def test_fetch_skips_a_designated_replier_that_voted(rig):
    """A withholding replica votes digest-only: it is a responder, but
    asking it for the body is asking the one replica known not to send it."""
    sim, config, client = rig
    drain = listen(sim, client)
    stall_on(sim, config, client, dead=3, drain=drain)
    for _ in range(4):
        invoke_for(client, 3)
        drain()
        feed_digests(client, [3, 0, 1])
        ((target, _msg),) = drain()
        assert target in (0, 1)
        feed_reply(client, target, result=BODY, tentative=True)


def test_full_reply_clears_the_mark(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    stall_on(sim, config, client, dead=3, drain=drain)
    # Replica 3 is back and delivers the body it is designated for.
    invoke_for(client, 3)
    drain()
    feed_reply(client, 3, result=BODY, tentative=True)
    assert not client.suspects
    feed_digests(client, [0, 1])
    assert client.pending is None
    # ... so the next quorum-without-body waits for it again.
    invoke_for(client, 3)
    drain()
    feed_digests(client, [0, 1, 2])
    assert drain() == [] and client.full_reply_fetches == 0
    client.cancel_pending()


def test_digest_only_replier_is_marked_once_and_stays_marked(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    # Replica 2 always answers, always digest-only — designated or re-asked.
    invoke_for(client, 2)
    feed_digests(client, [0, 1, 2])
    drain()
    sim.run_for(config.client_retransmit_ns)
    feed_digests(client, [2])  # its answer to the retransmission: still no body
    feed_reply(client, 0, result=BODY, tentative=True)
    assert client.pending is None and client.suspects == {2}
    drain()
    for round_no in range(1, 5):
        invoke_for(client, 2)
        drain()
        feed_digests(client, [2, 0, 1])
        ((target, _msg),) = drain()
        feed_reply(client, target, result=BODY, tentative=True)
        assert client.pending is None
        assert client.suspects == {2}
        assert client.full_reply_fetches == round_no
    assert client.retransmissions == 1  # one stall, ever


def test_deposed_primary_is_marked_when_the_view_advances(rig):
    sim, config, client = rig
    drain = listen(sim, client)
    invoke_for(client, 0)
    drain()
    client.on_reply(Reply(view=1, req_id=client.pending.request.req_id,
                          client=client.node_id, sender=1, result=BODY_DIGEST,
                          tentative=True, digest_only=True))
    assert client.view_guess == 1 and client.suspects == {0}
    assert drain() == []
    feed_digests(client, [2, 3])
    ((target, _msg),) = drain()  # first quorum without a body: fetched at once
    assert target in (1, 2, 3)
    client.cancel_pending()


def test_view_jump_marks_at_most_the_other_slots(rig):
    _sim, _config, client = rig
    client.invoke(b"op")
    client.on_reply(Reply(view=9, req_id=1, client=client.node_id, sender=1,
                          result=b"r"))
    # Views 6, 7, 8 were deposed on the way to 9; 9's primary (slot 1) was not.
    assert client.suspects == {2, 3, 0}
    client.cancel_pending()


def test_fetch_emits_a_tracer_event():
    from repro.obs import Observability

    obs = Observability(tracing=True)
    sim, config, client = build_rig(obs)
    drain = listen(sim, client)
    stall_on(sim, config, client, dead=3, drain=drain)
    request = invoke_for(client, 3)
    feed_digests(client, [0, 1, 2])
    events = [e for e in obs.tracer.events if e.name == "fetch-full-reply"]
    assert len(events) == 1
    assert events[0].track == "client1000" and events[0].cat == "client"
    assert events[0].args["req_id"] == request.req_id
    assert events[0].args["target"] in (0, 1, 2)
    client.cancel_pending()


def test_readonly_fetch_is_answered_with_the_body():
    """Read-only requests execute on arrival and leave no cached reply, so
    the replica has no "already executed" to answer a re-sent one from:
    it recognises the repeat and sends the body itself."""
    from repro.common.units import MILLISECOND, SECOND
    from repro.pbft.cluster import build_cluster
    from repro.pbft.replica import NullApplication

    cluster = build_cluster(
        PbftConfig(num_clients=1), seed=3, real_crypto=False,
        app_factory=lambda: NullApplication(reply_size=1024),
    )
    client = cluster.clients[0]
    cluster.replicas[2].crash()
    latencies = []

    def again(result, latency):
        assert len(result) == 1024
        latencies.append((designated_replier(request[0], client.n), latency))
        if len(latencies) < 12:
            request[0] = client.invoke(bytes(64), readonly=True, callback=again)

    request = [client.invoke(bytes(64), readonly=True, callback=again)]
    cluster.run_for(1 * SECOND)
    assert len(latencies) == 12
    stalled = [lat for slot, lat in latencies if slot == 2]
    assert len(stalled) == 3
    # The first stalls once — and completes at all only because replicas
    # answer the retransmitted read-only request in full ...
    assert stalled[0] > cluster.config.client_retransmit_ns
    assert client.retransmissions == 1 and client.suspects == {2}
    # ... the later ones are fetched in one extra round trip.
    assert client.full_reply_fetches == 2
    assert all(lat < MILLISECOND for lat in stalled[1:])
    assert all(lat < MILLISECOND for slot, lat in latencies if slot != 2)
    for replica in cluster.replicas:
        if not replica.crashed:
            assert replica.stats["readonly_executed"] >= 12
