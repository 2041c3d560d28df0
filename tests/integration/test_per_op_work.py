"""Host work per operation on the normal path, pinned by count.

The simulated numbers of a run are pinned elsewhere (``bench/golden.json``,
``test_determinism.py``); this file pins how much host bookkeeping one
null operation costs, so a change that quietly brings back per-op work
fails here with the number instead of as a slower ledger row:

* ``Reply`` objects: one per executing replica (4) plus a digest-only twin
  from each replica that is not the designated replier (3).  A reply that
  later turns stable is copied only when it is resent or checkpointed —
  at most once per client per checkpoint, not once per request.
* ``StatsView`` mapping calls: none.  Counters are bumped with ``inc``;
  ``stats[key] += 1`` would cost a ``__getitem__`` and a ``__setitem__``
  per bump.
* Queued events: the live ones plus at most as many cancelled timers.
  Every executed batch re-arms each backup's view-change timer and every
  op arms a client retransmit timer; were cancelled timers kept until
  their far-future deadline popped, the heap would grow by thousands.
* Frozen pages: one object per content.  The four replicas write the same
  pages and their checkpoints hold them again; every copy is interned to
  one shared object (56 objects for 14 contents without it).
"""

from collections import Counter

import pytest

from repro.obs.metrics import StatsView
from repro.pbft.cluster import build_cluster
from repro.pbft.config import PbftConfig
from repro.pbft.messages import Reply
from repro.pbft.replica import NullApplication

SIM_WINDOW_NS = 30_000_000  # ≈ 500 ops at the 12-client null load


@pytest.fixture()
def counted(monkeypatch):
    """Count calls of the wrapped methods while the test runs."""
    counts = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[f"{cls.__name__}.{name}"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    count(Reply, "__init__")
    count(StatsView, "__getitem__")
    count(StatsView, "__setitem__")
    return counts


def run_null_closed_loop(window_ns: int):
    """12 clients, one 1 KiB null op outstanding each, for ``window_ns`` of
    simulated time; returns the cluster."""
    cluster = build_cluster(
        PbftConfig(), seed=3, real_crypto=False,
        app_factory=lambda: NullApplication(reply_size=1024),
    )
    payload = bytes(1024)

    def closed_loop(client):
        client.invoke(payload, callback=lambda _result, _latency: closed_loop(client))

    for client in cluster.clients:
        closed_loop(client)
    cluster.run_for(window_ns)
    cluster.stop_clients()
    return cluster


def test_normal_case_reply_objects_and_stats_calls_per_op(counted):
    completed = run_null_closed_loop(SIM_WINDOW_NS).total_completed()
    assert completed >= 400
    replies_per_op = counted["Reply.__init__"] / completed
    mapping_calls = counted["StatsView.__getitem__"] + counted["StatsView.__setitem__"]
    # 7.0 per op in steady state; the slack covers the ops still in flight
    # when the window closes and one stable copy per client per checkpoint.
    assert 6.9 <= replies_per_op <= 7.1, f"{replies_per_op:.2f} Reply objects per op"
    assert mapping_calls == 0, f"{mapping_calls / completed:.2f} StatsView mapping calls per op"


@pytest.fixture(scope="module")
def long_run():
    """A 200 ms run, long enough for checkpoints (one per 128 batches)."""
    return run_null_closed_loop(200_000_000)


def test_event_heap_holds_live_events_not_cancelled_timers(long_run):
    assert long_run.total_completed() >= 2_000
    # 159 at seed 3; 5,005 with every cancelled timer left in the heap.
    assert long_run.sim.max_queue_len < 1_000, f"{long_run.sim.max_queue_len} queued events"


def test_each_frozen_page_content_is_one_object(long_run):
    frozen = {}
    for replica in long_run.replicas:
        held = [page for cp in replica.checkpoints._by_seq.values() for page in cp.pages]
        for page in replica.state._pages + held:
            if page.__class__ is bytes:  # an open buffer is not frozen yet
                frozen[id(page)] = page
    contents = set(frozen.values())
    assert len(contents) > 1
    assert len(frozen) == len(contents), f"{len(frozen)} page objects, {len(contents)} contents"
