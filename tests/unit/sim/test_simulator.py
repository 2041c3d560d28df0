"""The discrete-event kernel."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.simulator import Simulator


def test_time_starts_at_zero():
    assert Simulator().now == 0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100]
    assert sim.now == 100


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(300, lambda: order.append("c"))
    sim.schedule(100, lambda: order.append("a"))
    sim.schedule(200, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(50, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_scheduled_during_events_run():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(10, lambda: seen.append("second"))

    sim.schedule(5, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 15


def test_run_until_stops_at_deadline_and_keeps_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(100))
    sim.schedule(200, lambda: fired.append(200))
    sim.run_until(150)
    assert fired == [100]
    assert sim.now == 150
    sim.run_until(250)
    assert fired == [100, 200]


def test_run_for_is_relative():
    sim = Simulator()
    sim.run_for(500)
    assert sim.now == 500
    sim.run_for(500)
    assert sim.now == 1000


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.schedule(100, lambda: fired.append(1))
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.pending


def test_timer_pending_lifecycle():
    sim = Simulator()
    timer = sim.schedule(100, lambda: None)
    assert timer.pending
    sim.run()
    assert not timer.pending
    assert timer.fired


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ConfigError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(ConfigError):
        sim.schedule_at(50, lambda: None)


def test_max_events_bounds_run():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i + 1, lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_run_counter_skips_cancelled():
    sim = Simulator()
    keep = sim.schedule(10, lambda: None)
    drop = sim.schedule(20, lambda: None)
    drop.cancel()
    sim.run()
    assert sim.events_run == 1
    assert keep.fired


def test_max_events_counts_callbacks_not_cancelled_timers():
    # Regression: a popped cancelled timer used to spend budget without
    # running anything, so run(max_events=3) ran fewer than 3 callbacks.
    sim = Simulator()
    fired = []
    for i in range(10):
        timer = sim.schedule(i + 1, lambda i=i: fired.append(i))
        if i % 2 == 0:
            timer.cancel()
    sim.run(max_events=3)
    assert fired == [1, 3, 5]
    assert sim.events_run == 3
    assert sim.events_cancelled == 5  # every cancel of a pending timer, popped or not
    assert sim.now == 6
    sim.run(max_events=0)
    assert fired == [1, 3, 5]
    sim.run()
    assert fired == [1, 3, 5, 7, 9]
    assert (sim.events_run, sim.events_cancelled, sim.pending_events) == (5, 5, 0)


def test_calls_interleave_with_timers_in_order():
    sim = Simulator()
    order = []
    sim.schedule_call(10, order.append, "call10")
    sim.schedule_at(10, lambda: order.append("timer10"))
    sim.schedule_call(5, order.append, "call5")
    sim.schedule_at(20, lambda: order.append("timer20"))
    sim.run_until(100)
    # Time order, and same-time ties break by scheduling order — handle-free
    # calls share the Timer path's (when, seq) heap keys.
    assert order == ["call5", "call10", "timer10", "timer20"]


def test_call_in_the_past_rejected():
    sim = Simulator()
    sim.schedule_at(50, lambda: None)
    sim.run_until(60)
    with pytest.raises(ConfigError):
        sim.schedule_call(10, print, None)


def test_calls_are_counted_like_timers():
    sim = Simulator()
    fired = []
    sim.schedule_call(1, fired.append, 1)
    sim.schedule_call(2, fired.append, 2)
    sim.run_until(10)
    assert fired == [1, 2]
    assert (sim.events_run, sim.events_scheduled, sim.max_queue_len) == (2, 2, 2)


# -- collecting cancelled timers ------------------------------------------------
#
# Cancelled timers leave the heap early once they are more than half of a
# queue longer than 100 entries (asyncio's rule); until then they are
# popped and skipped.  Either way they never count as run; they count as
# cancelled when cancelled, wherever the rebuilds fall.


def test_cancelled_timers_are_collected_once_they_are_most_of_the_queue():
    sim = Simulator()
    fired = []
    timers = [sim.schedule(i + 1, lambda i=i: fired.append(i)) for i in range(200)]
    for timer in timers[:100]:
        timer.cancel()
    assert sim.pending_events == 200  # exactly half: still queued
    assert (sim.events_run, sim.events_cancelled) == (0, 100)
    timers[100].cancel()
    assert sim.pending_events == 99
    assert (sim.events_run, sim.events_cancelled) == (0, 101)
    sim.run()
    assert fired == list(range(101, 200))
    assert (sim.events_run, sim.events_cancelled, sim.pending_events) == (99, 101, 0)
    assert sim.max_queue_len == 200


def test_only_cancelling_a_pending_timer_counts():
    sim = Simulator()
    timers = [sim.schedule(i + 1, lambda: None) for i in range(150)]
    sim.run_until(1)  # timers[0] fired
    assert timers[0].fired
    for _ in range(3):
        timers[0].cancel()  # already fired: flag only
        for timer in timers[1:75]:
            timer.cancel()  # the second and third time: flag only
    assert timers[0].cancelled
    assert sim.pending_events == 149  # 74 cancelled of 149 queued: not more than half
    timers[75].cancel()
    assert sim.pending_events == 74
    assert sim.events_cancelled == 75


def test_collection_inside_run_until_rebuilds_the_heap_the_loop_reads():
    sim = Simulator()
    fired = []
    far = [sim.schedule(1_000 + i, lambda i=i: fired.append(i)) for i in range(200)]

    def cancel_most():
        for timer in far[:150]:
            timer.cancel()

    sim.schedule(1, cancel_most)
    sim.run_until(5_000)
    assert fired == list(range(150, 200))
    assert (sim.events_run, sim.events_cancelled, sim.pending_events) == (51, 150, 0)


def test_a_run_ends_by_collecting_what_its_pops_left_mostly_cancelled():
    sim = Simulator()
    near = [sim.schedule(1, lambda: None) for _ in range(100)]
    far = [sim.schedule(1_000, lambda: None) for _ in range(160)]
    for timer in far[:120]:
        timer.cancel()  # 120 of 260 queued
    assert sim.pending_events == 260
    sim.run_until(10)  # the 100 near timers ran: 120 of 160 queued are cancelled
    assert all(timer.fired for timer in near)
    assert sim.pending_events == 40
    assert (sim.events_run, sim.events_cancelled) == (100, 120)
