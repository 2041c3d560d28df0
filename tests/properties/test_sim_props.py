"""Property tests for the simulation kernel: ordering and determinism."""

import heapq
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sim import simulator
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

delays = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60)


@given(schedule=delays)
@settings(max_examples=80)
def test_events_fire_in_nondecreasing_time_order(schedule):
    sim = Simulator()
    fired = []
    for delay in schedule:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(schedule)


@given(schedule=delays)
@settings(max_examples=50)
def test_equal_time_events_fire_in_schedule_order(schedule):
    sim = Simulator()
    fired = []
    fixed_time = 500
    for tag, _ in enumerate(schedule):
        sim.schedule(fixed_time, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list(range(len(schedule)))


@given(
    schedule=delays,
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=60),
)
@settings(max_examples=50)
def test_cancelled_events_never_fire(schedule, cancel_mask):
    sim = Simulator()
    fired = []
    timers = []
    for i, delay in enumerate(schedule):
        timers.append(sim.schedule(delay, lambda i=i: fired.append(i)))
    cancelled = set()
    for i, (timer, cancel) in enumerate(zip(timers, cancel_mask)):
        if cancel:
            timer.cancel()
            cancelled.add(i)
    sim.run()
    assert set(fired).isdisjoint(cancelled)
    assert len(fired) == len(schedule) - len(cancelled & set(range(len(schedule))))


@given(seed=st.integers(min_value=0, max_value=2**32), name=st.text(max_size=10))
@settings(max_examples=60)
def test_rng_streams_reproducible(seed, name):
    a = RngStreams(seed).stream(name)
    b = RngStreams(seed).stream(name)
    assert [a.getrandbits(32) for _ in range(5)] == [
        b.getrandbits(32) for _ in range(5)
    ]


@given(schedule=delays)
@settings(max_examples=30)
def test_run_until_is_equivalent_to_stepped_runs(schedule):
    def run_all_at_once():
        sim = Simulator()
        fired = []
        for delay in schedule:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run_until(20_000)
        return fired

    def run_stepped():
        sim = Simulator()
        fired = []
        for delay in schedule:
            sim.schedule(delay, lambda: fired.append(sim.now))
        for _ in range(20):
            sim.run_for(1_000)
        return fired

    assert run_all_at_once() == run_stepped()


# -- the kernel against a reference heap model ----------------------------------
#
# Random programs of schedule / schedule_at / schedule_call / cancel /
# re-arm / bursts of far-future timers / cancelling every k-th timer, with
# callbacks that run nested programs, interleaved with run_until / run_for /
# run(max_events).  The same program drives the real Simulator and the
# plain model below; everything observable must agree.
#
# The collection rule, as documented on Simulator: on every cancel of a
# pending timer and at the end of every run, if the queue holds more than
# ``floor`` entries and more than half of them are cancelled timers, every
# cancelled timer leaves the queue.  A timer counts as cancelled when a
# cancel finds it pending, however it later leaves the queue.


class _RefTimer:
    def __init__(self, callback, sim):
        self.callback, self.cancelled, self.fired = callback, False, False
        self.sim = sim

    def cancel(self):
        pending = not (self.cancelled or self.fired)
        self.cancelled = True
        if pending:
            self.sim.events_cancelled += 1
            self.sim.cancelled_queued += 1
            self.sim.collect()


class _RefSim:
    """The obvious kernel: one heap of (when, seq, entry), counted per pop."""

    def __init__(self, floor):
        self.now = self.events_scheduled = self.events_run = 0
        self.events_cancelled = self.max_queue_len = self.cancelled_queued = 0
        self.floor = floor
        self.heap = []

    def collect(self):
        if len(self.heap) > self.floor and 2 * self.cancelled_queued > len(self.heap):
            live = [e for e in self.heap if not (isinstance(e[2], _RefTimer) and e[2].cancelled)]
            self.cancelled_queued = 0
            self.heap = live
            heapq.heapify(self.heap)

    def _push(self, when, entry):
        assert when >= self.now
        heapq.heappush(self.heap, (when, self.events_scheduled, entry))
        self.events_scheduled += 1
        self.max_queue_len = max(self.max_queue_len, len(self.heap))

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when, callback):
        timer = _RefTimer(callback, self)
        self._push(when, timer)
        return timer

    def schedule_call(self, when, fn, arg):
        self._push(when, (fn, arg))

    def _step(self):
        self.now, _, entry = heapq.heappop(self.heap)
        if isinstance(entry, _RefTimer):
            if entry.cancelled:
                self.cancelled_queued -= 1
                return
            entry.fired = True
            self.events_run += 1
            entry.callback()
        else:
            self.events_run += 1
            entry[0](entry[1])

    def run_until(self, deadline):
        while self.heap and self.heap[0][0] <= deadline:
            self._step()
        self.collect()
        self.now = max(self.now, deadline)

    def run_for(self, duration):
        self.run_until(self.now + duration)

    def run(self, max_events=None):
        target = None if max_events is None else self.events_run + max_events
        while self.heap and (target is None or self.events_run < target):
            self._step()
        self.collect()

    @property
    def pending_events(self):
        return len(self.heap)


_offsets = st.integers(min_value=0, max_value=40)
_index = st.integers(min_value=0, max_value=1000)


def _actions(nested):
    return st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), _offsets, nested),
            st.tuples(st.just("schedule_at"), _offsets, nested),
            st.tuples(st.just("schedule_call"), _offsets, nested),
            st.tuples(st.just("cancel"), _index),
            st.tuples(st.just("rearm"), _index, _offsets, nested),
            st.tuples(st.just("burst"), st.integers(min_value=1, max_value=12)),
            st.tuples(st.just("cancel_every"), st.integers(min_value=1, max_value=4)),
        ),
        max_size=5,
    )


_nested_actions = st.recursive(st.just([]), _actions, max_leaves=12)
_drivers = st.one_of(
    st.tuples(st.just("run_until"), _offsets),
    st.tuples(st.just("run_for"), _offsets),
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 6))),
)
_programs = st.lists(st.one_of(_actions(_nested_actions).map(lambda a: ("do", a)), _drivers),
                     min_size=1, max_size=12)


def _interpret(sim, program, floor):
    """Run ``program`` on ``sim``; return the per-step observable history.

    After every step the queue is at most twice its live entries plus the
    collection floor."""
    fired, timers, every_timer, labels = [], [], [], iter(range(10**9))

    def arm(timer):
        every_timer.append(timer)
        return timer

    def fire(job):
        label, nested = job
        fired.append((label, sim.now))
        perform(nested)

    def perform(actions):
        for action in actions:
            kind = action[0]
            if kind in ("schedule", "schedule_at", "schedule_call"):
                job = (next(labels), action[2])
                if kind == "schedule":
                    timers.append(arm(sim.schedule(action[1], lambda job=job: fire(job))))
                elif kind == "schedule_at":
                    timers.append(arm(sim.schedule_at(sim.now + action[1],
                                                      lambda job=job: fire(job))))
                else:
                    sim.schedule_call(sim.now + action[1], fire, job)
            elif kind == "cancel" and timers:
                timers[action[1] % len(timers)].cancel()
            elif kind == "rearm" and timers:
                slot = action[1] % len(timers)
                timers[slot].cancel()
                job = (next(labels), action[3])
                timers[slot] = arm(sim.schedule(action[2], lambda job=job: fire(job)))
            elif kind == "burst":
                for i in range(action[1]):
                    job = (next(labels), [])
                    timers.append(arm(sim.schedule(1_000 + i, lambda job=job: fire(job))))
            elif kind == "cancel_every":
                for timer in timers[::action[1]]:
                    timer.cancel()

    history = []
    for step in program + [("run", None)]:
        if step[0] == "do":
            perform(step[1])
        elif step[0] == "run_until":
            sim.run_until(sim.now + step[1])
        elif step[0] == "run_for":
            sim.run_for(step[1])
        else:
            sim.run(step[1])
        history.append((
            list(fired), sim.now, sim.events_run, sim.events_cancelled,
            sim.events_scheduled, sim.max_queue_len, sim.pending_events,
            [(t.cancelled, t.fired) for t in every_timer],
        ))
        cancelled_pending = sum(t.cancelled and not t.fired for t in every_timer)
        live = sim.events_scheduled - sim.events_run - cancelled_pending
        assert sim.pending_events <= 2 * live + floor
    return history


@given(
    program=_programs,
    # The real floor, or one small enough for these short programs to cross.
    floor=st.one_of(st.just(simulator._COLLECT_MIN_QUEUED), st.integers(min_value=0, max_value=8)),
)
@settings(max_examples=500, deadline=None)
def test_kernel_matches_reference_heap_model(program, floor):
    with mock.patch.object(simulator, "_COLLECT_MIN_QUEUED", floor):
        real = _interpret(Simulator(), program, floor)
    model = _interpret(_RefSim(floor), program, floor)
    assert real == model
    assert real[-1][-2] == 0  # the final run() drained the queue
