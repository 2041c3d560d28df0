"""Property tests for the simulation kernel: ordering and determinism."""

import heapq

from hypothesis import given, settings, strategies as st

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
# re-arm, with callbacks that run nested programs, interleaved with
# run_until / run_for / run(max_events).  The same program drives the real
# Simulator and the plain model below; everything observable must agree.


class _RefTimer:
    def __init__(self, callback):
        self.callback, self.cancelled, self.fired = callback, False, False

    def cancel(self):
        self.cancelled = True


class _RefSim:
    """The obvious kernel: one heap of (when, seq, entry), counted per pop."""

    def __init__(self):
        self.now = self.events_scheduled = self.events_run = 0
        self.events_cancelled = self.max_queue_len = 0
        self.heap = []

    def _push(self, when, entry):
        assert when >= self.now
        heapq.heappush(self.heap, (when, self.events_scheduled, entry))
        self.events_scheduled += 1
        self.max_queue_len = max(self.max_queue_len, len(self.heap))

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when, callback):
        timer = _RefTimer(callback)
        self._push(when, timer)
        return timer

    def schedule_call(self, when, fn, arg):
        self._push(when, (fn, arg))

    def _step(self):
        self.now, _, entry = heapq.heappop(self.heap)
        if isinstance(entry, _RefTimer):
            if entry.cancelled:
                self.events_cancelled += 1
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
        self.now = max(self.now, deadline)

    def run_for(self, duration):
        self.run_until(self.now + duration)

    def run(self, max_events=None):
        target = None if max_events is None else self.events_run + max_events
        while self.heap and (target is None or self.events_run < target):
            self._step()

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


def _interpret(sim, program):
    """Run ``program`` on ``sim``; return the per-step observable history."""
    fired, timers, labels = [], [], iter(range(10**9))

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
                    timers.append(sim.schedule(action[1], lambda job=job: fire(job)))
                elif kind == "schedule_at":
                    timers.append(sim.schedule_at(sim.now + action[1], lambda job=job: fire(job)))
                else:
                    sim.schedule_call(sim.now + action[1], fire, job)
            elif kind == "cancel" and timers:
                timers[action[1] % len(timers)].cancel()
            elif kind == "rearm" and timers:
                slot = action[1] % len(timers)
                timers[slot].cancel()
                job = (next(labels), action[3])
                timers[slot] = sim.schedule(action[2], lambda job=job: fire(job))

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
            [(t.cancelled, t.fired) for t in timers],
        ))
    return history


@given(program=_programs)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_heap_model(program):
    real = _interpret(Simulator(), program)
    model = _interpret(_RefSim(), program)
    assert real == model
    assert real[-1][-2] == 0  # the final run() drained the queue
