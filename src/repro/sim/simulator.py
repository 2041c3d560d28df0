"""The event-queue simulator and cancellable timers."""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.common.errors import ConfigError

# Cancelled timers are collected out of a queue longer than this floor
# once more than this fraction of it is cancelled timers: the rule and the
# values of CPython's asyncio loop (base_events._MIN_SCHEDULED_TIMER_HANDLES,
# _MIN_CANCELLED_TIMER_HANDLES_FRACTION).
_COLLECT_MIN_QUEUED = 100
_COLLECT_CANCELLED_FRACTION = 0.5


class Timer:
    """A handle to a scheduled event that can be cancelled.

    PBFT replicas and clients use many timers (request retransmission,
    view-change, checkpoint, authenticator rebroadcast).  Cancellation is
    lazy: a cancelled timer stays in the heap, its callback skipped when it
    pops, until cancelled timers are most of the heap and the simulator
    collects them (:meth:`Simulator._collect`).
    """

    __slots__ = ("deadline", "callback", "cancelled", "fired", "_sim")

    def __init__(self, deadline: int, callback: Callable[[], None], sim: Simulator) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the timer's callback from running."""
        queued = self.pending
        self.cancelled = True
        if queued:
            sim = self._sim
            sim._events_cancelled += 1
            sim._cancelled_queued += 1
            sim._collect()

    def _fire(self) -> None:
        # The heap entry's ``fn``: the plain function ``Timer._fire``, so
        # scheduling a timer builds no bound method.
        if self.cancelled:
            self._sim._cancelled_queued -= 1
            return
        self.fired = True
        self.callback()

    @property
    def pending(self) -> bool:
        """True while the timer is armed and has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired


class Simulator:
    """A deterministic discrete-event simulator.

    An event is a ``(when, seq, fn, arg)`` tuple on one heap; running it is
    ``fn(arg)``.  Events scheduled for the same instant run in scheduling
    order (the monotonically increasing ``seq`` makes the heap stable),
    which keeps runs bit-for-bit reproducible.  A :class:`Timer` is an
    ordinary event whose ``fn`` looks at the timer's cancelled flag.

    Cancelling a pending timer counts it, once.  Cancelled timers still
    queued are counted apart; when they are more than half of a queue
    longer than ``_COLLECT_MIN_QUEUED`` -- checked when a pending timer is
    cancelled and at the end of every run -- the heap is rebuilt from its
    live entries.  ``(when, seq)`` orders the entries totally, so removing
    entries that would only have been popped and skipped changes nothing
    that runs, or when.
    """

    def __init__(self) -> None:
        #: Current simulated time in nanoseconds (read-only for callers).
        self.now: int = 0
        self._queue: list[tuple[int, int, Callable, object]] = []
        self._seq: int = 0
        self._events_cancelled: int = 0
        self._cancelled_queued: int = 0
        self._max_queue_len: int = 0

    @property
    def events_run(self) -> int:
        """Total number of event callbacks executed so far.

        Every event that left the queue either ran or was a cancelled
        timer (popped or collected) -- every cancelled timer but the
        ``_cancelled_queued`` still in the queue -- so nothing is counted
        per event.
        """
        return (self._seq - len(self._queue)
                - self._events_cancelled + self._cancelled_queued)

    @property
    def events_scheduled(self) -> int:
        """Total number of events ever scheduled."""
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Pending timers cancelled: the protocol's churn, whenever (and
        whether) their heap entries were popped or collected."""
        return self._events_cancelled

    @property
    def max_queue_len(self) -> int:
        """High-water mark of the event queue."""
        return self._max_queue_len

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled timers not yet
        collected)."""
        return len(self._queue)

    def collect_metrics(self, registry, prefix: str = "sim.") -> None:
        """Publish event-loop counters into a metrics registry."""
        registry.gauge(prefix + "now_ns").set(self.now)
        registry.gauge(prefix + "events_run").set(self.events_run)
        registry.gauge(prefix + "events_scheduled").set(self._seq)
        registry.gauge(prefix + "events_cancelled").set(self._events_cancelled)
        registry.gauge(prefix + "pending_events").set(len(self._queue))
        registry.gauge(prefix + "max_queue_len").set(self._max_queue_len)

    def schedule(self, delay: int, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ConfigError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: int, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run at absolute time ``when``."""
        timer = Timer(when, callback, self)
        self.schedule_call(when, Timer._fire, timer)
        return timer

    def schedule_call(self, when: int, fn: Callable[[object], None], arg: object) -> None:
        """Schedule ``fn(arg)`` at absolute time ``when``, with no handle.

        The per-datagram lane (packet delivery, CPU-queue completions)
        schedules an event per datagram and never cancels it, so it passes
        a bound method plus its one argument instead of allocating a
        closure and a :class:`Timer`.
        """
        if when < self.now:
            raise ConfigError(
                f"cannot schedule at t={when} which is before now={self.now}"
            )
        queue = self._queue
        heapq.heappush(queue, (when, self._seq, fn, arg))
        self._seq += 1
        if len(queue) > self._max_queue_len:
            self._max_queue_len = len(queue)

    def _collect(self) -> None:
        """Drop the queued cancelled timers if they are most of the queue.

        The rebuild is in place: ``run`` and ``run_until`` hold the list.
        """
        queue = self._queue
        if (len(queue) <= _COLLECT_MIN_QUEUED
                or self._cancelled_queued <= len(queue) * _COLLECT_CANCELLED_FRACTION):
            return
        fire = Timer._fire
        live = [entry for entry in queue if entry[2] is not fire or not entry[3].cancelled]
        self._cancelled_queued = 0
        queue[:] = live
        heapq.heapify(queue)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` callbacks ran).

        Cancelled timers popped on the way ran nothing and do not count
        against ``max_events``.  The clock ends at the last event popped, so
        a cancelled timer collected before it popped leaves ``now`` where
        the event before it put it.
        """
        stop = float("inf") if max_events is None else self.events_run + max_events
        queue = self._queue
        while queue and self.events_run < stop:
            when, _seq, fn, arg = heapq.heappop(queue)
            self.now = when
            fn(arg)
        self._collect()

    def run_until(self, deadline: int) -> None:
        """Run all events with time <= ``deadline``; advance the clock to it.

        Events scheduled beyond the deadline stay queued, so a later
        ``run_until`` continues seamlessly.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= deadline:
            when, _seq, fn, arg = pop(queue)
            self.now = when
            fn(arg)
        self._collect()
        if deadline > self.now:
            self.now = deadline

    def run_for(self, duration: int) -> None:
        """Run for ``duration`` nanoseconds of simulated time."""
        self.run_until(self.now + duration)
