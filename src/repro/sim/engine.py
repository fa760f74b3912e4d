"""The simulation environment: virtual clock plus time-ordered event queue.

:class:`Environment` is the entry point of the kernel.  Typical use::

    env = Environment()

    def worker(env):
        yield env.timeout(3.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 3.0

The scheduler is a two-level calendar: events due exactly *now* go to
O(1) FIFO lanes (one per priority — the overwhelmingly common case, as
every wake-up, grant, and message hand-off is scheduled with zero
delay), and only genuinely future events pay the ``heapq`` log-n cost.
Total order is identical to a single global heap keyed by
``(time, priority, insertion)``; see :meth:`Environment.step` for the
invariant that makes the split sound.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Iterable, Optional

from repro.errors import EmptySchedule, StopSimulation
from repro.sim.events import NORMAL, PENDING, URGENT, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

__all__ = ["Environment"]


class Environment:
    """Discrete-event execution environment with a floating-point clock.

    Events scheduled at the same time are processed in (priority,
    insertion-order), making simulations fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Future events only: (time, priority, eid, event), time > now
        #: at push time (modulo float round-down, see :meth:`schedule`).
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Events due exactly now, per priority, in insertion order.
        self._urgent: deque[Event] = deque()
        self._normal: deque[Event] = deque()
        self._eid = 0
        self._active_proc: Optional[Process] = None
        #: Recycled one-shot timeouts handed out by :meth:`sleep`.
        self._timeout_pool: list[Timeout] = []
        #: Total events processed so far (the sim-kernel bench's workload
        #: denominator; incrementing it never changes the schedule).
        self.events_processed = 0
        #: Optional tie-shuffling RNG (see :meth:`set_tie_shuffle`).
        self._tie_rng: Optional[Any] = None

    def set_tie_shuffle(self, rng: Optional[Any]) -> None:
        """Perturb the order of same-``(time, priority)`` lane events.

        When ``rng`` (anything with ``randrange``) is set, the dispatch
        loop pops a *random* entry from the due lane instead of the
        oldest one.  Every such order is a legal schedule — the lane
        holds exactly the events due now at one priority, and causally
        produced events still run after their producers — so any result
        divergence under shuffling is a schedule race.  The schedule
        fuzzer (``tests/integration/test_schedule_perturbation.py``) is
        its one caller; it is never enabled in production runs.
        """
        self._tie_rng = rng

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- factory helpers -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """A pooled :class:`Timeout` for fire-and-forget waits.

        Semantically identical to ``timeout(delay)`` but the event object
        is recycled once processed, so hot loops doing
        ``yield env.sleep(d)`` allocate nothing.  The caller must not
        keep a reference past the yield (no conditions, no storing).
        """
        pool = self._timeout_pool
        if not pool:
            t = Timeout(self, delay)
            t._pooled = True
            return t
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        t = pool.pop()
        t.callbacks = []
        t._value = None
        t._defused = False
        t._delay = delay
        # Inlined schedule(t, delay=delay) at NORMAL priority.
        at = self._now + delay
        if at == self._now:
            self._normal.append(t)
        else:
            self._eid += 1
            heapq.heappush(self._heap, (at, NORMAL, self._eid, t))
        return t

    def process(self, generator: ProcessGenerator) -> Process:
        """Start ``generator`` as a new process at the current time."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition triggering when every event in ``events`` has triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition triggering when any event in ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling / execution ------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` for processing ``delay`` time units from now.

        Routing is by the *computed* due time: anything that lands on the
        current clock value — including a positive delay too small to move
        the float — goes to the O(1) lane for its priority, exactly where
        a global heap would have ordered it.
        """
        at = self._now + delay
        if at == self._now:
            if priority == NORMAL:
                self._normal.append(event)
                return
            if priority == URGENT:
                self._urgent.append(event)
                return
        self._eid += 1
        heapq.heappush(self._heap, (at, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if self._urgent or self._normal:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    @staticmethod
    def _pop_lane(lane: "deque[Event]", rng: Optional[Any]) -> Event:
        """Pop the next lane entry — the oldest, or a random one when
        tie shuffling is on (any lane entry is legal; see
        :meth:`set_tie_shuffle`)."""
        if rng is not None and len(lane) > 1:
            i = rng.randrange(len(lane))
            event = lane[i]
            del lane[i]
            return event
        return lane.popleft()

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`~repro.errors.EmptySchedule` when the queue is empty
        and re-raises the value of any failed event nobody defused.

        Selection invariant: a heap entry due *now* was necessarily pushed
        before the clock reached now (later pushes at this time go to the
        lanes), so it predates — and at equal priority precedes — every
        lane entry.  The lanes themselves are drained before the clock may
        advance, keeping the (time, priority, insertion) total order of a
        single global heap.

        The one extra the fast loop in :meth:`run` never pays for is the
        tie-shuffling RNG (without it, the oldest lane entry is popped).
        """
        heap = self._heap
        rng = self._tie_rng
        if self._urgent:
            if heap and heap[0][0] == self._now and heap[0][1] <= URGENT:
                event = heapq.heappop(heap)[3]
            else:
                event = self._pop_lane(self._urgent, rng)
        elif self._normal:
            if heap and heap[0][0] == self._now and heap[0][1] <= NORMAL:
                event = heapq.heappop(heap)[3]
            else:
                event = self._pop_lane(self._normal, rng)
        elif heap:
            entry = heapq.heappop(heap)
            self._now = entry[0]
            event = entry[3]
        else:
            raise EmptySchedule("no more events scheduled")

        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            assert isinstance(exc, BaseException)
            raise exc
        if event._pooled:
            self._timeout_pool.append(event)  # type: ignore[arg-type]

    def run(self, until: "float | Event | None" = None) -> object:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until the clock reaches it), or an :class:`Event` (run until
        it is processed, returning its value).
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    # Already processed.
                    return stop_event._value
                stop_event.callbacks.append(self._stop_callback)
            else:
                at = float(until)
                if at <= self._now:
                    raise EmptySchedule(
                        f"no more events scheduled before until={at} "
                        f"(now={self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                # NORMAL priority: same-time events scheduled earlier still run.
                self.schedule(stop_event, delay=at - self._now)
                stop_event.callbacks.append(self._stop_callback)

        # The dispatch loop is step() minus tie shuffling, inlined (one
        # function call per event is ~10% of kernel floor) with hot names
        # bound locally.  Selection must stay identical — see the
        # invariant documented there.
        heap = self._heap
        urgent = self._urgent
        normal = self._normal
        heappop = heapq.heappop
        pool = self._timeout_pool
        try:
            # Tie shuffling goes event by event through step(), so this
            # one check is its entire cost when it is off.
            if self._tie_rng is not None:
                while True:
                    self.step()
            while True:
                if urgent:
                    if heap and heap[0][0] == self._now and heap[0][1] <= URGENT:
                        event = heappop(heap)[3]
                    else:
                        event = urgent.popleft()
                elif normal:
                    if heap and heap[0][0] == self._now and heap[0][1] <= NORMAL:
                        event = heappop(heap)[3]
                    else:
                        event = normal.popleft()
                elif heap:
                    entry = heappop(heap)
                    self._now = entry[0]
                    event = entry[3]
                else:
                    raise EmptySchedule("no more events scheduled")

                self.events_processed += 1
                callbacks, event.callbacks = event.callbacks, None
                assert callbacks is not None, "event processed twice"
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    exc = event._value
                    assert isinstance(exc, BaseException)
                    raise exc
                if event._pooled:
                    pool.append(event)  # type: ignore[arg-type]
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if stop_event is not None and stop_event._value is PENDING:
                raise RuntimeError(
                    "simulation ended before the awaited event was triggered"
                ) from None
            return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        # Propagate the failure of the awaited event to the caller of run().
        event._defused = True
        exc = event._value
        assert isinstance(exc, BaseException)
        raise exc
