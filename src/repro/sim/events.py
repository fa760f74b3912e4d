"""Core event types for the discrete-event simulation kernel.

The kernel follows the classic SimPy architecture: an
:class:`~repro.sim.engine.Environment` owns a time-ordered event queue;
:class:`Event` objects are one-shot promises with callback lists;
processes (generator coroutines, see :mod:`repro.sim.process`) advance by
yielding events and are resumed when those events are processed.

Only what the cluster substrate runs is here: success/failure values,
the two barriers :class:`AllOf` / :class:`AnyOf` (which succeed without
a value — waiters read the children they need), and defusing of failed
events so an exception observed by a waiting process is not re-raised by
the kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
]


class _Pending:
    """Sentinel for "this event has not been triggered yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Sentinel value stored in an event before it is triggered.
PENDING = _Pending()

#: Scheduling priority for events that must run before same-time normal events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait for.

    An event moves through three states: *pending* (just created),
    *triggered* (given a value and scheduled), and *processed* (its
    callbacks have run).  Events may succeed with a value or fail with an
    exception; a failed event re-raises inside every process waiting on it.

    Events are the kernel's unit allocation; ``__slots__`` throughout the
    hierarchy keeps them dict-free.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_pooled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked (with the event) when the event is processed.
        #: Set to ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: object = PENDING
        self._ok: bool = True
        self._defused: bool = False
        #: ``True`` only for Environment.sleep() timeouts, which the
        #: engine recycles after processing.
        self._pooled: bool = False

    @property
    def triggered(self) -> bool:
        """``True`` once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been executed."""
        return self.callbacks is None

    @property
    def value(self) -> object:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event so calls can be chained/scheduled inline.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): zero delay at NORMAL priority always
        # lands on the now-lane (succeed is the kernel's hottest trigger).
        self.env._normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception`` raised."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of simulated time after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


class Condition(Event):
    """An event that succeeds, without a value, once ``needed`` of its
    child ``events`` have succeeded; a failed child fails it instead.

    :class:`AllOf` and :class:`AnyOf` differ only in ``needed``.
    """

    __slots__ = ("_needed",)

    def __init__(self, env: "Environment", events: "list[Event]", needed: int) -> None:
        super().__init__(env)
        for event in events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
        self._needed = needed
        if not needed:
            self.succeed()
        # Already-processed children count at once; the rest on processing.
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            # A failed child fails the whole condition.
            event._defused = True
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._needed -= 1
        if not self._needed:
            self.succeed()


class AllOf(Condition):
    """Condition that triggers once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        children = list(events)
        super().__init__(env, children, len(children))


class AnyOf(Condition):
    """Condition that triggers once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        children = list(events)
        super().__init__(env, children, min(1, len(children)))
