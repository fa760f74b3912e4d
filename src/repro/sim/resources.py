"""Shared resources with bounded capacity (semaphores with queueing).

:class:`Resource` models anything a process must hold exclusively for a
while — a CPU, a disk arm, a link transmit slot.  Requests queue in FIFO
order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Request", "Resource"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager: leaving the ``with`` block releases the
    resource (or cancels the request if it never succeeded).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel() if not self.triggered else self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A capacity-``capacity`` semaphore with FIFO queueing.

    Processes claim a unit with ``yield resource.request()`` and return it
    with ``resource.release(req)`` (or use the request as a context
    manager).
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
        # Recycled request events: a request/release cycle is the
        # kernel's most allocated pattern, and a finished event is
        # indistinguishable from a fresh one once its trigger state is
        # reset.  Requests return to the pool when they are released
        # (the claim is provably over).
        self._req_pool: list[Request] = []

    @property
    def capacity(self) -> int:
        """Total number of concurrent holders allowed."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Create (and possibly immediately grant) a claim on the resource."""
        pool = self._req_pool
        if pool:
            req = pool.pop()
            req.callbacks = []
            req._defused = False
            # Inlined _do_request + succeed: a recycled request is known
            # untriggered (_ok stayed True), so the grant is a bare
            # now-lane append.
            if len(self.users) < self._capacity:
                self.users.append(req)
                req._value = None
                self.env._normal.append(req)
            else:
                req._value = PENDING
                self.queue.append(req)
            return req
        return Request(self)

    def release(self, request: Request) -> None:
        """Give back a previously granted claim.  Nothing can wait on a
        release, so it schedules no event of its own: the freed unit goes
        straight to the next waiter."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                f"{request!r} was not holding {self!r}"
            ) from None
        self._grant_next()
        if request.callbacks is None:
            # The grant was processed and the claim is over: nothing can
            # reach this event again, so it is safe to recycle.  The
            # release of a triggered-but-unprocessed grant simply skips
            # the pool.
            self._req_pool.append(request)

    # -- internals --------------------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _grant_next(self) -> None:
        # One wake pass per release: grant every waiter a free unit can
        # serve before control returns to the event loop.  Queued waiters
        # are untriggered by invariant, so the grant inlines succeed().
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt._value = None
            self.env._normal.append(nxt)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} count={self.count}/{self._capacity} "
            f"queued={len(self.queue)}>"
        )
