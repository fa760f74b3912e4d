"""Message stores: FIFO queues between processes.

:class:`Store` is an unbounded-or-bounded FIFO of arbitrary items; it
backs the cluster's mailboxes.  Every put and get settles at once, in
O(1), because two invariants hold between calls: stored items and
waiting getters are never both present, and a putter waits only while
a bounded store is full.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Store"]


class Store:
    """FIFO item queue with optional capacity bound.

    ``put(item)`` returns an event that succeeds once the item is stored;
    ``get()`` returns an event that succeeds with the next item.  When a
    put feeds a waiting getter, the put's event is scheduled before the
    getter's, and a get that frees a slot is scheduled before the putter
    it admits.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.items: deque[object] = deque()
        self._getters: deque[Event] = deque()
        #: Putters blocked on a full store, oldest first, with their items.
        self._putters: deque[tuple[Event, object]] = deque()

    @property
    def capacity(self) -> float:
        """Maximum number of stored items."""
        return self._capacity

    def put(self, item: object) -> Event:
        """Insert ``item``; the returned event succeeds when accepted."""
        event = Event(self.env)
        if len(self.items) >= self._capacity:
            self._putters.append((event, item))
            return event
        self.items.append(item)
        event.succeed()
        if self._getters:
            self._getters.popleft().succeed(self.items.popleft())
        return event

    def get(self) -> Event:
        """Request the next item; the returned event succeeds with it."""
        event = Event(self.env)
        if not self.items:
            self._getters.append(event)
            return event
        event.succeed(self.items.popleft())
        if self._putters:
            putter, item = self._putters.popleft()
            self.items.append(item)
            putter.succeed()
        return event

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} items={len(self.items)}>"
