"""Message stores: FIFO queues between processes.

:class:`Store` is an unbounded FIFO of arbitrary items; it backs the
cluster's mailboxes.  Every put and get settles at once, in O(1),
because stored items and waiting getters are never both present
between calls.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Store"]


class Store:
    """Unbounded FIFO item queue.

    ``put(item)`` returns an event that has already succeeded;
    ``get()`` returns an event that succeeds with the next item.  When a
    put feeds a waiting getter, the put's event is scheduled before the
    getter's.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: deque[object] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: object) -> Event:
        """Insert ``item``; the returned event has already succeeded."""
        event = Event(self.env).succeed()
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
        return event

    def get(self) -> Event:
        """Request the next item; the returned event succeeds with it."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} items={len(self.items)}>"
