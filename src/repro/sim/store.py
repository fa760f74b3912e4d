"""Message stores: producer/consumer queues between processes.

:class:`Store` is an unbounded-or-bounded FIFO of arbitrary items; it
backs the cluster's mailboxes and transport endpoints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["StorePut", "StoreGet", "Store"]


class StorePut(Event):
    """Pending insertion of ``item`` into a store (may block if bounded)."""

    __slots__ = ("store", "item", "_blocked_once")

    def __init__(self, store: "Store", item: object) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item
        #: Flag for backpressure accounting by bounded-store wrappers
        #: (e.g. the cluster mailbox): lets "this put blocked at least
        #: once" be counted exactly once across settlement rounds.
        self._blocked_once = False
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Pending retrieval of one item from a store."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get from the store's wait queue.

        A no-op once the get has already been granted.
        """
        if not self.triggered:
            try:
                self.store._get_queue.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO item queue with optional capacity bound.

    ``put(item)`` returns an event that succeeds once the item is stored;
    ``get()`` returns an event that succeeds with the next item.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.items: list[object] = []
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    @property
    def capacity(self) -> float:
        """Maximum number of stored items."""
        return self._capacity

    def put(self, item: object) -> StorePut:
        """Insert ``item``; the returned event succeeds when accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Request the next item; the returned event succeeds with it."""
        return StoreGet(self)

    # -- internals --------------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self._capacity:
            self._store_item(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        item = self._select_item(event)
        if item is not _NOTHING:
            event.succeed(item)
            return True
        return False

    def _store_item(self, item: object) -> None:
        self.items.append(item)

    def _select_item(self, event: StoreGet) -> object:
        if self.items:
            return self.items.pop(0)
        return _NOTHING

    def _trigger(self) -> None:
        # Alternate put/get settlement until neither side can progress.
        # Each pass rebuilds the queue from its survivors instead of
        # popping mid-list (quadratic under waiter floods); the scan
        # visits waiters in exactly the original order, which fixes
        # which get matches which item — and therefore the schedule.
        progressed = True
        while progressed:
            progressed = False
            survivors: list[StorePut] = []
            for put_ev in self._put_queue:
                if put_ev.triggered or self._do_put(put_ev):
                    progressed = True
                else:
                    survivors.append(put_ev)
            self._put_queue[:] = survivors
            get_survivors: list[StoreGet] = []
            for get_ev in self._get_queue:
                if get_ev.triggered or self._do_get(get_ev):
                    progressed = True
                else:
                    get_survivors.append(get_ev)
            self._get_queue[:] = get_survivors

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} items={len(self.items)}>"


class _Nothing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<nothing>"


_NOTHING = _Nothing()
