"""Per-node memory accounting.

The paper's mechanism is *application level*: what matters is how many
bytes of candidate itemsets (and of guest swap data) each node currently
holds, and how much of the node's physical memory other workloads are
using.  :class:`MemoryLedger` tracks exactly that, with an
``external_pressure`` knob used by the migration experiments to pretend a
new process has claimed the machine's memory (paper §5.4's signal).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MemoryLedgerError

__all__ = ["MemoryLedger"]


class MemoryLedger:
    """Byte-granular allocate/free ledger with an availability view.

    ``available`` is what a monitor process would report: capacity minus
    everything allocated minus memory claimed by unrelated local
    processes (``external_pressure``).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise MemoryLedgerError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._used = 0
        self._external = 0
        #: Optional hook invoked after every state change (monitors use it).
        self.on_change: Optional[Callable[["MemoryLedger"], None]] = None

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated through this ledger."""
        return self._used

    @property
    def external_pressure_bytes(self) -> int:
        """Bytes claimed by simulated unrelated processes on the node."""
        return self._external

    @property
    def available_bytes(self) -> int:
        """Bytes a guest could still claim (never negative)."""
        return max(0, self.capacity_bytes - self._used - self._external)

    def allocate(self, nbytes: int) -> None:
        """Claim ``nbytes``; raises if the node would be over-committed."""
        if nbytes < 0:
            raise MemoryLedgerError(f"cannot allocate negative bytes ({nbytes})")
        if self._used + nbytes > self.capacity_bytes:
            raise MemoryLedgerError(
                f"allocation of {nbytes} B exceeds capacity "
                f"({self._used}/{self.capacity_bytes} B used)"
            )
        self._used += nbytes
        self._notify()

    def free(self, nbytes: int) -> None:
        """Return ``nbytes``; raises if more is freed than was allocated."""
        if nbytes < 0:
            raise MemoryLedgerError(f"cannot free negative bytes ({nbytes})")
        if nbytes > self._used:
            raise MemoryLedgerError(
                f"freeing {nbytes} B but only {self._used} B are allocated"
            )
        self._used -= nbytes
        self._notify()

    def set_external_pressure(self, nbytes: int) -> None:
        """Simulate unrelated processes claiming ``nbytes`` of the node.

        Used by the migration experiments: a memory-available node that
        "pretends to have no available memory anymore" simply gets
        pressure equal to its capacity.
        """
        if nbytes < 0:
            raise MemoryLedgerError(f"external pressure cannot be negative ({nbytes})")
        self._external = int(nbytes)
        self._notify()

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MemoryLedger used={self._used}/{self.capacity_bytes} "
            f"external={self._external}>"
        )
