"""Pager interface: how a hash line leaves and re-enters local memory.

Three concrete pagers implement the paper's three §5 mechanisms:

- :class:`~repro.core.disk_pager.DiskPager` — swap to the local SCSI disk
  (the baseline the paper beats);
- :class:`~repro.core.remote_pager.RemoteMemoryPager` — dynamic remote
  memory acquisition with simple swapping (§5.2);
- :class:`~repro.core.remote_pager.RemoteUpdatePager` — remote update
  operations (§5.3, the winner).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Iterator, Optional

from repro.analysis.cost_model import CostModel
from repro.core.memory_table import MemoryManagementTable
from repro.mining.hash_table import CandidateHashTable, HashLine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node
    from repro.core.placement import PlacementPolicy
    from repro.obs.events import EventBus

__all__ = ["Pager", "PagerStats"]


@dataclass
class PagerStats:
    """Counters one pager accumulates over a pass."""

    swap_outs: int = 0
    faults: int = 0
    bytes_swapped_out: int = 0
    bytes_faulted_in: int = 0
    fault_time_s: float = 0.0
    peeks: int = 0
    update_messages: int = 0
    updates_sent: int = 0
    migrations: int = 0
    lines_migrated: int = 0
    placement_rejections: int = 0

    def mean_fault_time_s(self) -> float:
        """Average wall-clock (virtual) duration of one pagefault."""
        return self.fault_time_s / self.faults if self.faults else 0.0


class Pager(ABC):
    """Moves hash lines between an application node and a swap device."""

    name: str = "abstract"
    #: True if the pager pins swapped lines remotely and accepts
    #: update records instead of faulting (paper §4.4).
    supports_remote_update: bool = False

    def __init__(
        self,
        node: "Node",
        table: MemoryManagementTable,
        cost: CostModel,
    ) -> None:
        self.node = node
        self.table = table
        self.cost = cost
        self.stats = PagerStats()
        #: Next pager in the eviction chain (remote pagers set this to a
        #: :class:`~repro.core.disk_pager.DiskPager` when the
        #: ``disk_fallback`` extension is on); ``None`` terminates the
        #: chain.  Part of the typed interface — consumers walk
        #: :meth:`chain` instead of ``getattr(pager, "fallback", ...)``.
        self.fallback: Optional["Pager"] = None
        #: Destination placement policy (remote pagers only).
        self.placement: Optional["PlacementPolicy"] = None
        #: Telemetry event bus, wired by
        #: :meth:`repro.obs.telemetry.Telemetry.attach`.
        self.bus: "Optional[EventBus]" = None
        #: The pass's candidate table (set by ``SwapManager.begin_pass``):
        #: where a holder applies the update records this pager ships.
        self.candidates: Optional[CandidateHashTable] = None

    def _emit(self, kind: str, **fields: object) -> None:
        """Publish one typed event (faults, evictions, migrations); with
        no bus attached this is one attribute check."""
        if self.bus is not None:
            self.bus.emit(kind, self.node.node_id, source=self.name, **fields)

    @abstractmethod
    def evict(self, line: HashLine) -> Generator:
        """Commit ``line``'s move out of local memory *synchronously*
        (management table and destination storage are updated before this
        method returns) and return a generator that pays the transfer /
        I/O time.  The caller may run that generator in the background so
        eviction overlaps computation — the committed state stays
        consistent either way."""

    def swap_out(self, line: HashLine) -> Generator:
        """Evict ``line`` and pay its full cost inline (blocking form)."""
        yield from self.evict(line)

    @abstractmethod
    def fault_in(self, line_id: int) -> Generator:
        """Bring a swapped line back; returns the :class:`HashLine`."""

    @abstractmethod
    def peek_line(self, line_id: int) -> Generator:
        """Fetch a swapped line's contents for reading (determination
        phase) without changing its residency; returns the line."""

    def stored_line(self, line_id: int) -> HashLine:
        """The swapped-out line, read where the management table says it
        is.  Host-side (no simulated cost): invariant checks only."""
        raise NotImplementedError

    def buffer_update(
        self, line_id: int, code: int, delta: int
    ) -> Optional[Generator]:
        """Queue an update for a remote-fixed line (remote-update pagers only).

        Returns ``None`` when the record was buffered synchronously, or a
        generator the caller must drive when a flush is required.
        """
        raise NotImplementedError(f"{self.name} pager does not support remote updates")

    def updates_outstanding(self) -> bool:
        """Whether any update record is still buffered or in flight."""
        return False

    def drain(self) -> Generator:
        """Wait until all asynchronous pager work (update posts) finished."""
        return
        yield  # pragma: no cover - makes this a generator function

    def migrate_from(self, node_id: int) -> Generator:
        """React to a shortage on memory-available node ``node_id``
        (no-op for pagers that do not place data remotely)."""
        return
        yield  # pragma: no cover - makes this a generator function

    def chain(self) -> Iterator["Pager"]:
        """This pager followed by its fallback chain, in eviction order."""
        pager: Optional[Pager] = self
        while pager is not None:
            yield pager
            pager = pager.fallback

    def reset_pass(self) -> None:
        """Clear per-pass state (swapped contents); stats are cumulative."""
