"""Guest-memory store on a memory-available node.

Holds hash lines swapped out by application execution nodes, keyed by
(owner node, line id) so several application nodes can park lines on the
same host ("Each memory available node may receive swapped out data from
several application execution nodes", §4.3).  Every byte is accounted in
the host node's :class:`~repro.cluster.memory.MemoryLedger`, so external
memory pressure genuinely shrinks what guests may store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import NoMemoryAvailable, SwapError
from repro.mining.hash_table import CandidateHashTable, HashLine
from repro.mining.itemsets import ITEMSET_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node

__all__ = ["RemoteStore"]


class RemoteStore:
    """Swapped-line storage hosted by one memory-available node."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self._lines: dict[tuple[int, int], HashLine] = {}

    @property
    def n_lines(self) -> int:
        """Number of guest lines stored."""
        return len(self._lines)

    # -- swap traffic -----------------------------------------------------------

    def put(self, owner: int, line: HashLine) -> None:
        """Store a swapped-out line; raises :class:`NoMemoryAvailable` if
        the host cannot spare the bytes (shortage situation of §4.2)."""
        key = (owner, line.line_id)
        if key in self._lines:
            raise SwapError(f"line {line.line_id} of node {owner} already stored here")
        if self.node.memory.available_bytes < line.nbytes:
            raise NoMemoryAvailable(
                f"node {self.node.node_id} cannot store {line.nbytes} B "
                f"(available {self.node.memory.available_bytes} B)"
            )
        self.node.memory.allocate(line.nbytes)
        self._lines[key] = line

    def take(self, owner: int, line_id: int) -> HashLine:
        """Remove and return a stored line (pagefault service / migration)."""
        line = self.peek(owner, line_id)
        del self._lines[(owner, line_id)]
        self.node.memory.free(line.nbytes)
        return line

    def peek(self, owner: int, line_id: int) -> HashLine:
        """Read a stored line without removing it (count collection)."""
        line = self._lines.get((owner, line_id))
        if line is None:
            raise SwapError(f"node {self.node.node_id} holds no line {line_id} of {owner}")
        return line

    def holds(self, owner: int, line_id: int) -> bool:
        """Whether the line is stored here."""
        return (owner, line_id) in self._lines

    # -- remote update interface (paper §4.4) -------------------------------------

    def apply_updates(
        self,
        owner: int,
        updates: Iterable[tuple[int, int, int]],
        table: CandidateHashTable,
    ) -> None:
        """Apply a batch of (line_id, code, delta) update records to the
        owner's candidate ``table``.

        ``delta == 0`` means "insert this candidate" (used when candidate
        generation continues after a line was fixed remotely); positive
        deltas are increments from the counting phase.  Application is an
        *upsert* — the first record to mention a code chains it on the
        line, whatever its delta — so a batch is order-independent:
        migrations requeue in-flight records to the line's new holder,
        which can deliver an increment ahead of the insert it logically
        follows, and the final count (the sum of all deltas) must not
        depend on that interleaving.
        """
        for line_id, code, delta in updates:
            line = self.peek(owner, line_id)
            if table.upsert(code, delta):
                # Growing an already-accepted line proceeds even under
                # external pressure (the guest was admitted; only the hard
                # physical capacity still guards the allocation) so that
                # in-flight inserts racing a shortage signal do not fail.
                self.node.memory.allocate(ITEMSET_BYTES)
                line.n_itemsets += 1

    def check_invariants(self) -> None:
        """Assert the host ledger holds exactly the guest lines' bytes
        (only this store allocates on a memory-available node)."""
        ledger = self.node.memory.used_bytes
        held = sum(line.nbytes for line in self._lines.values())
        if held != ledger:
            raise SwapError(f"host ledger {ledger} B != guest lines {held} B")

    # Pass-boundary reset: called from the driver's serial inter-pass
    # section after every counting process has joined the barrier.
    def clear(self) -> None:
        """Drop all guest lines, returning their bytes (end of pass)."""
        for line in self._lines.values():
            self.node.memory.free(line.nbytes)
        self._lines.clear()
