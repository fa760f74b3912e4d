"""Swapping to the local disk — the baseline of Figure 4.

One hash line occupies one 4 KB block in the swap area; every fault and
every swap-out is a random-access I/O on the node's SCSI disk, paying
average seek + rotational latency + transfer each time (>= 13 ms on the
Barracuda, >= 7.5 ms even on the 12 000 rpm HITACHI — paper §5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.analysis.cost_model import CostModel
from repro.core.memory_table import LineState, MemoryManagementTable
from repro.core.pager import Pager
from repro.errors import SwapError
from repro.mining.hash_table import HashLine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node

__all__ = ["DiskPager"]


class DiskPager(Pager):
    """Hash-line swapping against the node's local swap disk."""

    name = "disk"

    def __init__(self, node: "Node", table: MemoryManagementTable, cost: CostModel) -> None:
        super().__init__(node, table, cost)
        self._on_disk: dict[int, HashLine] = {}

    def evict(self, line: HashLine) -> Generator:
        if line.line_id in self._on_disk:
            raise SwapError(f"line {line.line_id} already on disk")
        block = self.cost.line_message_bytes()
        # State transition commits synchronously (before the I/O time is
        # paid) so a concurrent access sees a consistent DISK state and
        # queues behind this write on the disk arm.
        self._on_disk[line.line_id] = line
        self.table.set_disk(line.line_id)
        self.stats.swap_outs += 1
        self.stats.bytes_swapped_out += block
        self._emit("swap-out", line=line.line_id, bytes=block)
        return self._pay_evict(block)

    def _pay_evict(self, block: int) -> Generator:
        start = self.node.env.now
        yield from self.node.swap_disk.write(block)
        self._emit("swap-cost", duration_s=self.node.env.now - start, bytes=block)

    def fault_in(self, line_id: int) -> Generator:
        if self.table.state(line_id) is not LineState.DISK:
            raise SwapError(f"line {line_id} is not on disk")
        start = self.node.env.now
        block = self.cost.line_message_bytes()
        yield from self.node.swap_disk.read(block)
        line = self._on_disk.pop(line_id)
        self.table.set_resident(line_id)
        self.stats.faults += 1
        self.stats.bytes_faulted_in += block
        duration = self.node.env.now - start
        self.stats.fault_time_s += duration
        self._emit("fault", line=line_id, duration_s=duration, bytes=block)
        return line

    def peek_line(self, line_id: int) -> Generator:
        if self.table.state(line_id) is not LineState.DISK:
            raise SwapError(f"line {line_id} is not on disk")
        yield from self.node.swap_disk.read(self.cost.line_message_bytes())
        self.stats.peeks += 1
        return self._on_disk[line_id]

    def stored_line(self, line_id: int) -> HashLine:
        return self._on_disk[line_id]

    def reset_pass(self) -> None:
        self._on_disk.clear()
