"""Dynamic decision mechanism for remote memory availability (paper §4.2).

On every *memory-available node* a :class:`MemoryMonitor` process
periodically samples the node's free memory (the paper reads Solaris
kernel statistics via ``netstat -k``; we read the simulated
:class:`~repro.cluster.memory.MemoryLedger`) and broadcasts it to all
application execution nodes.

On every *application execution node* a :class:`MonitorClient` process
receives those broadcasts into a shared availability table that the
application (the pagers) reads at any time to pick swap destinations.
When a broadcast carries the shortage flag, registered handlers fire —
that is what triggers the migration mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.cluster.costs import CostModel
from repro.errors import Interrupt
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node
    from repro.cluster.transport import Transport

__all__ = ["AvailabilityInfo", "MemoryMonitor", "MonitorClient",
           "MONITOR_CHANNEL", "MONITOR_INTERVAL_S"]

#: Transport channel the availability broadcasts travel on.
MONITOR_CHANNEL = "memmon"

#: Default availability-broadcast interval (paper §5.1: 3 s).
MONITOR_INTERVAL_S = 3.0


@dataclass(frozen=True)
class AvailabilityInfo:
    """One availability report from a memory-available node."""

    node_id: int
    available_bytes: int
    shortage: bool
    seq: int
    timestamp: float


class MemoryMonitor:
    """Availability-broadcasting process on one memory-available node."""

    def __init__(
        self,
        node: "Node",
        transport: "Transport",
        client_ids: list[int],
        cost: CostModel,
        interval_s: Optional[float] = None,
    ) -> None:
        self.node = node
        self.transport = transport
        self.client_ids = list(client_ids)
        self.cost = cost
        self.interval_s = MONITOR_INTERVAL_S if interval_s is None else interval_s
        if self.interval_s <= 0:
            raise ValueError(f"monitor interval must be positive, got {self.interval_s}")
        self._seq = 0
        self._shortage = False
        self._proc: Optional[Process] = None
        self.broadcasts_sent = 0

    @property
    def shortage(self) -> bool:
        """Whether this node currently pretends/has no available memory."""
        return self._shortage

    # Build-time wiring: runs once from the driver before the first
    # event dispatch, so no concurrent accessor exists yet.
    def start(self) -> Process:
        """Launch the monitoring loop; returns its process."""
        self._proc = self.node.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        """Terminate the monitoring loop."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")

    def signal_shortage(self) -> None:
        """Paper §5.4's experiment signal: pretend other processes claimed
        all memory, and broadcast the shortage immediately."""
        self._shortage = True
        self.node.memory.set_external_pressure(self.node.memory.capacity_bytes)
        self.node.emit("shortage")
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("broadcast-now")

    def clear_shortage(self) -> None:
        """Lift a previously signalled shortage and broadcast the
        recovery immediately, so stale shortage flags do not linger in
        client tables for up to a monitoring interval — under churn
        several nodes can cycle within one interval, and lingering
        flags would make the whole cluster look dead."""
        self._shortage = False
        self.node.memory.set_external_pressure(0)
        self.node.emit("node-recover")
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("broadcast-now")

    def _run(self) -> Generator:
        env = self.node.env
        while True:
            try:
                yield from self._broadcast()
                yield env.timeout(self.interval_s)
            except Interrupt as intr:
                if intr.cause == "stop":
                    return
                # "broadcast-now": loop immediately re-broadcasts.  The
                # interrupt may land mid-broadcast (shortage state can
                # flip while the monitor is paying per-message CPU);
                # restarting the broadcast sends the fresh truth.

    def _broadcast(self) -> Generator:
        available = 0 if self._shortage else self.node.memory.available_bytes
        # One immutable report serves every client.
        info = AvailabilityInfo(
            node_id=self.node.node_id,
            available_bytes=available,
            shortage=self._shortage,
            seq=self._seq,
            timestamp=self.node.env.now,
        )
        self.node.emit(
            "monitor-broadcast", available_bytes=available,
            shortage=self._shortage, seq=self._seq,
        )
        self._seq += 1
        for client in self.client_ids:
            # Assemble + send one message per application node.
            yield from self.node.compute(self.cost.monitor_cpu_per_message_s)
            self.transport.post(
                self.node.node_id,
                client,
                MONITOR_CHANNEL,
                info,
                self.cost.monitor_message_bytes,
            )
            self.broadcasts_sent += 1


class MonitorClient:
    """Receiving side on one application execution node.

    The availability table plays the role of the paper's shared-memory
    segment between the client process and the application processes.
    """

    def __init__(self, node: "Node", transport: "Transport") -> None:
        self.node = node
        self.transport = transport
        self.table: dict[int, AvailabilityInfo] = {}
        #: node -> estimated available bytes: the report's figure, then
        #: corrected by :meth:`adjust_estimate` until a fresher report.
        self.estimates: dict[int, int] = {}
        #: Generator functions invoked (as new processes) when a node
        #: first reports shortage: ``handler(node_id) -> generator``.
        self.shortage_handlers: list[Callable[[int], Generator]] = []
        self._shortage_seen: set[int] = set()
        self._proc: Optional[Process] = None
        self.reports_received = 0

    # Build-time wiring: runs once from the driver before the first
    # event dispatch, so no concurrent accessor exists yet.
    def start(self) -> Process:
        """Launch the receive loop; returns its process."""
        self._proc = self.node.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        """Terminate the receive loop."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")

    def available_bytes(self, node_id: int) -> int:
        """Estimated availability of ``node_id`` (0 if never heard of)."""
        return self.estimates.get(node_id, 0)

    def adjust_estimate(self, node_id: int, delta_bytes: int) -> None:
        """Locally adjust a node's availability estimate.

        The pager calls this after placing (or removing) data so that
        between two broadcasts the application's view accounts for its own
        traffic — otherwise every node would keep choosing the same
        "most available" destination for a whole monitor interval.
        """
        estimate = self.estimates.get(node_id)
        if estimate is not None:
            self.estimates[node_id] = max(0, estimate + delta_bytes)

    def mark_full(self, node_id: int) -> None:
        """Locally zero a node's availability after a rejected swap-out;
        the next broadcast from that node refreshes the truth."""
        if node_id in self.estimates:
            self.estimates[node_id] = 0

    def receive(self, info: AvailabilityInfo) -> None:
        """Take one report into the table unless a fresher one from that
        node is already there; a taken report resets the estimate."""
        prev = self.table.get(info.node_id)
        if prev is None or info.seq >= prev.seq:
            self.table[info.node_id] = info
            self.estimates[info.node_id] = info.available_bytes

    def _run(self) -> Generator:
        env = self.node.env
        while True:
            try:
                msg = yield self.transport.recv(self.node.node_id, MONITOR_CHANNEL)
            except Interrupt:
                return
            info = msg.payload
            assert isinstance(info, AvailabilityInfo)
            self.receive(info)
            self.reports_received += 1
            if info.shortage and info.node_id not in self._shortage_seen:
                self._shortage_seen.add(info.node_id)
                self.node.emit("shortage-seen", src=info.node_id)
                for handler in self.shortage_handlers:
                    env.process(handler(info.node_id))
            elif not info.shortage:
                self._shortage_seen.discard(info.node_id)
