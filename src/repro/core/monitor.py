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

from repro.analysis.cost_model import CostModel
from repro.errors import Interrupt
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node
    from repro.cluster.transport import Transport

__all__ = ["AvailabilityInfo", "MemoryMonitor", "MonitorClient", "MONITOR_CHANNEL"]

#: Transport channel the availability broadcasts travel on.
MONITOR_CHANNEL = "memmon"


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
        self.interval_s = cost.monitor_interval_s if interval_s is None else interval_s
        if self.interval_s <= 0:
            raise ValueError(f"monitor interval must be positive, got {self.interval_s}")
        self._seq = 0
        self._shortage = False
        self._proc: Optional[Process] = None
        self.broadcasts_sent = 0
        #: Telemetry event bus (wired by ``Telemetry.attach``).
        self.bus = None

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
        if self.bus is not None:
            self.bus.emit("shortage", self.node.node_id)
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
        if self.bus is not None:
            self.bus.emit("node-recover", self.node.node_id)
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
        info_base = dict(
            node_id=self.node.node_id,
            available_bytes=available,
            shortage=self._shortage,
            seq=self._seq,
            timestamp=self.node.env.now,
        )
        if self.bus is not None:
            self.bus.emit(
                "monitor-broadcast", self.node.node_id,
                available_bytes=available, shortage=self._shortage,
                seq=self._seq,
            )
        self._seq += 1
        for client in self.client_ids:
            # Assemble + send one message per application node.
            yield from self.node.compute(self.cost.monitor_cpu_per_message_s)
            self.transport.post(
                self.node.node_id,
                client,
                MONITOR_CHANNEL,
                AvailabilityInfo(**info_base),
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
        #: Generator functions invoked (as new processes) when a node
        #: first reports shortage: ``handler(node_id) -> generator``.
        self.shortage_handlers: list[Callable[[int], Generator]] = []
        self._shortage_seen: set[int] = set()
        self._proc: Optional[Process] = None
        self.reports_received = 0
        #: Telemetry event bus (wired by ``Telemetry.attach``).
        self.bus = None

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
        """Last reported availability of ``node_id`` (0 if never heard of)."""
        info = self.table.get(node_id)
        return 0 if info is None else info.available_bytes

    def adjust_estimate(self, node_id: int, delta_bytes: int) -> None:
        """Locally adjust a node's availability estimate.

        The pager calls this after placing (or removing) data so that
        between two broadcasts the application's view accounts for its own
        traffic — otherwise every node would keep choosing the same
        "most available" destination for a whole monitor interval.
        """
        info = self.table.get(node_id)
        if info is not None:
            self.table[node_id] = AvailabilityInfo(
                node_id=node_id,
                available_bytes=max(0, info.available_bytes + delta_bytes),
                shortage=info.shortage,
                seq=info.seq,
                timestamp=info.timestamp,
            )

    def mark_full(self, node_id: int) -> None:
        """Locally zero a node's availability after a rejected swap-out;
        the next broadcast from that node refreshes the truth."""
        info = self.table.get(node_id)
        if info is not None:
            self.table[node_id] = AvailabilityInfo(
                node_id=node_id,
                available_bytes=0,
                shortage=info.shortage,
                seq=info.seq,
                timestamp=info.timestamp,
            )

    def _run(self) -> Generator:
        env = self.node.env
        while True:
            try:
                msg = yield self.transport.recv(self.node.node_id, MONITOR_CHANNEL)
            except Interrupt:
                return
            info = msg.payload
            assert isinstance(info, AvailabilityInfo)
            prev = self.table.get(info.node_id)
            if prev is None or info.seq >= prev.seq:
                self.table[info.node_id] = info
            self.reports_received += 1
            if info.shortage and info.node_id not in self._shortage_seen:
                self._shortage_seen.add(info.node_id)
                if self.bus is not None:
                    self.bus.emit(
                        "shortage-seen", self.node.node_id, src=info.node_id
                    )
                for handler in self.shortage_handlers:
                    env.process(handler(info.node_id))
            elif not info.shortage:
                self._shortage_seen.discard(info.node_id)
