"""A simulated cluster node: CPU, memory ledger, disks, NIC attachment.

The CPU is a single exclusive resource (Pentium Pro, one core); processes
charge work to it through :meth:`Node.compute`, which queues behind other
computation on the same node — this is what makes a memory-available
node's *service time* a contended quantity, one of the two ingredients of
Figure 3's bottleneck (the other being its ingress NIC).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cluster.disk import Disk
from repro.cluster.memory import MemoryLedger
from repro.cluster.network import Network
from repro.cluster.specs import NodeSpec, PAPER_NODE
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = ["Node"]


class Node:
    """One PC of the cluster."""

    def __init__(
        self,
        env: "Environment",
        node_id: int,
        network: Network,
        spec: NodeSpec = PAPER_NODE,
    ) -> None:
        self.env = env
        self.node_id = int(node_id)
        self.spec = spec
        self.memory = MemoryLedger(spec.memory_bytes)
        self.cpu = Resource(env, capacity=1)
        self._speed_factor = spec.cpu.speed_factor
        #: The swap target disk (SCSI in the paper's disk-swapping baseline).
        self.swap_disk = Disk(env, spec.disk)
        #: The disk the transaction file is scanned from.  The paper's
        #: files sat on an IDE disk (``specs.CAVIAR_IDE``); the model
        #: builds this one from ``spec.disk`` like the swap disk.
        self.data_disk = Disk(env, spec.disk)
        network.register(self.node_id)
        self.network = network

    def compute(self, seconds: float) -> Generator:
        """Process generator: occupy this node's CPU for ``seconds``.

        Scaled by the CPU's speed factor so the same logical work costs
        less on a faster catalogue CPU.
        """
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        cpu = self.cpu
        grant = cpu.request()
        try:
            yield grant
            yield self.env.sleep(seconds / self._speed_factor)
        finally:
            # As Request.__exit__: release, or leave the queue if interrupted.
            cpu.release(grant) if grant.triggered else grant.cancel()

    def emit(self, kind: str, **fields: object) -> None:
        """Publish one telemetry event from this node on the run's bus
        (:attr:`Network.bus`); a no-op when no telemetry is attached."""
        bus = self.network.bus
        if bus is not None:
            bus.emit(kind, self.node_id, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id} mem={self.memory.used_bytes}/{self.memory.capacity_bytes}>"
