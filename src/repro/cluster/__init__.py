"""Simulated ATM-connected PC cluster substrate.

Provides :class:`Cluster`, a convenience bundle wiring N :class:`Node`
objects onto one :class:`Network` with a shared :class:`Transport`, plus
the hardware catalogue matching the paper's Table 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.disk import Disk, DiskStats
from repro.cluster.dynamics import (
    ClusterDynamics,
    FailureEvent,
    LoadTrace,
    NodeDynamics,
    parse_trace,
    scripted_shortage,
)
from repro.cluster.memory import MemoryLedger
from repro.cluster.network import PROTOCOL_OVERHEAD_BYTES, Message, Network, NetworkStats
from repro.cluster.node import Node
from repro.cluster.specs import (
    ATM_155,
    BARRACUDA_7200,
    CAVIAR_IDE,
    DK3E1T_12000,
    ETHERNET_10,
    KB,
    MB,
    PAPER_NODE,
    PENTIUM_III_800,
    PENTIUM_PRO_200,
    CpuSpec,
    DiskSpec,
    NicSpec,
    NodeSpec,
)
from repro.cluster.transport import Mailbox, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

__all__ = [
    "Cluster",
    "ClusterDynamics",
    "NodeDynamics",
    "LoadTrace",
    "FailureEvent",
    "parse_trace",
    "scripted_shortage",
    "Node",
    "Network",
    "NetworkStats",
    "Message",
    "Transport",
    "Mailbox",
    "Disk",
    "DiskStats",
    "MemoryLedger",
    "CpuSpec",
    "DiskSpec",
    "NicSpec",
    "NodeSpec",
    "PENTIUM_PRO_200",
    "PENTIUM_III_800",
    "BARRACUDA_7200",
    "DK3E1T_12000",
    "CAVIAR_IDE",
    "ATM_155",
    "ETHERNET_10",
    "PAPER_NODE",
    "PROTOCOL_OVERHEAD_BYTES",
    "KB",
    "MB",
]


class Cluster:
    """``n_nodes`` nodes on one ATM switch.

    Node ids run 0..n-1.  The first ``n_app`` ids are conventionally the
    application execution nodes; the experiment harness assigns the rest
    as memory-available nodes.  All nodes share ``spec``, as the paper's
    identical PCs do.
    """

    def __init__(
        self,
        env: "Environment",
        n_nodes: int,
        spec: NodeSpec = PAPER_NODE,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"cluster needs at least one node, got {n_nodes}")
        self.env = env
        self.network = Network(env, nic=spec.nic)
        self.nodes = [Node(env, i, self.network, spec) for i in range(n_nodes)]
        self.transport = Transport(self.network)

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def __iter__(self):
        return iter(self.nodes)
