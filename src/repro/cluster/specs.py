"""Hardware catalogue for the simulated PC cluster.

The constants mirror Table 1 of the paper plus the disk and network
figures quoted in §5.2: Pentium Pro 200 MHz nodes with 64 MB of memory,
a 155 Mbps ATM NIC with ~120 Mbps effective TCP throughput and ~0.5 ms
point-to-point round-trip time, and two generations of SCSI disks
(Seagate Barracuda 7 200 rpm, HITACHI DK3E1T 12 000 rpm).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
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
    "MB",
    "KB",
]

#: One kibibyte / mebibyte in bytes (the paper speaks loosely of "MB").
KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class CpuSpec:
    """A CPU model.

    ``specint95`` is used only as a *relative* speed factor between
    catalogue CPUs; absolute per-operation costs live in
    :class:`repro.cluster.costs.CostModel`.
    """

    name: str
    clock_mhz: float
    specint95: float

    @property
    def speed_factor(self) -> float:
        """Speed relative to the paper's Pentium Pro 200 baseline."""
        return self.specint95 / PENTIUM_PRO_200.specint95


@dataclass(frozen=True)
class DiskSpec:
    """A rotating disk characterised the way the paper characterises them.

    Average access time for a random read is ``avg_seek_s`` +
    ``rotational_latency_s`` + transfer time of the request.
    """

    name: str
    rpm: float
    avg_seek_s: float
    transfer_bytes_per_s: float
    interface: str = "SCSI"

    @property
    def rotational_latency_s(self) -> float:
        """Average rotational wait: half a revolution."""
        return 0.5 * 60.0 / self.rpm

    def access_time_s(self, size_bytes: int, sequential: bool = False) -> float:
        """Service time for one request of ``size_bytes``.

        Random requests pay seek + rotational latency; sequential ones pay
        transfer time only (the simplification the paper itself uses).
        """
        if size_bytes < 0:
            raise ValueError(f"negative I/O size {size_bytes}")
        transfer = size_bytes / self.transfer_bytes_per_s
        if sequential:
            return transfer
        return self.avg_seek_s + self.rotational_latency_s + transfer


@dataclass(frozen=True)
class NicSpec:
    """A network interface.

    ``effective_bytes_per_s`` is the *measured* point-to-point TCP
    throughput (the paper reports ~120 Mbps over the 155 Mbps ATM link);
    ``one_way_latency_s`` is half the measured round-trip time (~0.5 ms).
    """

    name: str
    raw_bits_per_s: float
    effective_bits_per_s: float
    one_way_latency_s: float

    @property
    def effective_bytes_per_s(self) -> float:
        """Usable payload bandwidth in bytes/second."""
        return self.effective_bits_per_s / 8.0

    def transmit_time_s(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire at effective rate."""
        if size_bytes < 0:
            raise ValueError(f"negative message size {size_bytes}")
        return size_bytes / self.effective_bytes_per_s


@dataclass(frozen=True)
class NodeSpec:
    """Full per-node hardware description (paper Table 1)."""

    name: str
    cpu: CpuSpec
    memory_bytes: int
    disk: DiskSpec
    nic: NicSpec


# --- catalogue ------------------------------------------------------------

PENTIUM_PRO_200 = CpuSpec(name="Intel Pentium Pro 200MHz", clock_mhz=200.0, specint95=8.2)
#: Quoted in §3.1 for the PC-vs-WS comparison; not used by the experiments.
PENTIUM_III_800 = CpuSpec(name="Intel Pentium III 800MHz", clock_mhz=800.0, specint95=38.3)

#: Seagate Barracuda 7 200 rpm SCSI — avg seek 8.8 ms, rotation wait 4.2 ms (§5.2).
BARRACUDA_7200 = DiskSpec(
    name="Seagate Barracuda 7200rpm",
    rpm=7200.0,
    avg_seek_s=8.8e-3,
    transfer_bytes_per_s=10 * MB,
)

#: HITACHI DK3E1T 12 000 rpm — avg seek 5 ms, rotation wait 2.5 ms (§5.2).
DK3E1T_12000 = DiskSpec(
    name="HITACHI DK3E1T 12000rpm",
    rpm=12000.0,
    avg_seek_s=5.0e-3,
    transfer_bytes_per_s=15 * MB,
)

#: WesternDigital Caviar 32500 IDE — held the paper's transaction data
#: files.  Only the disk-access probes use it: ``Node.data_disk`` is
#: built from ``NodeSpec.disk``.
CAVIAR_IDE = DiskSpec(
    name="WesternDigital Caviar32500 IDE",
    rpm=5200.0,
    avg_seek_s=11.0e-3,
    transfer_bytes_per_s=6 * MB,
    interface="IDE",
)

#: 155 Mbps ATM (Interphase 5515 PCI + HITACHI AN1000-20 switch):
#: effective TCP throughput ~120 Mbps, point-to-point RTT ~0.5 ms.
ATM_155 = NicSpec(
    name="ATM 155Mbps (Interphase 5515)",
    raw_bits_per_s=155e6,
    effective_bits_per_s=120e6,
    one_way_latency_s=0.25e-3,
)

#: 10Base-T Ethernet control network (present on the cluster, unused here).
ETHERNET_10 = NicSpec(
    name="Ethernet 10Base-T",
    raw_bits_per_s=10e6,
    effective_bits_per_s=8e6,
    one_way_latency_s=0.5e-3,
)

#: The paper's node: Pentium Pro 200, 64 MB RAM, SCSI swap disk, ATM NIC.
PAPER_NODE = NodeSpec(
    name="IIS PC-cluster node",
    cpu=PENTIUM_PRO_200,
    memory_bytes=64 * MB,
    disk=BARRACUDA_7200,
    nic=ATM_155,
)
