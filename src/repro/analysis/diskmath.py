"""Disk access-time analytics (paper §5.2's closing comparison).

The paper argues: a 7 200 rpm Barracuda needs >= 13.0 ms on average to
read data (8.8 ms seek + 4.2 ms rotation), the fastest 12 000 rpm disk
still >= 7.5 ms, while the remote-memory pagefault costs ~2.3 ms — hence
remote memory wins even against future disks.  These helpers reproduce
that arithmetic from the spec catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.costs import PAPER_COSTS
from repro.cluster.specs import ATM_155, BARRACUDA_7200, DK3E1T_12000

__all__ = ["DiskComparisonRow", "disk_comparison"]


@dataclass(frozen=True)
class DiskComparisonRow:
    """Average random-read latency of one device vs the remote fault."""

    device: str
    seek_s: float
    rotation_s: float
    access_time_s: float
    ratio_vs_remote: float


def disk_comparison() -> list[DiskComparisonRow]:
    """Rows comparing each §5.2 disk's random read to the remote fault."""
    remote = PAPER_COSTS.remote_fault_time_s(ATM_155)
    rows = [
        DiskComparisonRow(
            device=f"remote memory ({ATM_155.name})",
            seek_s=0.0,
            rotation_s=0.0,
            access_time_s=remote,
            ratio_vs_remote=1.0,
        )
    ]
    for disk in (BARRACUDA_7200, DK3E1T_12000):
        t = disk.access_time_s(PAPER_COSTS.message_block_bytes)
        rows.append(
            DiskComparisonRow(
                device=disk.name,
                seek_s=disk.avg_seek_s,
                rotation_s=disk.rotational_latency_s,
                access_time_s=t,
                ratio_vs_remote=t / remote,
            )
        )
    return rows
