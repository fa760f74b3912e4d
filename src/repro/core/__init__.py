"""The paper's contribution: dynamic remote-memory utilisation.

This package implements §4 of the paper — the swap manager with LRU hash-
line eviction, the three pagers (disk, remote simple-swapping, remote
update), the dynamic availability decision mechanism (monitors + client
tables), destination placement, and the migration mechanism.
"""

from repro.core.disk_pager import DiskPager
from repro.core.memory_table import LineLocation, LineState, MemoryManagementTable
from repro.core.monitor import (
    MONITOR_CHANNEL,
    AvailabilityInfo,
    MemoryMonitor,
    MonitorClient,
)
from repro.core.pager import Pager, PagerStats
from repro.core.placement import (
    MigrateAheadPlacement,
    MostAvailableFirst,
    PlacementPolicy,
    PredictivePlacement,
    RoundRobinPlacement,
    make_placement,
)
from repro.core.policies import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.core.remote_pager import RemoteMemoryPager, RemoteUpdatePager
from repro.core.remote_store import RemoteStore
from repro.core.swap_manager import SwapManager, SwapManagerStats

__all__ = [
    "SwapManager",
    "SwapManagerStats",
    "Pager",
    "PagerStats",
    "DiskPager",
    "RemoteMemoryPager",
    "RemoteUpdatePager",
    "RemoteStore",
    "MemoryMonitor",
    "MonitorClient",
    "AvailabilityInfo",
    "MONITOR_CHANNEL",
    "MemoryManagementTable",
    "LineState",
    "LineLocation",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "make_policy",
    "PlacementPolicy",
    "MostAvailableFirst",
    "RoundRobinPlacement",
    "PredictivePlacement",
    "MigrateAheadPlacement",
    "make_placement",
]
