"""The memory management table.

The paper (§4.2): application execution nodes "check a memory management
table which shows where each entry currently exists".  This module tracks
for every hash line of one node where the line lives: resident in local
memory, on the local swap disk, in a remote node's memory (swappable), or
*fixed* in a remote node's memory (remote-update mode), or in flight
during a migration.

The table is consulted once per itemset occurrence on the counting hot
path, so the backing store is a pair of numpy arrays indexed by line id
(an ``int8`` state code and an ``int32`` holding-node id) with O(1)
integer reads — see :meth:`MemoryManagementTable.state_code` and
:meth:`MemoryManagementTable.resident_mask`.  A dict of the non-resident
line ids is kept alongside purely for *insertion order*: migration picks
victims in first-swapped-out order, which the arrays alone cannot
provide, and changing that order would change simulated schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.errors import SwapError

__all__ = ["LineState", "LineLocation", "MemoryManagementTable"]


class LineState(Enum):
    """Where a hash line currently lives."""

    RESIDENT = "resident"
    DISK = "disk"
    REMOTE = "remote"  # simple swapping: can fault back in
    REMOTE_FIXED = "remote-fixed"  # remote update: stays remote
    MIGRATING = "migrating"  # being moved between memory-available nodes


@dataclass(frozen=True)
class LineLocation:
    """State plus, for remote states, the holding node."""

    state: LineState
    node_id: Optional[int] = None

    def __post_init__(self) -> None:
        remote = self.state in (LineState.REMOTE, LineState.REMOTE_FIXED)
        if remote and self.node_id is None:
            raise SwapError(f"{self.state.value} location requires a node id")
        if self.state in (LineState.RESIDENT, LineState.DISK) and self.node_id is not None:
            raise SwapError(f"{self.state.value} location must not name a node")


#: ``int8`` state codes for the array fast path (RESIDENT deliberately 0:
#: a freshly grown/zeroed table region is all-resident, matching the
#: "unknown lines are resident" default).
RESIDENT = 0
DISK = 1
REMOTE = 2
REMOTE_FIXED = 3
MIGRATING = 4

_CODE_TO_STATE = {
    RESIDENT: LineState.RESIDENT,
    DISK: LineState.DISK,
    REMOTE: LineState.REMOTE,
    REMOTE_FIXED: LineState.REMOTE_FIXED,
    MIGRATING: LineState.MIGRATING,
}

#: Holder value for states that name no node.
_NO_NODE = -1

_INITIAL_CAPACITY = 1024


class MemoryManagementTable:
    """Line-id -> location map for one application execution node."""

    #: State codes re-exported on the class so hot callers can write
    #: ``table.state_code(lid) == table.RESIDENT`` without extra imports.
    RESIDENT = RESIDENT
    DISK = DISK
    REMOTE = REMOTE
    REMOTE_FIXED = REMOTE_FIXED
    MIGRATING = MIGRATING

    def __init__(self) -> None:
        self._state: np.ndarray = np.zeros(_INITIAL_CAPACITY, dtype=np.int8)
        self._holder: np.ndarray = np.full(_INITIAL_CAPACITY, _NO_NODE, dtype=np.int32)
        # Non-resident line ids in first-entry order (dict used as an
        # ordered set; re-marking an already-tracked line keeps its slot,
        # exactly like the dict-of-locations this table used to be).
        self._order: dict[int, None] = {}

    # -- array fast path ---------------------------------------------------

    def _ensure(self, line_id: int) -> None:
        if line_id >= len(self._state):
            cap = max(2 * len(self._state), line_id + 1)
            self._state = np.concatenate(
                [self._state, np.zeros(cap - len(self._state), dtype=np.int8)]
            )
            grown = np.full(cap - len(self._holder), _NO_NODE, dtype=np.int32)
            self._holder = np.concatenate([self._holder, grown])

    def state_code(self, line_id: int) -> int:
        """Integer state code of ``line_id`` (O(1), no allocation)."""
        if line_id < len(self._state):
            return int(self._state[line_id])
        return RESIDENT

    def is_resident(self, line_id: int) -> bool:
        """``True`` when ``line_id`` lives in local memory."""
        return self.state_code(line_id) == RESIDENT

    def holder_of(self, line_id: int) -> int:
        """Holding node id for remote states, ``-1`` otherwise."""
        if line_id < len(self._holder):
            return int(self._holder[line_id])
        return _NO_NODE

    def resident_mask(self, line_ids: np.ndarray) -> np.ndarray:
        """Boolean mask of which ``line_ids`` are resident (vectorized)."""
        top = int(line_ids.max()) + 1 if len(line_ids) else 0
        self._ensure(top - 1 if top else 0)
        return self._state[line_ids] == RESIDENT

    # -- location API ------------------------------------------------------

    def location(self, line_id: int) -> LineLocation:
        """Where ``line_id`` lives; unknown lines are resident by default
        (a line that was never swapped needs no table entry)."""
        code = self.state_code(line_id)
        if code == RESIDENT:
            return LineLocation(LineState.RESIDENT)
        if code in (REMOTE, REMOTE_FIXED):
            return LineLocation(_CODE_TO_STATE[code], self.holder_of(line_id))
        return LineLocation(_CODE_TO_STATE[code])

    def state(self, line_id: int) -> LineState:
        """Shorthand for ``location(line_id).state``."""
        return _CODE_TO_STATE[self.state_code(line_id)]

    def set_resident(self, line_id: int) -> None:
        """Mark a line as back in local memory."""
        if line_id < len(self._state):
            self._state[line_id] = RESIDENT
            self._holder[line_id] = _NO_NODE
        self._order.pop(line_id, None)

    def set_disk(self, line_id: int) -> None:
        """Mark a line as swapped to the local disk."""
        self._ensure(line_id)
        self._state[line_id] = DISK
        self._holder[line_id] = _NO_NODE
        self._order[line_id] = None

    def set_remote(self, line_id: int, node_id: int, fixed: bool = False) -> None:
        """Mark a line as held by memory-available node ``node_id``."""
        self._ensure(line_id)
        self._state[line_id] = REMOTE_FIXED if fixed else REMOTE
        self._holder[line_id] = node_id
        self._order[line_id] = None

    def set_migrating(self, line_id: int) -> None:
        """Mark a line as in flight between memory-available nodes."""
        self._ensure(line_id)
        self._state[line_id] = MIGRATING
        self._holder[line_id] = _NO_NODE
        self._order[line_id] = None

    def lines_at(self, node_id: int) -> list[int]:
        """All lines currently held (swappable or fixed) at ``node_id``,
        in first-swapped-out order."""
        holder = self._holder
        return [lid for lid in self._order if holder[lid] == node_id]

    def non_resident_lines(self) -> list[int]:
        """Every line with an explicit non-resident entry, in first-entry
        order."""
        return list(self._order)

    def count_by_state(self) -> dict[LineState, int]:
        """Histogram of explicit entries (resident lines are not entries)."""
        out: dict[LineState, int] = {}
        state = self._state
        for lid in self._order:
            key = _CODE_TO_STATE[int(state[lid])]
            out[key] = out.get(key, 0) + 1
        return out

    def clear(self) -> None:
        """Forget everything (end of pass)."""
        self._state[:] = RESIDENT
        self._holder[:] = _NO_NODE
        self._order.clear()
