"""Replacement policies for resident hash lines.

The paper uses LRU ("The hash line swapped out is selected using a LRU
algorithm", §4.3).  FIFO and random are provided for the ablation bench
that quantifies how much LRU buys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from typing import Optional

import numpy as np

from repro.errors import SwapError

__all__ = ["ReplacementPolicy", "LRUPolicy", "FIFOPolicy", "RandomPolicy", "make_policy"]


class ReplacementPolicy(ABC):
    """Tracks the set of resident line ids and picks eviction victims."""

    name: str = "abstract"

    @abstractmethod
    def insert(self, line_id: int) -> None:
        """A line became resident."""

    @abstractmethod
    def touch(self, line_id: int) -> None:
        """A resident line was accessed."""

    def touch_batch(self, line_ids: "list[int]") -> None:
        """Touch several distinct resident lines in one call.

        ``line_ids`` must hold each line once, ordered so the *last*
        element ends up most recently used — i.e. distinct lines in
        last-occurrence order of the access run being folded.
        """
        stop = self.touch_run(line_ids, 0)
        if stop < len(line_ids):
            raise SwapError(f"touch of non-resident line {line_ids[stop]}")

    def touch_run(self, line_ids: "list[int]", start: int) -> int:
        """Touch ``line_ids[start:]`` one by one, in order, up to the
        first line this policy does not hold; returns that line's index
        (``len(line_ids)`` when every line was held)."""
        for i in range(start, len(line_ids)):
            if line_ids[i] not in self:
                return i
            self.touch(line_ids[i])
        return len(line_ids)

    @abstractmethod
    def remove(self, line_id: int) -> None:
        """A line left residency by other means (e.g. explicit drop)."""

    @abstractmethod
    def victim(self, pinned: Optional[int] = None) -> int:
        """Choose and remove the next eviction victim (never ``pinned``)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked resident lines."""

    @abstractmethod
    def __contains__(self, line_id: int) -> bool:
        """Whether a line is tracked as resident."""

    @abstractmethod
    def clear(self) -> None:
        """Forget every tracked line (end of pass)."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used (the paper's choice)."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def insert(self, line_id: int) -> None:
        if line_id in self._order:
            raise SwapError(f"line {line_id} already resident")
        self._order[line_id] = None

    def touch(self, line_id: int) -> None:
        if line_id not in self._order:
            raise SwapError(f"touch of non-resident line {line_id}")
        self._order.move_to_end(line_id)

    def touch_run(self, line_ids: "list[int]", start: int) -> int:
        move = self._order.move_to_end
        try:
            for i in range(start, len(line_ids)):
                move(line_ids[i])
        except KeyError:
            return i
        return len(line_ids)

    def remove(self, line_id: int) -> None:
        if line_id not in self._order:
            raise SwapError(f"remove of non-resident line {line_id}")
        del self._order[line_id]

    def victim(self, pinned: Optional[int] = None) -> int:
        for line_id in self._order:
            if line_id != pinned:
                del self._order[line_id]
                return line_id
        raise SwapError("no evictable line (all pinned or empty)")

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, line_id: int) -> bool:
        return line_id in self._order

    def clear(self) -> None:
        self._order.clear()


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: insertion order, accesses ignored."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: deque[int] = deque()
        self._members: set[int] = set()

    def insert(self, line_id: int) -> None:
        if line_id in self._members:
            raise SwapError(f"line {line_id} already resident")
        self._queue.append(line_id)
        self._members.add(line_id)

    def touch(self, line_id: int) -> None:
        if line_id not in self._members:
            raise SwapError(f"touch of non-resident line {line_id}")

    def remove(self, line_id: int) -> None:
        if line_id not in self._members:
            raise SwapError(f"remove of non-resident line {line_id}")
        self._members.remove(line_id)
        self._queue.remove(line_id)

    def victim(self, pinned: Optional[int] = None) -> int:
        for _ in range(len(self._queue)):
            cand = self._queue.popleft()
            if cand not in self._members:
                continue
            if cand == pinned:
                self._queue.append(cand)
                continue
            self._members.remove(cand)
            return cand
        raise SwapError("no evictable line (all pinned or empty)")

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, line_id: int) -> bool:
        return line_id in self._members

    def clear(self) -> None:
        self._queue.clear()
        self._members.clear()


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (seeded for determinism)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._members: list[int] = []
        self._index: dict[int, int] = {}

    def insert(self, line_id: int) -> None:
        if line_id in self._index:
            raise SwapError(f"line {line_id} already resident")
        self._index[line_id] = len(self._members)
        self._members.append(line_id)

    def touch(self, line_id: int) -> None:
        if line_id not in self._index:
            raise SwapError(f"touch of non-resident line {line_id}")

    def remove(self, line_id: int) -> None:
        if line_id not in self._index:
            raise SwapError(f"remove of non-resident line {line_id}")
        # Swap-with-last for O(1) removal.
        i = self._index.pop(line_id)
        last = self._members.pop()
        if last != line_id:
            self._members[i] = last
            self._index[last] = i

    def victim(self, pinned: Optional[int] = None) -> int:
        if not self._members or (len(self._members) == 1 and self._members[0] == pinned):
            raise SwapError("no evictable line (all pinned or empty)")
        while True:
            cand = self._members[int(self._rng.integers(len(self._members)))]
            if cand != pinned:
                self.remove(cand)
                return cand

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, line_id: int) -> bool:
        return line_id in self._index

    def clear(self) -> None:
        self._members.clear()
        self._index.clear()


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Factory by name: ``lru`` (default in all experiments), ``fifo``, ``random``."""
    table = {"lru": LRUPolicy, "fifo": FIFOPolicy}
    if name in table:
        return table[name]()
    if name == "random":
        return RandomPolicy(seed)
    raise SwapError(f"unknown replacement policy {name!r}")
