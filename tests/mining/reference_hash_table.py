"""The dict-backed hash table ``repro.mining.hash_table`` was until the
counts moved to ``counts[code]``, kept verbatim as a reference model.

Below the banner is the old module byte for byte: a :class:`HashLine`
owns a ``dict[Itemset, int]`` of its candidates' counts and a
:class:`CandidateHashTable` is one node's collection of lines, with the
registry that let deferred ledgers reach swapped-out lines.
``tests/mining/test_hash_table.py`` keeps its old unit tests running
against it and drives it side by side with the array table under
Hypothesis.

----

Hash table of candidate itemsets, organised into *hash lines*.

The paper keeps itemsets "in memory as linked structures that are
classified by a hash function ... all itemsets having the same hash value
are assigned to the same hash line on the same node" (§3.3).  The hash
line is also the unit of swapping (§4.3) and fits in one 4 KB message
block.  :class:`HashLine` is that linked structure; :class:`CandidateHashTable`
is one node's collection of lines.  Residency/swapping state is *not*
tracked here — that is the :class:`repro.core.swap_manager.SwapManager`'s
job; this table is the passive storage it manages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import MiningError
from repro.mining.itemsets import ITEMSET_BYTES, Itemset

__all__ = ["HashLine", "CandidateHashTable", "LINE_HEADER_BYTES"]

#: Fixed per-line overhead (list head + bookkeeping), counted when a line
#: travels in a message or occupies guest memory.
LINE_HEADER_BYTES = 16


@dataclass
class HashLine:
    """One hash line: every candidate that hashed to this line, with counts."""

    line_id: int
    counts: dict[Itemset, int] = field(default_factory=dict)

    @property
    def n_itemsets(self) -> int:
        """Number of candidate itemsets chained on this line."""
        return len(self.counts)

    @property
    def nbytes(self) -> int:
        """Memory footprint: 24 bytes per itemset plus the line header."""
        return LINE_HEADER_BYTES + ITEMSET_BYTES * len(self.counts)

    def add(self, itemset: Itemset) -> None:
        """Insert a candidate with count 0; duplicate insertion is an error."""
        if itemset in self.counts:
            raise MiningError(f"candidate {itemset} already on line {self.line_id}")
        self.counts[itemset] = 0

    def increment(self, itemset: Itemset, by: int = 1) -> bool:
        """Count an occurrence; returns False if the itemset is not chained here."""
        if itemset in self.counts:
            self.counts[itemset] += by
            return True
        return False

    def merge_counts(self, other: dict[Itemset, int]) -> None:
        """Fold a remote count fragment back into this line (collect phase)."""
        for itemset, c in other.items():
            if itemset not in self.counts:
                raise MiningError(
                    f"merge of unknown candidate {itemset} into line {self.line_id}"
                )
            self.counts[itemset] += c


class CandidateHashTable:
    """One node's hash lines for the current pass."""

    def __init__(self) -> None:
        self._lines: dict[int, HashLine] = {}
        # Every line object ever created/installed, keyed by id; survives
        # pop() so deferred count ledgers can reach swapped-out lines
        # (line objects keep their identity while travelling through
        # pagers — stores hold references, not copies).
        self._registry: dict[int, HashLine] = {}

    def line(self, line_id: int) -> HashLine:
        """The line with ``line_id``, created empty on first touch."""
        if line_id not in self._lines:
            line = HashLine(line_id)
            self._lines[line_id] = line
            self._registry[line_id] = line
        return self._lines[line_id]

    def get(self, line_id: int) -> Optional[HashLine]:
        """The line if it exists, else ``None`` (no creation)."""
        return self._lines.get(line_id)

    def pop(self, line_id: int) -> HashLine:
        """Remove and return a line (used when it is swapped out wholesale)."""
        if line_id not in self._lines:
            raise MiningError(f"no hash line {line_id} on this node")
        return self._lines.pop(line_id)

    def put(self, line: HashLine) -> None:
        """(Re-)install a line object, e.g. after a swap-in."""
        if line.line_id in self._lines:
            raise MiningError(f"hash line {line.line_id} already present")
        self._lines[line.line_id] = line
        self._registry.setdefault(line.line_id, line)

    def line_anywhere(self, line_id: int) -> HashLine:
        """The line object wherever it currently lives (resident or
        swapped out).  Host-side lookup only — pays no simulated cost and
        must not replace :meth:`get` on paths that model residency."""
        line = self._registry.get(line_id)
        if line is None:
            raise MiningError(f"hash line {line_id} was never created here")
        return line

    def __contains__(self, line_id: int) -> bool:
        return line_id in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[HashLine]:
        return iter(self._lines.values())

    @property
    def line_ids(self) -> list[int]:
        """Ids of all present lines."""
        return list(self._lines)

    @property
    def n_itemsets(self) -> int:
        """Total candidates across present lines."""
        return sum(line.n_itemsets for line in self._lines.values())

    @property
    def nbytes(self) -> int:
        """Total footprint of present lines."""
        return sum(line.nbytes for line in self._lines.values())

    def all_counts(self) -> dict[Itemset, int]:
        """Flattened itemset -> count mapping over present lines."""
        out: dict[Itemset, int] = {}
        for line in self._lines.values():
            out.update(line.counts)
        return out

    def clear(self) -> None:
        """Drop all lines (end of pass)."""
        self._lines.clear()
        self._registry.clear()
