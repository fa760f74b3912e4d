"""The candidate table of one pass, and the hash lines laid over it.

The paper keeps itemsets "in memory as linked structures that are
classified by a hash function ... all itemsets having the same hash value
are assigned to the same hash line on the same node" (§3.3); the hash
line is also the unit of swapping (§4.3) and fits in one 4 KB message
block.  What the paper models about a line is *where it is* and *how big
it is* — so a :class:`HashLine` is exactly that, ``(line_id,
n_itemsets)``, and it is what pagers and guest stores move around.  The
counts themselves live in one :class:`CandidateHashTable` per pass,
indexed by the candidate's **code** (its position in C_k, the identity
it carries from apriori-gen to the wire).  HPA shares one table among
all nodes, because a code has exactly one owner; NPA, which replicates
every candidate, keeps one per node.  Residency/swapping state is *not*
tracked here — that is the :class:`repro.core.swap_manager.SwapManager`'s
job, and it decides only what an access costs in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MiningError
from repro.mining.itemsets import ITEMSET_BYTES

__all__ = ["HashLine", "CandidateHashTable", "LINE_HEADER_BYTES"]

#: Aligned ``int64`` arrays, or a plain int each for one candidate.
Codes = "np.ndarray | int"

#: Fixed per-line overhead (list head + bookkeeping), counted when a line
#: travels in a message or occupies guest memory.
LINE_HEADER_BYTES = 16


@dataclass(slots=True)
class HashLine:
    """One hash line: how many candidates are chained on it."""

    line_id: int
    n_itemsets: int = 0

    @property
    def nbytes(self) -> int:
        """Memory footprint: 24 bytes per itemset plus the line header."""
        return LINE_HEADER_BYTES + ITEMSET_BYTES * self.n_itemsets


class CandidateHashTable:
    """Support counts of one pass's candidates, addressed by code.

    ``lines[code]`` is the candidate's hash line (-1 for an HPA-ELD
    duplicate, which no table holds), ``inserted[code]`` whether its
    owner has chained it yet, ``counts[code]`` its support so far.
    """

    def __init__(self, lines: np.ndarray) -> None:
        self.lines = lines
        self.counts = np.zeros(len(lines), dtype=np.int64)
        self.inserted = np.zeros(len(lines), dtype=bool)

    def _require(
        self,
        ok: "np.ndarray | bool",
        codes: Codes,
        line_ids: Codes,
        problem: str = "routed code is not a candidate on this line",
    ) -> None:
        if not (ok if type(ok) is bool else ok.all()):
            bad = int(np.argmin(np.atleast_1d(ok)))
            raise MiningError(
                f"code {np.atleast_1d(codes)[bad]} on line "
                f"{np.atleast_1d(line_ids)[bad]}: {problem}"
            )

    def insert(self, codes: Codes, line_ids: Codes) -> None:
        """Chain candidates with count 0; inserting one twice (earlier or
        inside this batch), or on a line other than its own, is an error."""
        if type(codes) is int:  # one candidate: scalar reads, no ufunc dispatch
            fresh = not self.inserted.item(codes) and self.lines.item(codes) == line_ids
        else:
            if (
                np.ndim(codes)
                and not (np.diff(codes) > 0).all()  # ascending codes are distinct
                and np.unique(codes).size != np.size(codes)
            ):
                raise MiningError("a candidate appears twice in one insert batch")
            fresh = ~self.inserted[codes] & (self.lines[codes] == line_ids)
        self._require(
            fresh, codes, line_ids, "already inserted, or not that line's candidate"
        )
        self.inserted[codes] = True

    def count(self, codes: Codes, line_ids: Codes) -> None:
        """Count one occurrence per entry.  Every routed code must be an
        inserted candidate of the line it was routed to (HPA's
        sender-side pruning guarantees it); a miss means routing is
        broken."""
        if type(codes) is int:
            known = self.inserted.item(codes) and self.lines.item(codes) == line_ids
            self._require(known, codes, line_ids)
            self.counts[codes] += 1
        else:
            known = self.inserted[codes] & (self.lines[codes] == line_ids)
            self._require(known, codes, line_ids)
            np.add.at(self.counts, codes, 1)

    def count_bulk(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`count` for occurrences whose order nobody can observe:
        one ``bincount``.  Returns the distinct codes counted."""
        acc = np.bincount(codes, minlength=len(self.counts))
        hot = np.flatnonzero(acc)
        self._require(self.inserted[hot], hot, self.lines[hot])
        self.counts += acc
        return hot

    def upsert(self, code: int, delta: int) -> bool:
        """Apply one remote update record; ``True`` if it was the first
        to mention ``code`` (the holder then grows the line).  Records
        may overtake the insert they logically follow, so the first one
        seen creates the candidate whatever its delta."""
        first = not self.inserted[code]
        self.inserted[code] = True
        self.counts[code] += delta
        return first
