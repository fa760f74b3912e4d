"""Hash partitioning of candidates across processors, plus skew metrics.

HPA "partitions the candidate itemsets among processors using a hash
function like the hash join in relational databases" (§2.2).  The
composition used here matches §3.3's structure: an itemset hashes to a
*global hash line*, and the line determines the owning node, so a line
never straddles nodes (the property the swap unit relies on).

Table 3 of the paper shows the resulting per-node candidate counts are
close but *not* equal ("some amount of skew usually exists");
:func:`skew_statistics` quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import MiningError
from repro.mining.itemsets import Itemset, itemset_hash, itemset_hashes

__all__ = ["HashPartitioner", "SkewStats", "skew_statistics"]


class HashPartitioner:
    """Maps itemsets to hash lines and hash lines to owner nodes."""

    def __init__(self, total_lines: int, n_nodes: int) -> None:
        if total_lines <= 0:
            raise MiningError(f"total_lines must be positive, got {total_lines}")
        if n_nodes <= 0:
            raise MiningError(f"n_nodes must be positive, got {n_nodes}")
        if total_lines < n_nodes:
            raise MiningError(
                f"need at least one line per node ({total_lines} lines, {n_nodes} nodes)"
            )
        self.total_lines = int(total_lines)
        self.n_nodes = int(n_nodes)

    def line_of(self, itemset: Itemset) -> int:
        """Global hash-line id of ``itemset``."""
        return itemset_hash(itemset) % self.total_lines

    def node_of_line(self, line_id: int) -> int:
        """Owning node of a hash line (round-robin over nodes)."""
        if not 0 <= line_id < self.total_lines:
            raise MiningError(f"line id {line_id} out of range")
        return line_id % self.n_nodes

    def node_of(self, itemset: Itemset) -> int:
        """Destination processor ID for an itemset (HPA's hash routing)."""
        return self.node_of_line(self.line_of(itemset))

    def lines_of_node(self, node: int) -> range:
        """All line ids owned by ``node``."""
        if not 0 <= node < self.n_nodes:
            raise MiningError(f"node {node} out of range")
        return range(node, self.total_lines, self.n_nodes)

    def lines_of(self, itemsets: np.ndarray) -> np.ndarray:
        """:meth:`line_of` of every row of an ``[n, k]`` item-id array."""
        return (itemset_hashes(itemsets) % np.uint64(self.total_lines)).astype(np.int64)

    def partition_counts(self, candidates: Iterable[Itemset]) -> np.ndarray:
        """Per-node counts of one pass's candidates — the paper's Table 3 row."""
        lines = self.lines_of(np.array(list(candidates), dtype=np.int64))
        return np.bincount(lines % self.n_nodes, minlength=self.n_nodes)


@dataclass(frozen=True)
class SkewStats:
    """Imbalance measures over per-node candidate counts."""

    counts: tuple[int, ...]
    mean: float
    maximum: int
    minimum: int
    max_over_mean: float
    coefficient_of_variation: float


def skew_statistics(counts: Sequence[int]) -> SkewStats:
    """Summarise per-node counts the way the paper discusses Table 3."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.size == 0:
        raise MiningError("no counts supplied")
    mean = float(arr.mean())
    cv = float(arr.std() / mean) if mean > 0 else 0.0
    return SkewStats(
        counts=tuple(int(c) for c in counts),
        mean=mean,
        maximum=int(arr.max()),
        minimum=int(arr.min()),
        max_over_mean=float(arr.max() / mean) if mean > 0 else 0.0,
        coefficient_of_variation=cv,
    )
