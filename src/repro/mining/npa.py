"""NPA — Non-Partitioned Apriori, the baseline HPA improves upon.

In NPA (Shintani & Kitsuregawa, the paper's reference [9]) every node
holds the *entire* candidate hash table and counts only its local
transactions against it; a global reduction then sums the per-node
counts.  Counting needs no itemset communication at all — but each node
needs memory for the whole candidate set, where HPA needs only 1/n of
it ("HPA effectively utilizes the whole memory space of all the
processors", §2.2).  Under a per-node memory-usage limit this is
exactly the regime where the remote-memory machinery earns its keep, so
NPA doubles as the stress baseline for the swap manager.

The swap manager, pagers, monitors, migration mechanism and the
candidate pass itself are shared with HPA unchanged (both drivers build
on :class:`~repro.runtime.driver.MiningDriver`); NPA supplies only the
pass's three hooks: candidate placement (everyone owns every line),
purely local counting, and the all-reduce of the full count tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.datagen.corpus import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.hash_table import CandidateHashTable
from repro.mining.hpa import HPAConfig
from repro.mining.kernels import CountingKernel
from repro.mining.partition import HashPartitioner
from repro.runtime.driver import MiningDriver
from repro.runtime.results import RunResult

__all__ = ["NPAConfig", "NPARun", "run_npa"]


@dataclass(frozen=True)
class NPAConfig(HPAConfig):
    """NPA accepts HPA's knobs (``eld_fraction`` is meaningless and must
    stay 0 — NPA already duplicates *everything*)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.eld_fraction != 0.0:
            raise ConfigError("NPA duplicates all candidates; eld_fraction must be 0")


class NPARun(MiningDriver):
    """One NPA execution over the simulated cluster."""

    #: Manifest tag for telemetry run entries.
    driver_name = "npa"
    pass1_channel = "npa-pass1"

    def __init__(self, db: TransactionDatabase, config: NPAConfig) -> None:
        super().__init__(db, config)
        # One owner: every node holds every line, only the line matters.
        self.partitioner = HashPartitioner(config.total_lines, 1)

    # -- the driver hooks ------------------------------------------------------

    def _place(
        self, candidates: np.ndarray, prev_rows: np.ndarray, prev_counts: np.ndarray
    ) -> tuple[np.ndarray, list[int], int, int]:
        # Every node holds (and counts into) its own copy of the table:
        # EVERY node inserts EVERY candidate (the defining cost).
        lines = self.partitioner.lines_of(candidates)
        everything = np.arange(len(candidates))
        held = self.partitioner.lines_of_node(0)
        for a in self.app_ids:
            self.managers[a].begin_pass(CandidateHashTable(lines), everything, held)
        # Every candidate is owned by "node 0" of the one-owner
        # partitioner, i.e. by whoever counts it; the full set is
        # duplicated everywhere, and none is pinned outside the tables.
        n = len(candidates)
        return np.zeros_like(lines), [n] * self.config.n_app_nodes, n, 0

    def _counting(self, kernel: CountingKernel) -> list[Generator]:
        return [self._count_node(a, kernel) for a in self.app_ids]

    def _determine(self) -> Generator:
        """All-reduce every node's full count table.

        The table is large (28 B per candidate), which is NPA's second
        structural cost next to the duplicated memory.
        """
        n_candidates = self.managers[self.app_ids[0]].table.counts.size
        yield from self._all_reduce(n_candidates, "npa-reduce", "npa-large")
        # The actual merge (the messages above carried the timing).
        merged = np.zeros(n_candidates, dtype=np.int64)
        for a in self.app_ids:
            mgr = self.managers[a]
            yield from mgr.iter_all_lines()
            merged += mgr.table.counts
        return merged

    # -- per-node phases ----------------------------------------------------

    def _count_node(self, a: int, kernel: CountingKernel) -> Generator:
        """The HPA sender's loop with nothing remote: every occurrence of
        a block is local, folded in bulk after the scan when the node has
        no pager (order unobservable) and counted in order otherwise."""
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        bulk = mgr.pager is None
        pending: list[np.ndarray] = []
        for i, j in self._block_ranges(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            codes = kernel.occurrences(part, i, j)
            counted = int(codes.size)
            if bulk:
                pending.append(codes)
            else:
                yield from self._count_ordered(a, codes)
            if counted:
                yield from node.compute(
                    (cost.cpu_generate_per_itemset_s + cost.cpu_count_per_itemset_s)
                    * counted
                )
        kernel.apply_local_pairs(mgr, pending)


def run_npa(db: TransactionDatabase, config: NPAConfig) -> RunResult:
    """Convenience wrapper: build an :class:`NPARun` and execute it."""
    return NPARun(db, config).run()
