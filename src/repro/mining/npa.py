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

The swap manager, pagers, monitors and migration mechanism are shared
with HPA unchanged (both drivers build on
:class:`~repro.runtime.driver.MiningDriver`); NPA differs only in
candidate placement (everyone owns every line) and in its
counting/reduction phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.datagen.corpus import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.candidates import generate_candidates
from repro.mining.hash_table import CandidateHashTable
from repro.mining.hpa import HPAConfig
from repro.mining.kernels import CountingKernel
from repro.mining.partition import HashPartitioner
from repro.runtime.driver import MiningDriver
from repro.runtime.results import PassResult, RunResult

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

    # -- orchestration ---------------------------------------------------------

    def _run_pass(
        self, k: int, prev_rows: np.ndarray, prev_counts: np.ndarray
    ) -> Generator:
        cfg = self.config
        t0 = self.env.now
        self._trace_phase(f"pass {k} start")
        candidates = generate_candidates(prev_rows, k)
        lines = self.partitioner.lines_of(candidates)

        stats_before = [self._pager_snapshot(a) for a in self.app_ids]

        # Every node holds (and counts into) its own copy of the table.
        everything = np.arange(len(candidates))
        held = self.partitioner.lines_of_node(0)
        for a in self.app_ids:
            self.managers[a].begin_pass(CandidateHashTable(lines), everything, held)

        # Phase 1: EVERY node inserts EVERY candidate (the defining cost).
        yield from self._barrier([self._candgen_node(a) for a in self.app_ids])
        t_candgen = self.env.now
        self._trace_phase(f"pass {k} candidates generated")
        self._span(f"pass{k}/candgen", t0, t_candgen)

        if not len(candidates):
            self._span(f"pass{k}", t0, self.env.now)
            return (
                PassResult(
                    k=k, n_candidates=0,
                    per_node_candidates=[0] * cfg.n_app_nodes, n_large=0,
                    start_time=t0, end_time=self.env.now,
                    candgen_time_s=t_candgen - t0,
                ),
                (candidates, np.empty(0, dtype=np.int64)),
            )

        # Phase 2: purely local counting (every candidate owned by "node 0"
        # of the one-owner partitioner, i.e. by whoever counts it).
        kernel = CountingKernel(self.db.n_items, candidates, np.zeros_like(lines))
        yield from self._barrier(
            [self._count_node(a, kernel) for a in self.app_ids]
        )
        yield from self._barrier([self.managers[a].drain() for a in self.app_ids])
        t_count = self.env.now
        self._trace_phase(f"pass {k} counting done")
        self._span(f"pass{k}/counting", t_candgen, t_count)

        # Phase 3: global reduction of the full count tables.
        merged = yield from self._reduce(len(candidates))
        large = np.flatnonzero(merged >= self.minsup_count)

        return (
            self._finish_pass(
                k,
                t0,
                t_candgen,
                t_count,
                stats_before,
                n_candidates=len(candidates),
                # NPA duplicates the full set everywhere.
                per_node_candidates=[len(candidates)] * cfg.n_app_nodes,
                n_large=len(large),
                n_duplicated=len(candidates),
                count_messages=0,
            ),
            (candidates[large], merged[large]),
        )

    # -- per-node phases ----------------------------------------------------

    def _candgen_node(self, a: int) -> Generator:
        codes = self.managers[a].owned
        if codes.size:
            yield from self.cluster[a].compute(
                self.config.cost.cpu_candgen_per_candidate_s * codes.size
            )
        yield from self._insert_candidates(a, codes)

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

    def _reduce(self, n_candidates: int) -> Generator:
        """All-reduce every node's full count table.

        The table is large (28 B per candidate), which is NPA's second
        structural cost next to the duplicated memory.
        """
        yield from self._all_reduce(n_candidates, "npa-reduce", "npa-large")
        # The actual merge (the messages above carried the timing).
        merged = np.zeros(n_candidates, dtype=np.int64)
        for a in self.app_ids:
            mgr = self.managers[a]
            yield from mgr.iter_all_lines()
            merged += mgr.table.counts
        return merged


def run_npa(db: TransactionDatabase, config: NPAConfig) -> RunResult:
    """Convenience wrapper: build an :class:`NPARun` and execute it."""
    return NPARun(db, config).run()
