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

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Generator, Optional

import numpy as np

from repro.datagen.corpus import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.candidates import generate_candidates
from repro.mining.hpa import HPAConfig
from repro.mining.itemsets import Itemset, itemset_rows
from repro.mining.kernels import CountingKernel
from repro.mining.partition import HashPartitioner
from repro.runtime.driver import MiningDriver, SendWindow
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

    def _run_pass(self, k: int, l_prev: dict[Itemset, int]) -> Generator:
        cfg = self.config
        t0 = self.env.now
        self._trace_phase(f"pass {k} start")
        candidates = generate_candidates(sorted(l_prev), k)
        lines = self.partitioner.lines_of(itemset_rows(candidates, k))
        kernel: Optional[CountingKernel] = None
        if cfg.kernel == "vector" and candidates:
            kernel = CountingKernel(
                k, self.db.n_items, candidates, lines, np.zeros_like(lines)
            )

        stats_before = {a: self._pager_snapshot(a) for a in self.app_ids}

        # Phase 1: EVERY node inserts EVERY candidate (the defining cost).
        yield from self._barrier(
            [self._candgen_node(a, candidates, lines) for a in self.app_ids]
        )
        t_candgen = self.env.now
        self._trace_phase(f"pass {k} candidates generated")
        self._span(f"pass{k}/candgen", t0, t_candgen)

        if not candidates:
            self._span(f"pass{k}", t0, self.env.now)
            return (
                PassResult(
                    k=k, n_candidates=0,
                    per_node_candidates=[0] * cfg.n_app_nodes, n_large=0,
                    start_time=t0, end_time=self.env.now,
                    candgen_time_s=t_candgen - t0,
                ),
                {},
            )

        # Phase 2: purely local counting.
        l_prev_keys = set(l_prev)
        l1_mask = self._l1_mask(l_prev) if k == 2 else None
        yield from self._barrier(
            [
                self._count_node(a, k, l_prev_keys, l1_mask, kernel)
                for a in self.app_ids
            ]
        )
        yield from self._barrier([self.managers[a].drain() for a in self.app_ids])
        t_count = self.env.now
        self._trace_phase(f"pass {k} counting done")
        self._span(f"pass{k}/counting", t_candgen, t_count)

        # Phase 3: global reduction of the full count tables.
        merged = yield from self._reduce(len(candidates))
        l_now = {i: c for i, c in merged.items() if c >= self.minsup_count}
        t_det = self.env.now
        self._span(f"pass{k}/determine", t_count, t_det)
        self._span(f"pass{k}", t0, t_det)

        stats_after = {a: self._pager_snapshot(a) for a in self.app_ids}
        delta = {
            a: tuple(x - y for x, y in zip(stats_after[a], stats_before[a]))
            for a in self.app_ids
        }

        self.runtime.reset_pass()

        return (
            PassResult(
                k=k,
                n_candidates=len(candidates),
                # NPA duplicates the full set everywhere.
                per_node_candidates=[len(candidates)] * cfg.n_app_nodes,
                n_large=len(l_now),
                start_time=t0,
                end_time=self.env.now,
                candgen_time_s=t_candgen - t0,
                counting_time_s=t_count - t_candgen,
                determine_time_s=t_det - t_count,
                faults_per_node=[delta[a][0] for a in self.app_ids],
                swap_outs_per_node=[delta[a][1] for a in self.app_ids],
                update_msgs_per_node=[delta[a][2] for a in self.app_ids],
                fault_time_per_node=[delta[a][3] for a in self.app_ids],
                n_duplicated=len(candidates),
                count_messages=0,
            ),
            l_now,
        )

    # -- per-node phases ----------------------------------------------------

    def _candgen_node(
        self, a: int, candidates: "list[Itemset]", lines: np.ndarray
    ) -> Generator:
        node = self.cluster[a]
        cost = self.config.cost
        if candidates:
            yield from node.compute(
                cost.cpu_candgen_per_candidate_s * len(candidates)
            )
        yield from self._insert_candidates(a, candidates, lines)

    def _count_node(
        self,
        a: int,
        k: int,
        l_prev_keys: set,
        l1_mask: "Optional[np.ndarray]",
        kernel: Optional[CountingKernel] = None,
    ) -> Generator:
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        # Without a pager occurrence order is unobservable (the fast
        # path never yields), so occurrences are accumulated per block
        # and folded in bulk after the scan.
        bulk = kernel is not None and mgr.pager is None
        pending: list[np.ndarray] = []
        tally: Counter[Itemset] = Counter()
        offsets = part.offsets
        for i, j in self._block_ranges(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            counted = 0
            if kernel is not None and kernel.dense:
                block = part.items[offsets[i] : offsets[j]]
                rel = offsets[i : j + 1] - offsets[i]
                codes = kernel.pair_block(block, rel, l1_mask)
                counted = int(codes.size)
                if counted and bulk:
                    pending.append(codes)
                elif counted:
                    lines = kernel.lines_of(codes).tolist()
                    for itemset, line in zip(kernel.decode_pairs(codes), lines):
                        op = mgr.count_itemset(itemset, line)
                        if op is not None:
                            yield from op
            elif kernel is not None:
                for t in range(i, j):
                    subsets = kernel.subsets_of(part[t])
                    counted += len(subsets)
                    if bulk:
                        tally.update(subsets)
                    else:
                        for itemset in subsets:
                            line, _ = kernel.route_of(itemset)
                            op = mgr.count_itemset(itemset, line)
                            if op is not None:
                                yield from op
            else:
                line_of = self.partitioner.line_of
                for t in range(i, j):
                    txn = part[t]
                    if k == 2:
                        subsets = combinations(txn[l1_mask[txn]].tolist(), 2)
                    else:
                        subsets = (
                            s
                            for s in combinations(txn.tolist(), k)
                            if all(
                                sub in l_prev_keys
                                for sub in combinations(s, k - 1)
                            )
                        )
                    for itemset in subsets:
                        counted += 1
                        op = mgr.count_itemset(itemset, line_of(itemset))
                        if op is not None:
                            yield from op
            if counted:
                yield from node.compute(
                    (cost.cpu_generate_per_itemset_s + cost.cpu_count_per_itemset_s)
                    * counted
                )
        if kernel is not None:
            kernel.apply_local_pairs(mgr, pending)
            kernel.apply_local_tally(mgr, tally)

    def _reduce(self, n_candidates: int) -> Generator:
        """Gather every node's full count table at node 0, merge, broadcast.

        The table is large (28 B per candidate), which is NPA's second
        structural cost next to the duplicated memory.
        """
        cost = self.config.cost
        vec_bytes = max(16, 28 * n_candidates)

        def send_table(a: int) -> Generator:
            yield from self.cluster.transport.send(a, 0, "npa-reduce", None, vec_bytes)

        def coordinate() -> Generator:
            for _ in range(len(self.app_ids) - 1):
                yield self.cluster.transport.recv(0, "npa-reduce")
            yield from self.cluster[0].compute(
                cost.cpu_count_per_itemset_s * n_candidates * len(self.app_ids)
            )
            window = SendWindow(self.env, self.config.send_window)
            for b in self.app_ids[1:]:
                yield from window.post(
                    self.cluster.transport.send(0, b, "npa-large", None, vec_bytes)
                )
            yield from window.drain()

        def receive(a: int) -> Generator:
            yield self.cluster.transport.recv(a, "npa-large")

        procs: list[Generator] = []
        if len(self.app_ids) > 1:
            procs.append(coordinate())
            procs += [send_table(a) for a in self.app_ids[1:]]
            procs += [receive(a) for a in self.app_ids[1:]]
        if procs:
            yield from self._barrier(procs)

        # The actual merge (the messages above carried the timing).
        merged: dict[Itemset, int] = {}
        for a in self.app_ids:
            mgr = self.managers[a]
            lines = yield from mgr.iter_all_lines()
            for line in lines:
                for itemset, c in line.counts.items():
                    merged[itemset] = merged.get(itemset, 0) + c
        return merged


def run_npa(db: TransactionDatabase, config: NPAConfig) -> RunResult:
    """Convenience wrapper: build an :class:`NPARun` and execute it."""
    return NPARun(db, config).run()
