"""Hash-Partitioned Apriori (HPA) on the simulated cluster.

This is the paper's §2.2/§3.3 parallel miner, run as discrete-event
processes on a :class:`~repro.runtime.builder.ClusterRuntime`.  Each
pass:

1. **Candidate generation** — every node generates all candidate
   k-itemsets from the (globally known) large (k-1)-itemsets, keeps
   those whose hash line it owns, and inserts them through its
   :class:`~repro.core.swap_manager.SwapManager` (which may start
   swapping out hash lines when the memory-usage limit is crossed).
2. **Counting** — per node a *sender* process scans the local
   transaction partition (sequential 64 KB disk reads), generates
   k-subsets, routes each by hash to its owner, batching itemsets into
   4 KB message blocks; a *receiver* process counts incoming itemsets
   into the swap-managed hash table.  Pagefaults and remote updates
   happen here.  Itemsets owned locally are counted in place.
3. **Determination** — each node reads every line it owns (peeking
   swapped ones through the pager), selects locally large itemsets, and
   broadcasts them; the globally known L_k feeds the next pass.

The result — large itemsets with exact support counts — is invariant
under every pager/limit configuration; only the virtual clock differs.
That property is what the integration tests pin against sequential
Apriori.

Cluster bring-up, the pass loop, pass 1, and the telemetry surface live
in :class:`~repro.runtime.driver.MiningDriver`; this module contains
only what is HPA-specific: hash-partitioned candidate placement, the
sender/receiver counting phase, and the determination broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.datagen.corpus import TransactionDatabase
from repro.mining.candidates import generate_candidates
from repro.mining.hash_table import CandidateHashTable
from repro.mining.itemsets import ITEMSET_BYTES, Itemset, itemset_rows
from repro.mining.kernels import (
    OWNER_DUPLICATED,
    CountingKernel,
    OwnerStreams,
    eld_scores,
)
from repro.mining.partition import HashPartitioner
from repro.runtime.config import RunConfig
from repro.runtime.driver import MiningDriver, SendWindow
from repro.runtime.results import PassResult, RunResult

__all__ = ["HPAConfig", "HPAResult", "HPARun", "run_hpa"]

#: Sentinel payload closing one sender->receiver stream.
_EOF = "__eof__"

#: Historical alias — the result type is driver-independent now.
HPAResult = RunResult


@dataclass(frozen=True)
class HPAConfig(RunConfig):
    """Configuration of one HPA run (paper §5.1 parameters).

    A thin subclass of :class:`~repro.runtime.config.RunConfig` kept for
    its import path; all fields and validation live in the base.
    """


class HPARun(MiningDriver):
    """One fully-wired HPA execution over a simulated cluster."""

    #: Manifest tag for telemetry run entries.
    driver_name = "hpa"
    pass1_channel = "pass1"

    def __init__(self, db: TransactionDatabase, config: HPAConfig) -> None:
        super().__init__(db, config)
        self.partitioner = HashPartitioner(config.total_lines, config.n_app_nodes)

    # -- orchestration ---------------------------------------------------------

    def _run_pass(self, k: int, l_prev: dict[Itemset, int]) -> Generator:
        cfg = self.config
        t0 = self.env.now
        self._trace_phase(f"pass {k} start")

        # Generate the candidate set once (every node computes it in the
        # real system; we charge each node's CPU but share the Python
        # object).
        candidates = generate_candidates(sorted(l_prev), k)

        # Routing is resolved once per pass, as arrays aligned with the
        # candidate list; the counting phase never re-hashes per occurrence.
        rows = itemset_rows(candidates, k)
        lines = self.partitioner.lines_of(rows)
        owners = lines % cfg.n_app_nodes

        # HPA-ELD: duplicate the candidates with the highest estimated
        # frequency on every node; they are counted locally and never
        # routed, removing the heaviest share of itemset traffic.  The
        # ranking key (min support over (k-1)-subsets) is computed once
        # per candidate, not once per comparison.
        ranked: list[int] = []
        n_dup = int(cfg.eld_fraction * len(candidates))
        if n_dup:
            scores = eld_scores(candidates, l_prev, k)
            ranked = sorted(
                range(len(candidates)), key=scores.__getitem__, reverse=True
            )[:n_dup]
            lines[ranked] = -1
            owners[ranked] = OWNER_DUPLICATED
        # Every node's duplicated-candidate occurrences fold into this one
        # dict: the all-reduce that sums them is modelled in time only.
        dup_counts: dict[Itemset, int] = {candidates[i]: 0 for i in ranked}

        routed = owners != OWNER_DUPLICATED
        per_node_cands = np.bincount(
            owners[routed], minlength=cfg.n_app_nodes
        ).tolist()

        stats_before = [self._pager_snapshot(a) for a in self.app_ids]

        # One table for the pass: a routed code has exactly one owner.
        table = CandidateHashTable(lines)
        for a in self.app_ids:
            self.managers[a].begin_pass(table, np.flatnonzero(owners == a))

        # Phase 1: candidate generation + insertion.
        yield from self._barrier(
            [self._candgen_node(a, len(candidates), n_dup) for a in self.app_ids]
        )
        t_candgen = self.env.now
        self._trace_phase(f"pass {k} candidates generated")
        self._span(f"pass{k}/candgen", t0, t_candgen)

        if not candidates:
            self._span(f"pass{k}", t0, self.env.now)
            return (
                PassResult(
                    k=k,
                    n_candidates=0,
                    per_node_candidates=per_node_cands,
                    n_large=0,
                    start_time=t0,
                    end_time=self.env.now,
                    candgen_time_s=t_candgen - t0,
                ),
                {},
            )

        # Phase 2: counting.
        kernel = CountingKernel(self.db.n_items, rows, owners)
        counting = []
        for a in self.app_ids:
            counting.append(self._receiver_node(a, kernel))
            counting.append(self._sender_node(a, kernel, dup_counts))
        outcomes = yield from self._barrier(counting)
        n_count_messages = sum(v for v in outcomes if isinstance(v, int))
        # Settle outstanding update messages before reading counts.
        yield from self._barrier([self.managers[a].drain() for a in self.app_ids])
        t_count = self.env.now
        self._trace_phase(f"pass {k} counting done")
        self._span(f"pass{k}/counting", t_candgen, t_count)

        # Phase 3: determination (+ the ELD all-reduce of duplicated
        # candidates' partial counts, when the variant is enabled).
        local_larges = yield from self._barrier(
            [self._determine_node(a, kernel) for a in self.app_ids]
        )
        l_now: dict[Itemset, int] = {}
        for chunk in local_larges:
            l_now.update(chunk)
        if n_dup:
            yield from self._all_reduce(n_dup, "eldgather", "eldlarge")
            for itemset, count in dup_counts.items():
                if count >= self.minsup_count:
                    l_now[itemset] = count

        return (
            self._finish_pass(
                k,
                t0,
                t_candgen,
                t_count,
                stats_before,
                n_candidates=len(candidates),
                per_node_candidates=per_node_cands,
                n_large=len(l_now),
                n_duplicated=n_dup,
                count_messages=n_count_messages,
            ),
            l_now,
        )

    # -- per-node phase processes ----------------------------------------------

    def _candgen_node(self, a: int, n_candidates: int, n_duplicated: int) -> Generator:
        """Generate all candidates (CPU), insert the owned ones.

        Duplicated (ELD) candidates live outside the hash table but their
        footprint still counts against the node's memory-usage limit.
        """
        mgr = self.managers[a]
        mgr.pinned_bytes = ITEMSET_BYTES * n_duplicated
        if n_candidates:
            yield from self.cluster[a].compute(
                self.config.cost.cpu_candgen_per_candidate_s * n_candidates
            )
        yield from self._insert_candidates(a, mgr.owned)

    def _sender_node(
        self, a: int, kernel: CountingKernel, dup_counts: "dict[Itemset, int]"
    ) -> Generator:
        """Scan transactions, route occurrence codes, count local ones.

        The paper's counting loop, once: per 64 KB disk block, generate
        the block's occurrence codes, split them into duplicated, local
        and remote, post every 4 KB message a remote buffer fills
        (:class:`OwnerStreams` gives the naive per-occurrence sender's
        flush positions and payloads), then charge the block's CPU.
        Without a pager the local counting path never yields, so the
        order of local counts is unobservable in virtual time and they
        fold in bulk after the scan.  With a pager, simulated time can
        advance only at a flush or at a fault on a non-resident local
        line, so the local occurrences emitted before each flush are
        counted (:meth:`_count_ordered`) before it posts.  Duplicated
        candidates never yield and fold at the end either way.

        Returns the number of count messages this sender shipped.
        """
        n_messages = 0
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        window = SendWindow(self.env)
        dests = [b for b in self.app_ids if b != a]
        streams = OwnerStreams(
            dests, max(1, cost.message_block_bytes // ITEMSET_BYTES)
        )
        bulk = mgr.pager is None
        local_codes: list[np.ndarray] = []
        dup_codes: list[np.ndarray] = []

        for i, j in self._block_ranges(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            codes = kernel.occurrences(part, i, j)
            generated = int(codes.size)
            local_counted = 0
            if generated:
                owners = kernel.owners_of(codes)
                dup_sel = owners == OWNER_DUPLICATED
                loc_pos = np.flatnonzero(owners == a)
                loc = codes[loc_pos]
                local_counted = int(np.count_nonzero(dup_sel)) + loc.size
                dup_codes.append(codes[dup_sel])
                li = 0  # next uncounted local occurrence
                for pos, b, payload in streams.extend(codes, owners):
                    if not bulk:
                        hi = int(np.searchsorted(loc_pos, pos))
                        yield from self._count_ordered(a, loc[li:hi])
                        li = hi
                    n_messages += 1
                    yield from window.post(
                        self.cluster.transport.send(
                            a, b, "count", payload, cost.message_block_bytes
                        )
                    )
                if bulk:
                    local_codes.append(loc)
                else:
                    yield from self._count_ordered(a, loc[li:])
            cpu = (
                cost.cpu_generate_per_itemset_s * generated
                + cost.cpu_count_per_itemset_s * local_counted
            )
            if cpu > 0:
                yield from node.compute(cpu)

        # Flush partial buffers and close streams.
        for b, payload in streams.residual():
            n_messages += 1
            yield from window.post(
                self.cluster.transport.send(
                    a, b, "count", payload, ITEMSET_BYTES * len(payload)
                )
            )
        # Every payload must be delivered before any EOF departs: the
        # receiver closes its pass on the EOF count, and concurrent
        # in-window transfers give the (small, fast) EOF no causal order
        # against the last payload.  The real network's per-connection
        # FIFO makes this ordering a guarantee, so the model enforces it
        # rather than inheriting it from event-queue insertion order.
        yield from window.drain()
        for b in dests:
            yield from window.post(
                self.cluster.transport.send(a, b, "count", _EOF, 16)
            )
        yield from window.drain()
        kernel.apply_local_pairs(mgr, local_codes)
        if dup_codes:
            dup, totals = np.unique(np.concatenate(dup_codes), return_counts=True)
            for itemset, n in zip(kernel.decode(dup), totals.tolist()):
                dup_counts[itemset] += n
        return n_messages

    def _receiver_node(self, a: int, kernel: CountingKernel) -> Generator:
        """Count the occurrence codes arriving from the other nodes'
        senders: accumulated and folded in bulk once every stream has
        closed when the node has no pager (occurrence order is
        unobservable then), counted in arrival order otherwise."""
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        transport = self.cluster.transport
        remaining_eofs = len(self.app_ids) - 1
        bulk = mgr.pager is None
        pending: list[np.ndarray] = []
        while remaining_eofs > 0:
            msg = yield transport.recv(a, "count")
            payload = msg.payload
            if isinstance(payload, str):  # _EOF
                remaining_eofs -= 1
                continue
            yield from node.compute(
                cost.cpu_per_message_s + cost.cpu_count_per_itemset_s * len(payload)
            )
            if bulk:
                pending.append(payload)
            else:
                yield from self._count_ordered(a, payload)
        kernel.apply_local_pairs(mgr, pending)

    def _determine_node(self, a: int, kernel: CountingKernel) -> Generator:
        """Find locally large itemsets and broadcast them."""
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        lines = yield from mgr.iter_all_lines()
        n_scanned = sum(line.n_itemsets for line in lines)
        counts = mgr.table.counts[mgr.owned]
        large = np.flatnonzero(counts >= self.minsup_count)
        local_large = dict(
            zip(kernel.decode(mgr.owned[large]), counts[large].tolist())
        )
        if n_scanned:
            yield from node.compute(cost.cpu_determine_per_itemset_s * n_scanned)
        # Broadcast local large itemsets to the other application nodes.
        window = SendWindow(self.env)
        payload_bytes = max(16, ITEMSET_BYTES * len(local_large))
        for b in self.app_ids:
            if b == a:
                continue
            yield from window.post(
                self.cluster.transport.send(a, b, "large", None, payload_bytes)
            )
        yield from window.drain()
        for _ in range(len(self.app_ids) - 1):
            yield self.cluster.transport.recv(a, "large")
        return local_large


def run_hpa(db: TransactionDatabase, config: HPAConfig) -> HPAResult:
    """Convenience wrapper: build an :class:`HPARun` and execute it."""
    return HPARun(db, config).run()
