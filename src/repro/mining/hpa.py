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

Cluster bring-up, the pass loop, pass 1, the candidate pass itself
(phases, barriers, spans, pager deltas) and the telemetry surface live
in :class:`~repro.runtime.driver.MiningDriver`; this module supplies
only its three hooks: hash-partitioned candidate placement (``_place``),
the sender/receiver counting processes (``_counting``) and the
determination broadcast with the ELD all-reduce (``_determine``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.datagen.corpus import TransactionDatabase
from repro.mining.hash_table import CandidateHashTable
from repro.mining.itemsets import ITEMSET_BYTES
from repro.mining.kernels import (
    OWNER_DUPLICATED,
    CountingKernel,
    OwnerStreams,
    eld_scores,
)
from repro.mining.partition import HashPartitioner
from repro.runtime.config import RunConfig
from repro.runtime.driver import MiningDriver, SendWindow
from repro.runtime.results import RunResult

__all__ = ["HPAConfig", "HPARun", "run_hpa"]

#: Sentinel payload closing one sender->receiver stream.
_EOF = "__eof__"

_NO_CODES = np.empty(0, dtype=np.int64)


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
        # The current pass's shared table and its duplicated (ELD) codes
        # with their folded counts, set by :meth:`_place`.
        self._table = CandidateHashTable(_NO_CODES)
        self._dup = self._dup_counts = _NO_CODES

    # -- the driver hooks ------------------------------------------------------

    def _place(
        self, candidates: np.ndarray, prev_rows: np.ndarray, prev_counts: np.ndarray
    ) -> tuple[np.ndarray, list[int], int, int]:
        cfg = self.config
        # Routing is resolved once per pass, as arrays aligned with the
        # candidate rows; the counting phase never re-hashes per occurrence.
        lines = self.partitioner.lines_of(candidates)
        owners = lines % cfg.n_app_nodes

        # HPA-ELD: duplicate the candidates with the highest estimated
        # frequency on every node; they are counted locally and never
        # routed, removing the heaviest share of itemset traffic.  Ties
        # rank by code, as a stable descending sort leaves them.
        dup = _NO_CODES
        n_dup = int(cfg.eld_fraction * len(candidates))
        if n_dup:
            scores = eld_scores(candidates, prev_rows, prev_counts)
            dup = np.sort(np.argsort(-scores, kind="stable")[:n_dup])
            lines[dup] = -1
            owners[dup] = OWNER_DUPLICATED
        self._dup = dup
        # Every node's duplicated-candidate occurrences fold into this one
        # array, aligned with ``dup``: the all-reduce that sums them is
        # modelled in time only.
        self._dup_counts = np.zeros(n_dup, dtype=np.int64)

        routed = owners != OWNER_DUPLICATED
        per_node_cands = np.bincount(owners[routed], minlength=cfg.n_app_nodes)

        # One table for the pass: a routed code has exactly one owner.
        self._table = CandidateHashTable(lines)
        for a in self.app_ids:
            self.managers[a].begin_pass(
                self._table, np.flatnonzero(owners == a),
                self.partitioner.lines_of_node(a),
            )
        return owners, per_node_cands.tolist(), n_dup, n_dup

    def _counting(self, kernel: CountingKernel) -> list[Generator]:
        counting: list[Generator] = []
        for a in self.app_ids:
            counting.append(self._receiver_node(a, kernel))
            counting.append(self._sender_node(a, kernel, self._dup, self._dup_counts))
        return counting

    def _determine(self) -> Generator:
        """Every node's determination, then the ELD all-reduce of the
        duplicated candidates' partial counts when the variant is on."""
        yield from self._barrier([self._determine_node(a) for a in self.app_ids])
        counts = self._table.counts
        if self._dup.size:
            yield from self._all_reduce(self._dup.size, "eldgather", "eldlarge")
            counts[self._dup] = self._dup_counts  # no node's table holds these
        return counts

    # -- per-node phase processes ----------------------------------------------

    def _sender_node(
        self, a: int, kernel: CountingKernel, dup: np.ndarray, dup_counts: np.ndarray
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
        candidates never yield and fold into ``dup_counts`` (aligned with
        the sorted duplicated codes ``dup``) at the end either way.

        Returns the number of count messages this sender shipped.
        """
        n_messages = 0
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        window = SendWindow(self.env)
        dests = [b for b in self.app_ids if b != a]
        streams = OwnerStreams(dests, cost.updates_per_message())
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
        yield from self._broadcast(a, dests, "count", 16, _EOF)
        kernel.apply_local_pairs(mgr, local_codes)
        if dup.size and dup_codes:
            seen = np.searchsorted(dup, np.concatenate(dup_codes))
            dup_counts += np.bincount(seen, minlength=dup.size)
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

    def _determine_node(self, a: int) -> Generator:
        """Find the locally large itemsets and broadcast them (the
        driver reads L_k off the shared table)."""
        mgr = self.managers[a]
        n_scanned = yield from mgr.iter_all_lines()
        n_large = np.count_nonzero(mgr.table.counts[mgr.owned] >= self.minsup_count)
        if n_scanned:
            yield from self.cluster[a].compute(
                self.config.cost.cpu_determine_per_itemset_s * n_scanned
            )
        yield from self._exchange(a, "large", max(16, ITEMSET_BYTES * int(n_large)))


def run_hpa(db: TransactionDatabase, config: HPAConfig) -> RunResult:
    """Convenience wrapper: build an :class:`HPARun` and execute it."""
    return HPARun(db, config).run()
