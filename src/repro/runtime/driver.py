"""MiningDriver: the execution scaffolding shared by HPA and NPA.

Both parallel Apriori drivers are the *same program* outside their
counting strategy: build a cluster runtime, run pass 1 (local item
counts + all-to-all count-vector exchange), then iterate candidate
passes until no large itemsets remain, collecting per-pass pager deltas
and reporting through the telemetry bus.  This base class owns all of
that; a driver subclass supplies ``driver_name``, ``pass1_channel``,
and ``_run_pass`` (plus its own per-node counting processes).

Historically NPA borrowed HPA's telemetry methods by class-attribute
assignment; inheritance replaces that hack with an actual shared
surface.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.cluster.dynamics import scripted_shortage
from repro.errors import MiningError
from repro.mining.itemsets import Itemset, itemset_tuples
from repro.obs import Telemetry, current_telemetry
from repro.obs.telemetry import run_meta
from repro.runtime.builder import ClusterRuntime, build_runtime
from repro.runtime.config import RunConfig
from repro.runtime.results import PassResult, RunResult
from repro.sim import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.corpus import TransactionDatabase

__all__ = ["MiningDriver", "SendWindow", "SEND_WINDOW"]

#: Number of itemsets whose CPU cost is charged per compute call in the
#: hot loops (keeps simulator event counts low without distorting totals).
CPU_CHUNK = 512

#: Asynchronous sends one process keeps in flight before it waits for
#: the oldest to complete.
SEND_WINDOW = 4


class SendWindow:
    """At most :data:`SEND_WINDOW` in-flight asynchronous sends per
    process."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._inflight: list = []

    def post(self, gen: Generator) -> Generator:
        """Launch ``gen`` as a process once a window slot frees up."""
        inflight = self._inflight
        if len(inflight) >= SEND_WINDOW:
            # Compact lazily: dead entries only matter once the window
            # looks full, and any_of must never see an already-dead
            # process.
            inflight[:] = [p for p in inflight if p.is_alive]
            while len(inflight) >= SEND_WINDOW:
                yield self.env.any_of(inflight)
                inflight[:] = [p for p in inflight if p.is_alive]
        inflight.append(self.env.process(gen))

    def drain(self) -> Generator:
        """Wait for every posted send to finish."""
        alive = [p for p in self._inflight if p.is_alive]
        if alive:
            yield self.env.all_of(alive)
        self._inflight.clear()


class MiningDriver:
    """One single-use parallel-mining execution over a cluster runtime."""

    #: Manifest tag for telemetry run entries.
    driver_name = "driver"
    #: Transport channel used by the pass-1 count-vector exchange (the
    #: two drivers keep their historical channel names so traces stay
    #: comparable across versions).
    pass1_channel = "pass1"

    def __init__(self, db: "TransactionDatabase", config: RunConfig) -> None:
        if len(db) < config.n_app_nodes:
            raise MiningError("fewer transactions than application nodes")
        self.db = db
        self.config = config
        self.runtime: ClusterRuntime = build_runtime(config)
        # Aliases into the runtime, kept for the (widely used) historical
        # attribute surface: tests, telemetry attach, examples.
        self.env = self.runtime.env
        self.cluster = self.runtime.cluster
        self.app_ids = self.runtime.app_ids
        self.mem_ids = self.runtime.mem_ids
        self.stores = self.runtime.stores
        self.monitors = self.runtime.monitors
        self.clients = self.runtime.clients
        self.pagers = self.runtime.pagers
        self.managers = self.runtime.managers
        self.partitions = db.partition(config.n_app_nodes)
        self.minsup_count = max(1, int(math.ceil(config.minsup * len(db))))
        self.result: Optional[RunResult] = None
        #: Optional list of (virtual_time, mem_node_id) shortage signals
        #: injected during the run (Figure 5's experiment).
        self.shortage_schedule: list[tuple[float, int]] = []
        #: Instrumentation (populated by :meth:`enable_telemetry`).
        self.telemetry: Optional[Telemetry] = None

    # -- instrumentation ---------------------------------------------------

    def enable_telemetry(self, telemetry: Optional[Telemetry] = None) -> Telemetry:
        """Wire this run into a telemetry session (event bus + metrics).

        With no argument a fresh private :class:`Telemetry` is created;
        passing an existing one lets several consecutive runs share one
        trace (how ``repro-bench run --trace`` collects a whole sweep).
        Every event source emits on the run's one bus, so this hooks
        them all.  Call before :meth:`run`.
        """
        if telemetry is None:
            telemetry = Telemetry()
        self.telemetry = telemetry
        telemetry.attach(self, run_meta(self.driver_name, self.config))
        return telemetry

    def _trace_phase(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.phase_mark(name)

    def _span(self, name: str, start: float, end: float) -> None:
        if self.telemetry is not None:
            self.telemetry.span(name, start, end)

    # -- public API --------------------------------------------------------

    def run(self) -> RunResult:
        """Execute to completion and return the mining result.

        A run object is single-use: the simulated cluster's state is
        consumed by the execution.
        """
        if self.result is not None:
            raise MiningError("this run has already executed; build a new one")
        if self.telemetry is None:
            ambient = current_telemetry()
            if ambient is not None:
                self.enable_telemetry(ambient)
        self.runtime.start_services()
        # Scripted shortages run as degenerate one-shot traces: a single
        # step to 100 % pressure at the scheduled time, event-for-event
        # identical to the historical harness-side injector (pinned by
        # the runtime goldens).  Continuous dynamics — churn traces and
        # failure events — were started by ``start_services`` above.
        for t, node_id in self.shortage_schedule:
            self.env.process(scripted_shortage(self.env, self.monitors, t, node_id))
        main = self.env.process(self._main())
        self.env.run(until=main)
        self.runtime.stop_services()
        assert self.result is not None
        if self.telemetry is not None:
            faults, fault_time = self.runtime.total_fault_stats()
            self.telemetry.end_run(
                total_time_s=self.result.total_time_s,
                passes=len(self.result.passes),
                n_large=len(self.result.large_itemsets),
                faults=faults,
                fault_time_s=fault_time,
            )
        return self.result

    # -- orchestration -----------------------------------------------------

    def _barrier(self, generators: list[Generator]) -> Generator:
        procs = [self.env.process(g) for g in generators]
        yield self.env.all_of(procs)
        return [p.value for p in procs]

    def _main(self) -> Generator:
        cfg = self.config
        start = self.env.now
        passes: list[PassResult] = []
        all_large: dict[Itemset, int] = {}

        # If monitors exist, give the first availability broadcast time to
        # land before any swapping can be needed (the paper's monitors run
        # from machine boot; ours start with the run).
        if self.monitors:
            yield self.env.timeout(
                2 * cfg.cost.monitor_cpu_per_message_s * len(self.app_ids) + 2e-3
            )

        # ---- pass 1 (identical in both drivers) ----
        t0 = self.env.now
        local_counts = yield from self._barrier(
            [self._pass1_node(a) for a in self.app_ids]
        )
        global_counts = np.sum(local_counts, axis=0)
        large_items = np.flatnonzero(global_counts >= self.minsup_count)
        # L_k between passes: lex-sorted rows plus aligned support counts.
        rows, counts = large_items[:, None], global_counts[large_items]
        self._span("pass1", t0, self.env.now)
        passes.append(
            PassResult(
                k=1,
                n_candidates=self.db.n_items,
                per_node_candidates=[],
                n_large=len(rows),
                start_time=t0,
                end_time=self.env.now,
            )
        )

        # ---- passes k >= 2 ----
        k = 2
        while True:
            all_large.update(zip(itemset_tuples(rows), counts.tolist()))
            if not len(rows) or 0 < cfg.max_k < k:
                break
            pass_result, (rows, counts) = yield from self._run_pass(k, rows, counts)
            passes.append(pass_result)
            if pass_result.n_candidates == 0:
                break
            k += 1

        self.result = RunResult(
            large_itemsets=all_large,
            passes=passes,
            total_time_s=self.env.now - start,
        )
        return None

    def _run_pass(
        self, k: int, prev_rows: np.ndarray, prev_counts: np.ndarray
    ) -> Generator:
        """Run one candidate pass over L_{k-1} (lex-sorted rows and their
        supports); returns ``(PassResult, (rows, counts))`` of L_k.

        The counting strategy — candidate placement, communication,
        reduction — is the whole difference between drivers.
        """
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator function

    # -- shared per-node phase processes -----------------------------------

    def _block_ranges(self, a: int) -> "list[tuple[int, int]]":
        """(start, end) transaction ranges of the local partition, one
        per 64 KB sequential disk read — the geometry every scan shares."""
        part = self.partitions[a]
        n = len(part)
        avg_txn_bytes = max(1.0, part.size_bytes() / max(1, n))
        step = max(1, int(self.config.cost.disk_io_block_bytes / avg_txn_bytes))
        return [(i, min(n, i + step)) for i in range(0, n, step)]

    def _scan_blocks(self, a: int) -> Generator:
        """Sequential disk scan of the local partition."""
        disk = self.cluster[a].data_disk
        block_bytes = self.config.cost.disk_io_block_bytes
        for _ in self._block_ranges(a):
            yield from disk.read(block_bytes, sequential=True)

    def _pass1_node(self, a: int) -> Generator:
        """Scan the partition, count items, exchange count vectors."""
        part = self.partitions[a]
        node = self.cluster[a]
        cost = self.config.cost
        # Disk scan + per-item CPU.
        yield from self._scan_blocks(a)
        yield from node.compute(cost.cpu_count_per_itemset_s * part.total_items)
        counts = part.item_counts()
        # Exchange: send the count vector to every other application node.
        window = SendWindow(self.env)
        vec_bytes = 4 * self.db.n_items
        for b in self.app_ids:
            if b == a:
                continue
            yield from window.post(
                self.cluster.transport.send(a, b, self.pass1_channel, None, vec_bytes)
            )
        yield from window.drain()
        # Receive the other nodes' vectors (timing only; the orchestrator
        # sums the real vectors).
        for _ in range(len(self.app_ids) - 1):
            yield self.cluster.transport.recv(a, self.pass1_channel)
        return counts

    def _all_reduce(
        self, n_entries: int, gather_channel: str, result_channel: str
    ) -> Generator:
        """All-reduce of an ``n_entries``-long count vector, in simulated
        time only: every node sends its 28 B/entry vector to node 0,
        which merges them and broadcasts the result through a send
        window.  The counts themselves are summed host-side by the
        caller."""
        others = self.app_ids[1:]
        if not others:
            return
        transport = self.cluster.transport
        vec_bytes = max(16, 28 * n_entries)

        def gather(a: int) -> Generator:
            yield from transport.send(a, 0, gather_channel, None, vec_bytes)

        def collect() -> Generator:
            for _ in others:
                yield transport.recv(0, gather_channel)
            yield from self.cluster[0].compute(
                self.config.cost.cpu_count_per_itemset_s * n_entries * len(self.app_ids)
            )
            window = SendWindow(self.env)
            for b in others:
                yield from window.post(
                    transport.send(0, b, result_channel, None, vec_bytes)
                )
            yield from window.drain()

        def receive(a: int) -> Generator:
            yield transport.recv(a, result_channel)

        yield from self._barrier(
            [collect()] + [gather(a) for a in others] + [receive(a) for a in others]
        )

    def _insert_candidates(self, a: int, codes: np.ndarray) -> Generator:
        """Insert the candidates ``codes`` through node ``a``'s swap
        manager, charging CPU in :data:`CPU_CHUNK` batches.

        The prefix that cannot evict, fault or buffer goes in as one
        grouped pass; its CPU is then charged by the same sequence of
        compute calls the per-candidate walk interleaves, and the walk
        resumes at the same chunk alignment for the remainder.
        """
        node = self.cluster[a]
        mgr = self.managers[a]
        lines = mgr.table.lines[codes]
        chunk_cpu = self.config.cost.cpu_count_per_itemset_s * CPU_CHUNK
        inserted = mgr.insert_resident_prefix(codes, lines)
        for _ in range(inserted // CPU_CHUNK):
            yield from node.compute(chunk_cpu)
        for code, line in zip(codes[inserted:].tolist(), lines[inserted:].tolist()):
            op = mgr.insert_candidate(code, line)
            if op is not None:
                yield from op
            inserted += 1
            if inserted % CPU_CHUNK == 0:
                yield from node.compute(chunk_cpu)
        if inserted % CPU_CHUNK:
            yield from node.compute(
                self.config.cost.cpu_count_per_itemset_s * (inserted % CPU_CHUNK)
            )

    def _count_ordered(self, a: int, codes: np.ndarray) -> Generator:
        """Count occurrences node ``a`` owns, in order, under a pager.

        One ordered walk: the replacement policy touches each
        occurrence's line in turn until it meets a line it does not
        hold.  That occurrence takes the slow path singly — it may
        buffer an update record, flush a message block, or fault; only
        the last two yield — and the walk resumes behind it.  Between
        two yields a resident access changes nothing observable but the
        policy's order (the count lives at ``counts[code]`` wherever the
        line is), so the message's resident occurrences are settled by
        one ``count_span_codes`` at the end.  Pager-less nodes fold in
        bulk instead (:meth:`CountingKernel.apply_local_pairs`).
        """
        mgr = self.managers[a]
        lines = mgr.table.lines[codes]
        line_list = lines.tolist()
        hit = np.ones(len(line_list), dtype=bool)
        stop = mgr.policy.touch_run(line_list, 0)
        while stop < len(line_list):
            hit[stop] = False
            op = mgr.count_itemset(int(codes[stop]), line_list[stop])
            if op is not None:
                yield from op
            stop = mgr.policy.touch_run(line_list, stop + 1)
        mgr.count_span_codes(codes[hit], lines[hit])

    # -- helpers -----------------------------------------------------------

    def _pager_snapshot(self, a: int) -> tuple:
        pager = self.pagers[a]
        if pager is None:
            return (0, 0, 0, 0.0)
        s = pager.stats
        return (s.faults, s.swap_outs, s.update_messages, s.fault_time_s)

    def _finish_pass(
        self,
        k: int,
        t0: float,
        t_candgen: float,
        t_count: float,
        stats_before: "list[tuple]",
        *,
        n_candidates: int,
        per_node_candidates: "list[int]",
        n_large: int,
        n_duplicated: int,
        count_messages: int,
    ) -> PassResult:
        """Close pass ``k`` at the current instant: determine/pass spans,
        per-node pager deltas since ``stats_before`` (one
        :meth:`_pager_snapshot` per application node), per-pass cleanup,
        and the result row.
        """
        t_det = self.env.now
        self._span(f"pass{k}/determine", t_count, t_det)
        self._span(f"pass{k}", t0, t_det)
        delta = [
            tuple(after - before for after, before in zip(self._pager_snapshot(a), snap))
            for a, snap in zip(self.app_ids, stats_before)
        ]
        # Per-pass cleanup: hash tables, guest stores.
        self.runtime.reset_pass()
        return PassResult(
            k=k,
            n_candidates=n_candidates,
            per_node_candidates=per_node_candidates,
            n_large=n_large,
            start_time=t0,
            end_time=self.env.now,
            candgen_time_s=t_candgen - t0,
            counting_time_s=t_count - t_candgen,
            determine_time_s=t_det - t_count,
            faults_per_node=[d[0] for d in delta],
            swap_outs_per_node=[d[1] for d in delta],
            update_msgs_per_node=[d[2] for d in delta],
            fault_time_per_node=[d[3] for d in delta],
            n_duplicated=n_duplicated,
            count_messages=count_messages,
        )
