"""The swap manager: per-node memory-usage limit over candidate itemsets.

Paper §4.3: "a limit value for memory usage of candidate itemsets is set
at each node.  When the amount of memory usage exceeds this value during
the execution of HPA program, part of contents is swapped out ...  The
unit of swapping operation is a hash line ...  The hash line swapped out
is selected using a LRU algorithm."

:class:`SwapManager` owns one node's :class:`CandidateHashTable` (resident
lines only), a replacement policy over those lines, and a pager that
moves lines out/in.  The two hot operations — inserting a candidate and
counting an occurrence — are *fast-path/slow-path split*: they return
``None`` when everything was resident (pure Python, no simulation
events), or a generator the calling process must ``yield from`` when a
swap, fault, or update flush is needed.  This keeps event counts
proportional to faults, not to itemsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

import numpy as np

from repro.analysis.cost_model import CostModel
from repro.core.memory_table import LineState, MemoryManagementTable
from repro.core.pager import Pager
from repro.core.policies import LRUPolicy, ReplacementPolicy
from repro.errors import MiningError, SwapError
from repro.mining.hash_table import LINE_HEADER_BYTES, CandidateHashTable, HashLine
from repro.mining.itemsets import ITEMSET_BYTES, Itemset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node

__all__ = ["SpanIndex", "SwapManager", "SwapManagerStats"]


class SpanIndex:
    """Vectorised side ledger for resident-span counting.

    ``candidates``/``lines`` are the pass's candidate list and aligned
    hash-line ids, shared read-only by every node; an occurrence code is
    an index into both.  Counted spans pile up raw in ``pending`` and are
    folded into the hash-line dicts by
    :meth:`SwapManager.flush_span_counts` before any count is read.
    Count *values* live host-side regardless of where the simulated line
    bytes currently sit, so deferring the dict writes is unobservable.
    """

    __slots__ = ("candidates", "lines", "pending")

    def __init__(self, candidates: Sequence[Itemset], lines: np.ndarray) -> None:
        self.candidates = candidates
        self.lines = lines
        self.pending: list[np.ndarray] = []


def _last_occurrence_order(line_ids: "list[int]") -> "list[int]":
    """Distinct ``line_ids`` ordered by last occurrence: touching them in
    this order leaves a replacement policy where touching every
    occurrence in turn would."""
    return list(reversed(dict.fromkeys(reversed(line_ids))))


@dataclass
class SwapManagerStats:
    """Hot-path counters (pager I/O counters live on the pager)."""

    inserts: int = 0
    counts: int = 0
    fast_counts: int = 0
    remote_counts: int = 0


class SwapManager:
    """Memory-limit enforcement for one application execution node."""

    def __init__(
        self,
        node: "Node",
        limit_bytes: Optional[int] = None,
        pager: Optional[Pager] = None,
        policy: Optional[ReplacementPolicy] = None,
        cost: Optional[CostModel] = None,
    ) -> None:
        if limit_bytes is not None:
            if limit_bytes <= 0:
                raise SwapError(f"memory limit must be positive, got {limit_bytes}")
            if pager is None:
                raise SwapError("a memory limit requires a pager")
        self.node = node
        self.limit_bytes = limit_bytes
        self.pager = pager
        self.policy = policy if policy is not None else LRUPolicy()
        self.cost = cost if cost is not None else CostModel()
        #: Telemetry event bus (wired by ``Telemetry.attach``); emits one
        #: ``make-room`` event per eviction burst.
        self.bus = None
        self.table = CandidateHashTable()
        self.mm_table = pager.table if pager is not None else MemoryManagementTable()
        self.resident_bytes = 0
        self.stats = SwapManagerStats()
        # line_id -> completion event while a fault is in flight, so two
        # processes on the same node (HPA's sender and receiver) never
        # fault the same line twice concurrently.
        self._faulting: dict[int, object] = {}
        # In-flight asynchronous eviction transfers (see _make_room).
        self._evictions: list = []
        #: Bytes pinned in memory outside the hash table (e.g. HPA-ELD's
        #: duplicated candidates); they count against the usage limit but
        #: can never be evicted.
        self.pinned_bytes = 0
        #: Attached lazily by the counting kernel on the first resident
        #: span (see :meth:`count_span_codes`).
        self.span_index: Optional[SpanIndex] = None

    # -- introspection ------------------------------------------------------

    @property
    def over_limit(self) -> bool:
        """True while resident + pinned bytes exceed the configured limit."""
        return (
            self.limit_bytes is not None
            and self.resident_bytes + self.pinned_bytes > self.limit_bytes
        )

    def total_candidates(self) -> int:
        """Resident candidates only (swapped ones live with the pager)."""
        return self.table.n_itemsets

    # -- candidate insertion (candidate-generation phase) ---------------------

    def insert_candidate(self, itemset: Itemset, line_id: int) -> Optional[Generator]:
        """Add a candidate with count 0 to its hash line.

        Fast path returns ``None``; a generator is returned when the
        insert overflows the limit (evictions required), targets a
        swapped-out line (fault first), or targets a remote-fixed line
        (remote insert record).
        """
        self.stats.inserts += 1
        state = self.mm_table.state_code(line_id)
        if state == MemoryManagementTable.RESIDENT:
            self._insert_resident(itemset, line_id)
            if self.over_limit:
                # Never evict the line we are actively inserting into.
                self._make_room(pinned=line_id)
            return None
        if state in (MemoryManagementTable.REMOTE_FIXED, MemoryManagementTable.MIGRATING) and (
            self.pager is not None and self.pager.supports_remote_update
        ):
            return self.pager.buffer_update(line_id, itemset, 0)
        return self._insert_slow(itemset, line_id)

    def insert_resident_prefix(
        self, itemsets: Sequence[Itemset], line_ids: np.ndarray
    ) -> int:
        """Insert the longest prefix of an aligned candidate list that
        stays on :meth:`insert_candidate`'s fast path; returns its length.

        The prefix ends before the first insert that targets a
        non-resident line or leaves the node over its limit (that insert
        evicts, and everything after it may fault or buffer).  Up to
        there the per-candidate sequence reads nothing but this
        manager's own ledger, so it folds into one pass: fresh lines are
        created, and entered into the policy, in first-occurrence order;
        each line's dict grows in list order; and the policy is touched
        once per distinct line in last-occurrence order — the
        per-candidate end state (see :meth:`count_resident_batch`).  The
        caller runs the remainder through :meth:`insert_candidate`.
        """
        resident = self.mm_table.resident_mask(line_ids)
        head = len(line_ids) if resident.all() else int(np.argmin(resident))
        if self.limit_bytes is not None and head:
            # Bytes in use after each insert: a fresh line's header is
            # paid at its first occurrence.
            distinct, first = np.unique(line_ids[:head], return_index=True)
            fresh = np.array([lid not in self.table for lid in distinct.tolist()])
            grow = np.full(head, ITEMSET_BYTES, dtype=np.int64)
            grow[first[fresh]] += LINE_HEADER_BYTES
            used = self.resident_bytes + self.pinned_bytes + np.cumsum(grow)
            head = int(np.searchsorted(used, self.limit_bytes, side="right"))
        ids = line_ids[:head].tolist()
        adders: dict[int, Callable[[Itemset], None]] = {}
        for line_id in dict.fromkeys(ids):
            if line_id not in self.table:
                self.policy.insert(line_id)
                self.resident_bytes += LINE_HEADER_BYTES
            adders[line_id] = self.table.line(line_id).add
        for itemset, line_id in zip(itemsets, ids):
            adders[line_id](itemset)
        self.resident_bytes += ITEMSET_BYTES * head
        self.policy.touch_batch(_last_occurrence_order(ids))
        self.stats.inserts += head
        return head

    def _insert_resident(self, itemset: Itemset, line_id: int) -> None:
        line = self.table.get(line_id)
        if line is None:
            line = self.table.line(line_id)
            self.policy.insert(line_id)
            self.resident_bytes += line.nbytes  # header of the fresh line
        line.add(itemset)
        self.resident_bytes += ITEMSET_BYTES
        self.policy.touch(line_id)

    def _insert_slow(self, itemset: Itemset, line_id: int) -> Generator:
        yield from self._ensure_resident(line_id)
        self._insert_resident(itemset, line_id)
        if self.over_limit:
            self._make_room(pinned=line_id)

    # -- support counting (counting phase) --------------------------------------

    def count_itemset(self, itemset: Itemset, line_id: int) -> Optional[Generator]:
        """Increment the support count of a candidate.

        Every routed itemset must be a candidate on this node (HPA's
        sender-side pruning guarantees it); a miss raises
        :class:`MiningError` because it means routing is broken.
        """
        self.stats.counts += 1
        state = self.mm_table.state_code(line_id)
        if state == MemoryManagementTable.RESIDENT:
            line = self.table.get(line_id)
            if line is None or not line.increment(itemset):
                raise MiningError(
                    f"itemset {itemset} routed to line {line_id} is not a "
                    f"candidate there"
                )
            self.policy.touch(line_id)
            self.stats.fast_counts += 1
            return None
        if state in (MemoryManagementTable.REMOTE_FIXED, MemoryManagementTable.MIGRATING) and (
            self.pager is not None and self.pager.supports_remote_update
        ):
            self.stats.remote_counts += 1
            return self.pager.buffer_update(line_id, itemset, 1)
        return self._count_slow(itemset, line_id)

    def count_resident_bulk(
        self,
        itemsets: Sequence[Itemset],
        line_ids: Sequence[int],
        counts: Sequence[int],
    ) -> None:
        """Fold ``counts[i]`` occurrences of ``itemsets[i]`` (on hash line
        ``line_ids[i]``) for a whole aligned batch in one call.

        Only valid on a pager-less node (every line permanently
        resident): there the fast path of :meth:`count_itemset` never
        yields, so occurrence order is unobservable and a pass's
        occurrences collapse to one increment per candidate.  Statistics
        advance exactly as the per-occurrence path would have advanced
        them.
        """
        if self.pager is not None:
            raise SwapError("bulk counting requires a pager-less node")
        if counts and min(counts) <= 0:
            raise MiningError(f"bulk count must be positive, got {min(counts)}")
        distinct = list(dict.fromkeys(line_ids))
        # A line this node does not hold has no entry, so it fails the
        # lookup below like a candidate missing from its line does.
        held = {
            line.line_id: line.counts
            for line in map(self.table.get, distinct)
            if line is not None
        }
        try:
            for itemset, line_id, n in zip(itemsets, line_ids, counts):
                held[line_id][itemset] += n
        except KeyError:
            raise MiningError(
                f"itemset {itemset} routed to line {line_id} is not a "
                f"candidate there"
            ) from None
        self.policy.touch_batch(distinct)
        total = sum(counts)
        self.stats.counts += total
        self.stats.fast_counts += total

    def count_resident_batch(
        self, itemsets: "list[Itemset]", line_ids: "list[int]"
    ) -> None:
        """Count a run of occurrences that all land on resident lines.

        Only valid while every named line is resident and control cannot
        leave the caller (between simulation yields): no eviction can
        observe the replacement policy mid-run, so touching each distinct
        line once — in order of its *last* occurrence — leaves the policy
        in exactly the per-occurrence end state, and statistics advance
        by the same totals.
        """
        get = self.table.get
        for itemset, line_id in zip(itemsets, line_ids):
            line = get(line_id)
            if line is None or not line.increment(itemset):
                raise MiningError(
                    f"itemset {itemset} routed to line {line_id} is not a "
                    f"candidate there"
                )
        self.policy.touch_batch(_last_occurrence_order(line_ids))
        n = len(line_ids)
        self.stats.counts += n
        self.stats.fast_counts += n

    def count_span_codes(self, codes: np.ndarray, line_ids: np.ndarray) -> None:
        """Vectorised :meth:`count_resident_batch` over encoded candidates.

        Same validity conditions (all lines resident, no simulation yield
        across the run); ``codes`` are the kernel's occurrence codes and
        ``line_ids`` the aligned hash lines.  The dict writes — and the
        per-occurrence "is a candidate on this line" membership check,
        which flush performs against the lines this node ever held,
        raising :class:`MiningError` like the per-occurrence path — are
        deferred wholesale: the span's codes are stashed raw and folded
        in one vectorised pass before any count is read (see
        :meth:`flush_span_counts`).  Only what the simulation *can*
        observe mid-pass happens now: replacement-policy touches and
        statistics.
        """
        index = self.span_index
        assert index is not None
        index.pending.append(codes)
        self.policy.touch_batch(_last_occurrence_order(line_ids.tolist()))
        n = codes.size
        self.stats.counts += n
        self.stats.fast_counts += n

    def flush_span_counts(self) -> None:
        """Fold deferred span counts back into the hash-line dicts.

        Host-side only (no simulated cost); runs before any path that
        reads counts — :meth:`drain` and :meth:`iter_all_lines` — and is
        idempotent.  Lines are reached through the table registry so
        counts land even on lines currently swapped out (their objects
        persist through the pagers).
        """
        index = self.span_index
        if index is None or not index.pending:
            return
        acc = np.bincount(
            np.concatenate(index.pending), minlength=len(index.candidates)
        )
        index.pending = []
        candidates, lines = index.candidates, index.lines
        find = self.table.line_anywhere
        for i in np.flatnonzero(acc).tolist():
            line = find(int(lines[i]))
            if not line.increment(candidates[i], by=int(acc[i])):
                raise MiningError(
                    f"itemset {candidates[i]} routed to line {line.line_id} is "
                    f"not a candidate there"
                )

    def _count_slow(self, itemset: Itemset, line_id: int) -> Generator:
        yield from self._ensure_resident(line_id)
        line = self.table.get(line_id)
        if line is None or not line.increment(itemset):
            raise MiningError(
                f"itemset {itemset} routed to line {line_id} is not a candidate there"
            )
        self.policy.touch(line_id)

    # -- paging machinery ------------------------------------------------------------

    def _ensure_resident(self, line_id: int) -> Generator:
        """Fault ``line_id`` in, serialising concurrent faults per line.

        HPA runs a sender and a receiver process per node; both may touch
        the same swapped line in the same window.  The second comer waits
        on the first fault's completion event and then re-checks state
        (the line may even have been evicted again, hence the loop).
        """
        assert self.pager is not None
        while not self.mm_table.is_resident(line_id):
            pending = self._faulting.get(line_id)
            if pending is not None:
                yield pending
                continue
            done = self.node.env.event()
            self._faulting[line_id] = done
            try:
                line = yield from self.pager.fault_in(line_id)
                self.table.put(line)
                self.policy.insert(line_id)
                self.resident_bytes += line.nbytes
            finally:
                self._faulting.pop(line_id)
                done.succeed()
            if self.over_limit:
                self._make_room(pinned=line_id)
            break

    def _make_room(self, pinned: Optional[int] = None) -> None:
        """Evict victims until back under the limit (paper's LRU loop).

        The pager commits each victim's new location atomically before
        paying transfer/service time, so the transfer itself overlaps
        with ongoing computation (it runs as a background process).  This
        matches the paper's measured per-pagefault time, which contains
        no eviction component (Table 4's ~2.3 ms = RTT + transmit +
        holder service only).
        """
        assert self.pager is not None
        n_victims = 0
        while self.over_limit:
            if len(self.policy) == 0 or (len(self.policy) == 1 and pinned in self.policy):
                # Nothing evictable: tolerate a single over-limit line
                # rather than deadlocking (limit smaller than one line).
                break
            victim = self.policy.victim(pinned=pinned)
            line = self.table.pop(victim)
            self.resident_bytes -= line.nbytes
            # evict() commits the new location before returning; only the
            # transfer cost runs in the background.
            payment = self.pager.evict(line)
            self._evictions.append(self.node.env.process(payment))
            n_victims += 1
        if n_victims:
            self._evictions = [p for p in self._evictions if p.is_alive]
            if self.bus is not None:
                self.bus.emit(
                    "make-room", self.node.node_id, victims=n_victims,
                    resident_bytes=self.resident_bytes,
                )

    # -- determination-phase access ----------------------------------------------------

    def iter_all_lines(self) -> Generator:
        """Process generator yielding nothing; returns every line's counts.

        Resident lines are read directly; swapped lines are peeked
        through the pager (paying the fetch cost) without changing
        residency.  Returns a list of :class:`HashLine`.
        """
        self.flush_span_counts()
        lines: list[HashLine] = list(self.table)
        for line_id in self.mm_table.non_resident_lines():
            state = self.mm_table.state(line_id)
            if state is LineState.RESIDENT:
                continue
            assert self.pager is not None
            line = yield from self.pager.peek_line(line_id)
            lines.append(line)
        return lines

    # -- lifecycle ---------------------------------------------------------------------

    def drain(self) -> Generator:
        """Settle outstanding pager work (eviction transfers, update
        flushes) before reading counts."""
        self.flush_span_counts()
        alive = [p for p in self._evictions if p.is_alive]
        if alive:
            yield self.node.env.all_of(alive)
        self._evictions.clear()
        if self.pager is not None:
            yield from self.pager.drain()

    # Pass-boundary reset: called from the driver's serial inter-pass
    # section after every counting process has joined the barrier.
    def reset_pass(self) -> None:
        """Clear all per-pass state: hash table, policy, locations."""
        self.table.clear()
        self.mm_table.clear()
        self.policy.clear()
        self.resident_bytes = 0
        self.pinned_bytes = 0
        self.span_index = None
        if self.pager is not None:
            self.pager.reset_pass()

    def check_invariants(self) -> None:
        """Assert internal consistency (used heavily by tests).

        - resident byte ledger equals the hash table's true footprint;
        - the policy tracks exactly the resident line ids;
        - the limit holds, allowing the single-oversized-line exception.
        """
        actual = self.table.nbytes
        if actual != self.resident_bytes:
            raise SwapError(
                f"resident byte ledger {self.resident_bytes} != table {actual}"
            )
        policy_ids = {lid for lid in self.table.line_ids if lid in self.policy}
        if len(self.policy) != len(self.table) or len(policy_ids) != len(self.table):
            raise SwapError("policy does not track exactly the resident lines")
        if self.limit_bytes is not None and len(self.table) > 1:
            if self.resident_bytes + self.pinned_bytes > self.limit_bytes:
                raise SwapError(
                    f"over limit with multiple resident lines: "
                    f"{self.resident_bytes} > {self.limit_bytes}"
                )
