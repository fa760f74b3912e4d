"""The swap manager: per-node memory-usage limit over candidate itemsets.

Paper §4.3: "a limit value for memory usage of candidate itemsets is set
at each node.  When the amount of memory usage exceeds this value during
the execution of HPA program, part of contents is swapped out ...  The
unit of swapping operation is a hash line ...  The hash line swapped out
is selected using a LRU algorithm."

:class:`SwapManager` keeps one node's resident hash lines as one integer
array (candidates chained per held line, 0 when it is not resident),
beside the :class:`MemoryManagementTable`'s state codes, a replacement
policy over the resident line ids, and a pager that moves lines out and
in — a :class:`HashLine` exists only in transit, from eviction to
fault-in.  The support counts live in the pass's
:class:`CandidateHashTable` at ``counts[code]`` wherever the line is, so
residency decides only what an access *costs in simulated time*.  The
two hot operations — inserting a candidate and counting an occurrence —
are *fast-path/slow-path split*: they return ``None`` when everything
was resident (no simulation events), or a generator the calling process
must ``yield from`` when a swap, fault, or update flush is needed.  This
keeps event counts proportional to faults, not to itemsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.core.memory_table import LineState, MemoryManagementTable
from repro.core.pager import Pager
from repro.core.policies import LRUPolicy, ReplacementPolicy
from repro.errors import SwapError
from repro.mining.hash_table import LINE_HEADER_BYTES, CandidateHashTable, HashLine
from repro.mining.itemsets import ITEMSET_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node
    from repro.sim.events import Event

__all__ = ["SwapManager", "SwapManagerStats"]

_NO_CODES = np.empty(0, dtype=np.int64)


def _groups(slots: np.ndarray, n_slots: int) -> "tuple[np.ndarray, ...]":
    """The distinct values of ``slots`` (all below ``n_slots``), ascending,
    with each one's first and last position and number of occurrences —
    O(len + n_slots), no sort."""
    at = np.arange(slots.size)
    first = np.full(n_slots, slots.size)
    np.minimum.at(first, slots, at)
    last = np.full(n_slots, -1)
    np.maximum.at(last, slots, at)
    n = np.bincount(slots, minlength=n_slots)
    distinct = np.flatnonzero(n)
    return distinct, first[distinct], last[distinct], n[distinct]


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
        #: The pass's candidate table and the codes this node owns in it
        #: (see :meth:`begin_pass`).
        self.begin_pass(CandidateHashTable(_NO_CODES), _NO_CODES, range(0))
        self.mm_table = pager.table if pager is not None else MemoryManagementTable()
        self.resident_bytes = 0
        self.stats = SwapManagerStats()
        # (inserts, counts) of the passes already reset: with the live
        # table's, what the cumulative ``stats`` must add up to.
        self._settled = (0, 0)
        # line_id -> completion event while a fault is in flight, so two
        # processes on the same node (HPA's sender and receiver) never
        # fault the same line twice concurrently; ``None`` until a second
        # process waits on it.
        self._faulting: "dict[int, Optional[Event]]" = {}
        # In-flight asynchronous eviction transfers (see _make_room).
        self._evictions: list = []
        self._compact_at = 0
        #: Bytes pinned in memory outside the hash table (e.g. HPA-ELD's
        #: duplicated candidates); they count against the usage limit but
        #: can never be evicted.
        self.pinned_bytes = 0

    def begin_pass(
        self, table: CandidateHashTable, owned: np.ndarray, held: range
    ) -> None:
        """Attach the pass's candidate table; ``owned`` are the codes
        whose inserts and counts are routed to this node, ``held`` the
        ids of the hash lines they hash to (HPA's node ``a`` of ``n``
        holds lines ``a, a + n, ...``)."""
        self.table = table
        self.owned = owned
        self._held = held
        # Candidates chained on each resident line, by position in
        # ``held``; 0 = not resident (a line chains one at least).
        self._sizes = np.zeros(len(held), dtype=np.int64)
        if self.pager is not None:
            self.pager.candidates = table

    # -- introspection ------------------------------------------------------

    @property
    def over_limit(self) -> bool:
        """True while resident + pinned bytes exceed the configured limit."""
        return (
            self.limit_bytes is not None
            and self.resident_bytes + self.pinned_bytes > self.limit_bytes
        )

    # -- one candidate at a time: insert (candidate generation), count ----------

    def insert_candidate(self, code: int, line_id: int) -> Optional[Generator]:
        """Add a candidate with count 0 to its hash line.

        Fast path returns ``None``; a generator is returned when the
        insert targets a swapped-out line (fault first) or a remote-fixed
        line (remote insert record, if its message block fills).
        """
        self.stats.inserts += 1
        return self._access(code, line_id, 0)

    def count_itemset(self, code: int, line_id: int) -> Optional[Generator]:
        """Increment the support count of one candidate, wherever its
        line is: in place, by a remote update record, or after a fault."""
        self.stats.counts += 1
        return self._access(code, line_id, 1)

    def _access(self, code: int, line_id: int, delta: int) -> Optional[Generator]:
        """Route one access by where the line lives; ``delta`` is the
        update-record convention, 0 to insert and 1 to count."""
        state = self.mm_table.state_code(line_id)
        if state == MemoryManagementTable.RESIDENT:
            self._access_resident(code, line_id, delta)
            self.stats.fast_counts += delta
            return None
        if (
            state in (MemoryManagementTable.REMOTE_FIXED, MemoryManagementTable.MIGRATING)
            and self.pager is not None
            and self.pager.supports_remote_update
        ):
            self.stats.remote_counts += delta
            return self.pager.buffer_update(line_id, code, delta)
        return self._access_slow(code, line_id, delta)

    def _access_slow(self, code: int, line_id: int, delta: int) -> Generator:
        yield from self._ensure_resident(line_id)
        self._access_resident(code, line_id, delta)

    def _access_resident(self, code: int, line_id: int, delta: int) -> None:
        if delta:
            self.table.count(code, line_id)
        else:
            self.table.insert(code, line_id)
            slot = self._slot(line_id)
            if not self._sizes[slot]:  # a fresh line
                self.policy.insert(line_id)
                self.resident_bytes += LINE_HEADER_BYTES
            self._sizes[slot] += 1
            self.resident_bytes += ITEMSET_BYTES
        self.policy.touch(line_id)
        if not delta and self.over_limit:
            # Never evict the line we are actively inserting into.
            self._make_room(pinned=line_id)

    def _slot(self, line_ids: "int | np.ndarray") -> "int | np.ndarray":
        """Position of held lines in ``held`` (and so in the size array)."""
        return (line_ids - self._held.start) // self._held.step

    # -- many at a time -------------------------------------------------------------

    def insert_resident_prefix(self, codes: np.ndarray, line_ids: np.ndarray) -> int:
        """Insert the longest prefix of an aligned candidate array that
        stays on :meth:`insert_candidate`'s fast path; returns its length.

        The prefix ends before the first insert that targets a
        non-resident line or leaves the node over its limit (that insert
        evicts, and everything after it may fault or buffer).  Up to
        there the per-candidate sequence reads nothing but this
        manager's own ledger, so it folds into one grouped pass: fresh
        lines enter the policy in first-occurrence order, and the policy
        is touched once per distinct line in last-occurrence order — the
        per-candidate end state.  The caller runs the remainder through
        :meth:`insert_candidate`.
        """
        resident = self.mm_table.resident_mask(line_ids)
        head = len(line_ids) if resident.all() else int(np.argmin(resident))
        slots = self._slot(line_ids[:head])
        distinct, first, last, n = _groups(slots, len(self._sizes))
        if self.limit_bytes is not None and head:
            # Bytes in use after each insert: a fresh line's header is
            # paid at its first occurrence.
            grow = np.full(head, ITEMSET_BYTES, dtype=np.int64)
            grow[first[self._sizes[distinct] == 0]] += LINE_HEADER_BYTES
            used = self.resident_bytes + self.pinned_bytes + np.cumsum(grow)
            fits = int(np.searchsorted(used, self.limit_bytes, side="right"))
            if fits < head:
                head, slots = fits, slots[:fits]
                distinct, first, last, n = _groups(slots, len(self._sizes))
        ids = line_ids[:head]
        self.table.insert(codes[:head], ids)
        fresh = np.sort(first[self._sizes[distinct] == 0])
        self._sizes[distinct] += n
        self.resident_bytes += ITEMSET_BYTES * head + LINE_HEADER_BYTES * fresh.size
        self.policy.insert_batch(ids[fresh].tolist())
        self.policy.touch_batch(ids[np.sort(last)].tolist())
        self.stats.inserts += head
        return head

    def count_resident_bulk(self, codes: np.ndarray) -> None:
        """Fold a whole pass's worth of occurrence codes in one call.

        Only valid on a pager-less node (every line permanently
        resident): there :meth:`count_itemset` never yields, so
        occurrence order is unobservable and the occurrences collapse to
        one ``bincount``.  The policy is touched once per distinct line
        and statistics advance exactly as the per-occurrence path would
        have advanced them.
        """
        if self.pager is not None:
            raise SwapError("bulk counting requires a pager-less node")
        lines = self.table.lines[self.table.count_bulk(codes)]
        first = _groups(self._slot(lines), len(self._sizes))[1]
        self.policy.touch_batch(lines[np.sort(first)].tolist())
        self.stats.counts += codes.size
        self.stats.fast_counts += codes.size

    def count_resident_batch(self, codes: np.ndarray, line_ids: np.ndarray) -> None:
        """Pinned by the benchmark's target table; nothing calls it."""
        self.count_span_codes(codes, line_ids)

    def count_span_codes(self, codes: np.ndarray, line_ids: np.ndarray) -> None:
        """Settle the occurrences an ordered walk found resident: its
        :meth:`ReplacementPolicy.touch_run` already touched each line in
        turn, and nothing else about a resident access is observable
        between simulation yields, so the validity check, the counts and
        the statistics happen once, wherever the lines are by now."""
        self.table.count(codes, line_ids)
        self.stats.counts += codes.size
        self.stats.fast_counts += codes.size

    def flush_span_counts(self) -> None:
        """Pinned by the benchmark's target table; nothing is deferred."""

    # -- paging machinery ------------------------------------------------------------

    def _ensure_resident(self, line_id: int) -> Generator:
        """Fault ``line_id`` in, serialising concurrent faults per line.

        HPA runs a sender and a receiver process per node; both may touch
        the same swapped line in the same window.  The second comer waits
        on the first fault's completion event and then re-checks state
        (the line may even have been evicted again, hence the loop).  The
        event is made by the first waiter, so a fault nobody waits on
        schedules none.
        """
        assert self.pager is not None
        while not self.mm_table.is_resident(line_id):
            if line_id in self._faulting:
                done = self._faulting[line_id]
                if done is None:
                    done = self._faulting[line_id] = self.node.env.event()
                yield done
                continue
            self._faulting[line_id] = None
            try:
                line = yield from self.pager.fault_in(line_id)
                self._sizes[self._slot(line_id)] = line.n_itemsets
                self.policy.insert(line_id)
                self.resident_bytes += line.nbytes
            finally:
                done = self._faulting.pop(line_id)
                if done is not None:
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
            slot = self._slot(victim)
            line = HashLine(victim, int(self._sizes[slot]))
            self._sizes[slot] = 0
            self.resident_bytes -= line.nbytes
            # evict() commits the new location before returning; only the
            # transfer cost runs in the background.
            payment = self.pager.evict(line)
            self._evictions.append(self.node.env.process(payment))
            n_victims += 1
        if len(self._evictions) >= self._compact_at:
            # Compact lazily, once the list has doubled: only drain()
            # reads it, and it skips finished transfers itself.
            self._evictions = [p for p in self._evictions if p.is_alive]
            self._compact_at = 2 * len(self._evictions) + 64
        if n_victims and (bus := self.node.network.bus) is not None:
            bus.emit("make-room", self.node.node_id, victims=n_victims,
                     resident_bytes=self.resident_bytes)

    # -- determination-phase access ----------------------------------------------------

    def iter_all_lines(self) -> Generator:
        """Process generator reading every line this node holds; returns
        the number of candidates chained on them.

        Resident lines are read directly; swapped lines are peeked
        through the pager (paying the fetch cost) without changing
        residency.
        """
        total = int(self._sizes.sum())
        for line_id in self.mm_table.non_resident_lines():
            assert self.pager is not None
            line = yield from self.pager.peek_line(line_id)
            total += line.n_itemsets
        return total

    # -- lifecycle ---------------------------------------------------------------------

    def drain(self) -> Generator:
        """Settle outstanding pager work (eviction transfers, update
        flushes) before reading counts."""
        alive = [p for p in self._evictions if p.is_alive]
        if alive:
            yield self.node.env.all_of(alive)
        self._evictions.clear()
        if self.pager is not None:
            yield from self.pager.drain()

    # Pass-boundary reset: called from the driver's serial inter-pass
    # section after every counting process has joined the barrier.
    def reset_pass(self) -> None:
        """Clear all per-pass state: table, lines, policy, locations."""
        self._settled = self._routed_here()
        self.begin_pass(CandidateHashTable(_NO_CODES), _NO_CODES, range(0))
        self.mm_table.clear()
        self.policy.clear()
        self.resident_bytes = 0
        self.pinned_bytes = 0
        if self.pager is not None:
            self.pager.reset_pass()

    def _routed_here(self) -> "tuple[int, int]":
        """(inserts, counts) applied to this node's codes, all passes."""
        return (
            self._settled[0] + int(self.table.inserted[self.owned].sum()),
            self._settled[1] + int(self.table.counts[self.owned].sum()),
        )

    def check_invariants(self) -> None:
        """Assert internal consistency (tests call it after operations,
        at pass ends and after whole runs).

        - resident byte ledger equals the resident lines' true footprint;
        - the policy tracks exactly the resident line ids, and the
          management table calls exactly those lines resident;
        - the limit holds, allowing the single-oversized-line exception;
        - every owned candidate inserted so far is chained on its own
          line, resident or where the management table says it was
          swapped to (skipped while a migration holds lines in flight);
        - no insert or count was lost: once the pager has no update
          record outstanding, what the tables hold for this node's codes
          equals the cumulative statistics.
        """
        sizes, tracked = self._sizes, self.policy.__contains__
        resident = [self._held[slot] for slot in np.flatnonzero(sizes).tolist()]
        actual = LINE_HEADER_BYTES * len(resident) + ITEMSET_BYTES * int(sizes.sum())
        if actual != self.resident_bytes:
            raise SwapError(
                f"resident byte ledger {self.resident_bytes} != lines {actual}"
            )
        away = self.mm_table.non_resident_lines()
        if not all(map(self.mm_table.is_resident, resident)) or any(map(tracked, away)):
            raise SwapError("policy membership != management-table residency")
        if len(self.policy) != len(resident) or not all(map(tracked, resident)):
            raise SwapError("policy does not track exactly the resident lines")
        if self.over_limit and len(resident) > 1:
            raise SwapError(
                f"over limit with multiple resident lines: "
                f"{self.resident_bytes} > {self.limit_bytes}"
            )
        if LineState.MIGRATING not in self.mm_table.count_by_state():
            chained = sizes.copy()
            for line_id in away:
                assert self.pager is not None
                line = self.pager.stored_line(line_id)
                chained[self._slot(line_id)] += line.n_itemsets
            inserted = self.owned[self.table.inserted[self.owned]]
            slots = self._slot(self.table.lines[inserted])
            if not np.array_equal(chained, np.bincount(slots, minlength=len(sizes))):
                raise SwapError(
                    f"{int(chained.sum())} candidates chained, {inserted.size} inserted"
                )
        if self.pager is None or not self.pager.updates_outstanding():
            routed = (self.stats.inserts, self.stats.counts)
            if self._routed_here() != routed:
                raise SwapError(
                    f"(inserts, counts) {self._routed_here()} in the table, "
                    f"{routed} routed here"
                )
