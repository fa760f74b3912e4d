"""Remote-memory pagers: simple swapping (§5.2) and remote update (§5.3).

Both pagers park hash lines in the memory of *memory-available nodes*,
chosen through the availability table maintained by the monitor
mechanism.  They differ in what happens when a swapped-out line is
accessed again:

- **simple swapping** (:class:`RemoteMemoryPager`): a pagefault — the
  line is fetched back (request + service at the holder + 4 KB reply),
  and something else is evicted to make room;
- **remote update** (:class:`RemoteUpdatePager`): the line is *fixed* at
  the holder; accesses become one-way update records, batched into 4 KB
  message blocks and applied at the holder.  No fault, no thrashing.

Both support the migration mechanism of §4.2/§5.4: on a shortage signal
from a holder, the application node directs it to move this node's lines
to other memory-available nodes.

Simulation shortcut: the holder's side of each protocol is executed
inline by the initiating process rather than by a dedicated server
process, but all holder-side costs are charged against the holder's CPU
and NIC resources, so queueing and contention behave as if a server
process existed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.costs import CostModel
from repro.core.memory_table import LineState, MemoryManagementTable
from repro.core.monitor import MonitorClient
from repro.core.pager import Pager
from repro.core.placement import PlacementPolicy
from repro.core.remote_store import RemoteStore
from repro.errors import MigrationError, NoMemoryAvailable, SwapError
from repro.cluster.network import Message, Network
from repro.mining.hash_table import HashLine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node
    from repro.sim.events import Event
    from repro.sim.process import Process

__all__ = ["RemoteMemoryPager", "RemoteUpdatePager", "UpdateRecord"]

#: (line_id, code, delta); delta 0 = insert, >0 = count increment.
UpdateRecord = "tuple[int, int, int]"

#: Size of a migration direction message (line list, compactly encoded).
DIRECTION_MESSAGE_BYTES = 128

#: Mid-migration destination retry: under churning availability every
#: other holder can be transiently full or in shortage at the instant a
#: line needs a new home.  The migration stalls and re-consults the
#: availability table after this long, up to the retry limit, before
#: declaring the cluster out of memory.  (Unreachable with scripted
#: shortages, where the remaining holders always have room.)
MIGRATION_RETRY_S = 0.01
MIGRATION_RETRY_LIMIT = 50


class RemoteMemoryPager(Pager):
    """Dynamic remote memory acquisition with simple swapping."""

    name = "remote"
    #: Subclass toggles: fixed lines never fault back.
    fixed = False

    def __init__(
        self,
        node: "Node",
        table: MemoryManagementTable,
        cost: CostModel,
        network: Network,
        client: MonitorClient,
        placement: PlacementPolicy,
        stores: dict[int, RemoteStore],
        memory_nodes: "dict[int, Node]",
        fallback: Optional[Pager] = None,
    ) -> None:
        super().__init__(node, table, cost)
        self.network = network
        self.client = client
        self.placement = placement
        self.stores = stores
        self.memory_nodes = memory_nodes
        #: The application node this pager serves.
        self.owner_id = node.node_id
        #: Optional pager (typically a :class:`DiskPager`) that absorbs
        #: evictions when no memory-available node can take them — an
        #: extension beyond the paper, which assumes lenders always have
        #: room.  Lines that fell back live on disk and fault from disk.
        self.fallback = fallback
        self._migration_done: "dict[int, Event]" = {}  # line_id -> done event

    # -- plumbing ---------------------------------------------------------

    def _send(self, src: "Node", dst: "Node", nbytes: int) -> Generator:
        """One message src -> dst: sender CPU + network transfer."""
        yield from src.compute(self.cost.cpu_per_message_s)
        # Positional: keyword construction costs twice as much per message.
        yield from self.network.transfer(
            Message(src.node_id, dst.node_id, "pager", None, nbytes)
        )

    # -- swap out -----------------------------------------------------------

    def evict(self, line: HashLine) -> Generator:
        """Commit ``line``'s placement on the best memory-available node
        synchronously, returning the payment generator.

        Stale availability information can make the chosen holder reject
        the line; the pager then marks it full locally and retries the
        next candidate (paper §4.2's destination switch).
        """
        block = self.cost.message_block_bytes
        nbytes = line.nbytes
        exclude: set[int] = set()
        while True:
            try:
                dst = self.placement.choose(self.client, nbytes, exclude)
            except NoMemoryAvailable:
                if self.fallback is not None:
                    self.stats.placement_rejections += 1
                    self._emit("placement-reject", line=line.line_id,
                               policy=self.placement.name)
                    return self.fallback.evict(line)
                raise
            try:
                self.stores[dst].put(self.owner_id, line)
            except NoMemoryAvailable:
                self._rejected(dst, exclude)
                continue
            break
        self.table.set_remote(line.line_id, dst, fixed=self.fixed)
        self.client.adjust_estimate(dst, -nbytes)
        self.stats.swap_outs += 1
        if (bus := self.network.bus) is not None:
            bus.emit("swap-out", self.owner_id, source=self.name,
                     line=line.line_id, dst=dst, bytes=block)
        return self._pay_evict(dst, block)

    def _rejected(self, dst: int, exclude: "set[int]") -> None:
        """``dst`` turned a line down: its availability entry was stale."""
        self.client.mark_full(dst)
        exclude.add(dst)
        self.stats.placement_rejections += 1
        self._emit("placement-reject", dst=dst, policy=self.placement.name)

    def _pay_evict(self, dst: int, block: int) -> Generator:
        start = self.node.env.now
        dst_node = self.memory_nodes[dst]
        yield from self._send(self.node, dst_node, block)
        yield from dst_node.compute(self.cost.remote_store_service_s)
        if (bus := self.network.bus) is not None:
            bus.emit("swap-cost", self.owner_id, source=self.name, dst=dst,
                     bytes=block, duration_s=self.node.env.now - start)

    # -- fault in -------------------------------------------------------------

    def _await_migration(self, line_id: int) -> Generator:
        """Block until a mid-migration line settles somewhere."""
        ev = self._migration_done.get(line_id)
        if ev is not None:
            yield ev
        else:
            # Transient window: another process is finalising the line's
            # state in this same instant; back off briefly.
            yield self.node.env.timeout(1e-5)

    def _request(self, line_id: int, states: "tuple[int, ...]", verb: str) -> Generator:
        """Send a request for ``line_id`` to its holder and have it
        serviced there; returns the holder's id with the line still in
        its store, or ``None`` when the line lives on the fallback disk."""
        table = self.table
        while True:
            state = table.state_code(line_id)
            if state == MemoryManagementTable.MIGRATING:
                yield from self._await_migration(line_id)
                continue
            if state == MemoryManagementTable.DISK and self.fallback is not None:
                return None
            if state not in states:
                raise SwapError(
                    f"cannot {verb} line {line_id}: state {table.state(line_id).value}"
                )
            node_id = table.holder_of(line_id)
            holder = self.memory_nodes[node_id]
            yield from self._send(self.node, holder, self.cost.fault_request_bytes)
            yield from holder.compute(self.cost.remote_fault_service_s)
            if self.stores[node_id].holds(self.owner_id, line_id):
                return node_id
            # The line migrated away while the request was in flight;
            # re-resolve its location and retry.

    def fault_in(self, line_id: int) -> Generator:
        start = self.node.env.now
        remote = (MemoryManagementTable.REMOTE,)
        holder = yield from self._request(line_id, remote, "fault in")
        if holder is None:
            assert self.fallback is not None
            return (yield from self.fallback.fault_in(line_id))
        line = self.stores[holder].take(self.owner_id, line_id)
        self.client.adjust_estimate(holder, line.nbytes)
        block = self.cost.message_block_bytes
        yield from self._send(self.memory_nodes[holder], self.node, block)
        self.table.set_resident(line_id)
        self.stats.faults += 1
        duration = self.node.env.now - start
        self.stats.fault_time_s += duration
        if (bus := self.network.bus) is not None:
            bus.emit("fault", self.owner_id, source=self.name, line=line_id,
                     holder=holder, duration_s=duration, bytes=block)
        return line

    # -- peek (determination phase) ----------------------------------------------

    def peek_line(self, line_id: int) -> Generator:
        states = (MemoryManagementTable.REMOTE, MemoryManagementTable.REMOTE_FIXED)
        holder = yield from self._request(line_id, states, "peek")
        if holder is None:
            assert self.fallback is not None
            return (yield from self.fallback.peek_line(line_id))
        line = self.stores[holder].peek(self.owner_id, line_id)
        block = self.cost.message_block_bytes
        yield from self._send(self.memory_nodes[holder], self.node, block)
        self.stats.peeks += 1
        return line

    def stored_line(self, line_id: int) -> HashLine:
        loc = self.table.location(line_id)
        if loc.state is LineState.DISK and self.fallback is not None:
            return self.fallback.stored_line(line_id)
        return self.stores[loc.node_id].peek(self.owner_id, line_id)

    # -- migration (paper §4.2 / §5.4) ----------------------------------------------

    def migrate_from(self, shortage_node: int) -> Generator:
        """Move every line this node parked on ``shortage_node`` elsewhere."""
        line_ids = self.table.lines_at(shortage_node)
        if not line_ids:
            return
        env = self.node.env
        for lid in line_ids:
            self.table.set_migrating(lid)
            self._migration_done[lid] = env.event()

        yield from self._pre_migration_sync(shortage_node)

        src_store = self.stores[shortage_node]
        src_node = self.memory_nodes[shortage_node]
        block = self.cost.message_block_bytes

        # Tell the overloaded holder where each entry should go.
        yield from self._send(self.node, src_node, DIRECTION_MESSAGE_BYTES)

        moved = 0
        for lid in line_ids:
            if not src_store.holds(self.owner_id, lid):
                # A concurrent pagefault already pulled this line home; it
                # will be marked resident by the faulting process.
                self._migration_done.pop(lid).succeed()
                continue
            line = src_store.take(self.owner_id, lid)
            exclude: set[int] = {shortage_node}
            retries = 0
            while True:
                try:
                    dst = self.placement.choose(self.client, line.nbytes, exclude)
                except NoMemoryAvailable as exc:
                    retries += 1
                    if retries > MIGRATION_RETRY_LIMIT:
                        raise MigrationError(
                            f"no destination for line {lid} migrating off "
                            f"node {shortage_node}"
                        ) from exc
                    # Transient: stall until fresh broadcasts land, then
                    # re-consult the table (dropping store-full bans,
                    # which the fresh truth supersedes).
                    yield env.timeout(MIGRATION_RETRY_S)
                    exclude = {shortage_node}
                    continue
                dst_node = self.memory_nodes[dst]
                yield from self._send(src_node, dst_node, block)
                yield from dst_node.compute(self.cost.remote_store_service_s)
                try:
                    self.stores[dst].put(self.owner_id, line)
                except NoMemoryAvailable:
                    self._rejected(dst, exclude)
                    continue
                break
            self.table.set_remote(lid, dst, fixed=self.fixed)
            self.client.adjust_estimate(dst, -line.nbytes)
            self._migration_done.pop(lid).succeed()
            moved += 1

        self.stats.migrations += 1
        self.stats.lines_migrated += len(line_ids)
        self._emit("migration", lines=len(line_ids), src=shortage_node,
                   bytes=moved * block)
        yield from self._post_migration()

    def _pre_migration_sync(self, shortage_node: int) -> Generator:
        """Hook: settle outstanding traffic towards the holder first."""
        return
        yield  # pragma: no cover - generator marker

    def _post_migration(self) -> Generator:
        """Hook: release work held back during the migration."""
        return
        yield  # pragma: no cover - generator marker

    # Pass-boundary reset: called from the driver's serial inter-pass
    # section after every counting process has joined the barrier.
    def reset_pass(self) -> None:
        self._migration_done.clear()
        if self.fallback is not None:
            self.fallback.reset_pass()


class RemoteUpdatePager(RemoteMemoryPager):
    """Remote memory with update operations: swapped lines are fixed at
    their holder and counted via one-way batched update messages."""

    name = "remote-update"
    fixed = True
    supports_remote_update = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._buffers: dict[int, list] = {}  # holder -> update records
        self._inflight: "dict[int, list[Process]]" = {}
        self._held: list = []  # records for lines mid-migration
        self._block_records = self.cost.updates_per_message()  # cost is frozen

    # -- the remote access interface (paper §4.4) --------------------------

    def buffer_update(self, line_id: int, code: int, delta: int) -> Optional[Generator]:
        """Queue one update; returns a generator only when a message-block
        flush is due (the caller drives it), else ``None``."""
        state = self.table.state_code(line_id)
        if state == MemoryManagementTable.MIGRATING:
            self._held.append((line_id, code, delta))
            self.stats.updates_sent += 1
            return None
        if state != MemoryManagementTable.REMOTE_FIXED:
            raise SwapError(
                f"update for line {line_id} in state {self.table.state(line_id).value}"
            )
        holder = self.table.holder_of(line_id)
        buf = self._buffers.setdefault(holder, [])
        buf.append((line_id, code, delta))
        self.stats.updates_sent += 1
        if len(buf) >= self._block_records:
            return self._flush(holder)
        return None

    def _flush(self, holder: int) -> Generator:
        # Order-independent: same-epoch flushes race to pop this
        # buffer: whichever runs first takes every accumulated record
        # and the others see it empty, so the delivered record set, the
        # message count, and the upsert-applied counts are identical in
        # either order.
        records = self._buffers.pop(holder, [])
        if not records:
            return
        yield from self.node.compute(self.cost.cpu_per_message_s)
        proc = self.node.env.process(self._deliver(holder, records))
        self._inflight.setdefault(holder, []).append(proc)
        self.stats.update_messages += 1

    def _deliver(self, holder: int, records: list) -> Generator:
        """One-way update message: transfer + holder-side application."""
        msg = Message(
            src=self.owner_id, dst=holder, channel="updates",
            payload=None, size_bytes=self.cost.message_block_bytes,
        )
        yield from self.network.transfer(msg)
        holder_node = self.memory_nodes[holder]
        service = (
            self.cost.remote_update_service_base_s
            + self.cost.remote_update_service_per_item_s * len(records)
        )
        yield from holder_node.compute(service)
        store = self.stores[holder]
        stale = [r for r in records if not store.holds(self.owner_id, r[0])]
        if stale:
            # Those lines migrated away while this message was in
            # flight (the migration's pre-sync only settles deliveries
            # it can see; one spawned inside a flush window or already
            # detached by drain is invisible to it).  The holder cannot
            # apply them; park the records with the held set — drain /
            # post-migration re-resolve each line's new holder and
            # re-send, paying the extra message like a retransmission.
            records = [r for r in records if store.holds(self.owner_id, r[0])]
            self._held.extend(stale)
        if records:
            assert self.candidates is not None
            store.apply_updates(self.owner_id, records, self.candidates)

    # -- lifecycle --------------------------------------------------------------

    def updates_outstanding(self) -> bool:
        return bool(self._buffers or self._held) or any(
            p.is_alive for ps in self._inflight.values() for p in ps
        )

    def drain(self) -> Generator:
        """Flush every buffer and wait for all posted updates to apply."""
        env = self.node.env
        while self.updates_outstanding():
            if self._held:
                # Held records wait for their lines' migrations to finish.
                pending = [
                    self._migration_done[lid]
                    for lid, _, _ in self._held
                    if lid in self._migration_done
                ]
                if pending:
                    yield env.all_of(pending)
                else:
                    # Transient: line state is being finalised elsewhere at
                    # this instant; yield the floor briefly.
                    yield env.timeout(1e-5)
                self._redispatch_held()
            for holder in list(self._buffers):
                yield from self._flush(holder)
            procs = [p for ps in self._inflight.values() for p in ps if p.is_alive]
            self._inflight.clear()
            if procs:
                yield env.all_of(procs)

    def _redispatch_held(self) -> None:
        held, self._held = self._held, []
        for line_id, code, delta in held:
            self.stats.updates_sent -= 1  # re-queue, do not double count
            flush = self.buffer_update(line_id, code, delta)
            if flush is not None:
                self.node.env.process(_drive(flush))

    # The _inflight pop only joins update processes already posted for
    # the holder, and the join set is the same in either order.
    def _pre_migration_sync(self, shortage_node: int) -> Generator:
        """Apply everything already addressed to the overloaded holder so
        line contents are complete before they move."""
        yield from self._flush(shortage_node)
        procs = [p for p in self._inflight.pop(shortage_node, []) if p.is_alive]
        if procs:
            yield self.node.env.all_of(procs)

    def _post_migration(self) -> Generator:
        self._redispatch_held()
        return
        yield  # pragma: no cover - generator marker

    # Pass-boundary reset: called from the driver's serial inter-pass
    # section after every counting process has joined the barrier.
    def reset_pass(self) -> None:
        super().reset_pass()
        self._buffers.clear()
        self._inflight.clear()
        self._held.clear()


def _drive(gen: Generator) -> Generator:
    """Wrap a flush generator so it can run as a standalone process."""
    yield from gen
