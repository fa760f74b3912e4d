"""Shared fixtures for remote-memory core tests: a small rig with one or
more application nodes and several memory-available nodes, pre-wired
monitors, stores, and pagers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.cost_model import CostModel
from repro.cluster import Cluster
from repro.core import (
    DiskPager,
    MemoryManagementTable,
    MemoryMonitor,
    MonitorClient,
    RemoteMemoryPager,
    RemoteStore,
    RemoteUpdatePager,
    SwapManager,
    make_placement,
)
from repro.core.policies import make_policy
from repro.mining import CandidateHashTable, HashLine
from repro.sim import Environment


@dataclass
class Rig:
    """One wired-up miniature cluster for core tests."""

    env: Environment
    cluster: Cluster
    cost: CostModel
    app_ids: list[int]
    mem_ids: list[int]
    clients: dict[int, MonitorClient]
    monitors: dict[int, MemoryMonitor]
    stores: dict[int, RemoteStore]
    pagers: dict[int, object] = field(default_factory=dict)
    managers: dict[int, SwapManager] = field(default_factory=dict)

    def run_until_quiet(self, horizon: float = 1_000.0):
        """Run; monitors are persistent, so run to a horizon."""
        self.env.run(until=horizon)

    def stop_monitoring(self):
        for m in self.monitors.values():
            m.stop()
        for c in self.clients.values():
            c.stop()


def make_rig(
    n_app: int = 1,
    n_mem: int = 2,
    pager_kind: str = "remote",
    limit_bytes: int | None = 1000,
    policy: str = "lru",
    placement: str = "most-available",
    cost: CostModel | None = None,
    monitor_interval: float | None = None,
) -> Rig:
    """Build a rig with the requested pager on every app node."""
    env = Environment()
    cost = cost or CostModel()
    cluster = Cluster(env, n_app + n_mem)
    app_ids = list(range(n_app))
    mem_ids = list(range(n_app, n_app + n_mem))

    stores = {m: RemoteStore(cluster[m]) for m in mem_ids}
    clients = {a: MonitorClient(cluster[a], cluster.transport) for a in app_ids}
    monitors = {
        m: MemoryMonitor(
            cluster[m], cluster.transport, app_ids, cost, interval_s=monitor_interval
        )
        for m in mem_ids
    }
    for c in clients.values():
        c.start()
    for m in monitors.values():
        m.start()

    rig = Rig(
        env=env,
        cluster=cluster,
        cost=cost,
        app_ids=app_ids,
        mem_ids=mem_ids,
        clients=clients,
        monitors=monitors,
        stores=stores,
    )

    memory_nodes = {m: cluster[m] for m in mem_ids}
    for a in app_ids:
        table = MemoryManagementTable()
        if pager_kind == "disk":
            pager = DiskPager(cluster[a], table, cost)
        elif pager_kind == "remote":
            pager = RemoteMemoryPager(
                cluster[a], table, cost, cluster.network, clients[a],
                make_placement(placement), stores, memory_nodes,
            )
        elif pager_kind == "remote-update":
            pager = RemoteUpdatePager(
                cluster[a], table, cost, cluster.network, clients[a],
                make_placement(placement), stores, memory_nodes,
            )
        elif pager_kind == "none":
            pager = None
        else:
            raise ValueError(pager_kind)
        if pager is not None and pager_kind != "disk":
            pager.placement.attach_pager(pager)
        rig.pagers[a] = pager
        rig.managers[a] = SwapManager(
            cluster[a],
            limit_bytes=limit_bytes if pager is not None else None,
            pager=pager,
            policy=make_policy(policy),
        )
    return rig


#: Codes per hash line in :func:`bare_table`.
PER_LINE = 4


def make_line(line_id: int = 1, n: int = 3) -> HashLine:
    """A hash line chaining ``n`` candidates, as a swap manager would
    hand it to a pager."""
    return HashLine(line_id, n)


def bare_table(pager, n_lines: int = 8, n: int = 3) -> CandidateHashTable:
    """The candidate table behind :func:`make_line` lines, for a pager
    driven without a swap manager: line ``l`` chains the inserted codes
    ``4 l .. 4 l + n - 1``; the rest of its four are still to insert."""
    table = CandidateHashTable(np.repeat(np.arange(n_lines), PER_LINE))
    table.inserted[np.arange(len(table.lines)) % PER_LINE < n] = True
    pager.candidates = table
    return table


def begin_pass(mgr: SwapManager, lines) -> CandidateHashTable:
    """Attach a fresh candidate table to ``mgr``: code ``i`` hashes to
    ``lines[i]`` and every code is owned by this node."""
    table = CandidateHashTable(np.asarray(lines, dtype=np.int64))
    mgr.begin_pass(table, np.arange(len(table.lines)))
    return table


def insert_all(mgr: SwapManager, codes):
    """Process generator inserting ``codes`` in order, each on its line."""
    for code in codes:
        op = mgr.insert_candidate(code, int(mgr.table.lines[code]))
        if op is not None:
            yield from op


def count_all(mgr: SwapManager, codes):
    """Process generator counting one occurrence of each of ``codes`` in
    order, each on its line."""
    for code in codes:
        op = mgr.count_itemset(code, int(mgr.table.lines[code]))
        if op is not None:
            yield from op
