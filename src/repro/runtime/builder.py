"""RunConfig → ClusterRuntime: one composition root for the whole stack.

Every simulated execution needs the same bring-up: an environment, a
cluster with the configured loss probability, :class:`RemoteStore`s and
:class:`MemoryMonitor`s on the memory-available nodes,
:class:`MonitorClient`s on the application nodes, and a per-app-node
:class:`Pager` + :class:`SwapManager` pair (disk / remote /
remote-update / disk-fallback chains) with shortage-handler wiring.
Before this module existed that block was duplicated verbatim inside
``HPARun.__init__`` and ``NPARun.__init__``; drivers now call
:func:`build_runtime` and own only their mining logic.

Construction order is deliberately identical to the historical drivers
(stores and monitors per memory node, then clients per application
node, then pagers/managers per application node) so simulated behaviour
is bit-identical — pinned by
``tests/integration/test_runtime_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster import Cluster, ClusterDynamics, FailureEvent
from repro.core import (
    DiskPager,
    MemoryManagementTable,
    MemoryMonitor,
    MonitorClient,
    Pager,
    RemoteMemoryPager,
    RemoteStore,
    RemoteUpdatePager,
    SwapManager,
)
from repro.core.placement import make_placement
from repro.core.policies import make_policy
from repro.runtime.config import RunConfig, validate_config
from repro.sim import Environment

__all__ = ["ClusterRuntime", "build_runtime"]


@dataclass
class ClusterRuntime:
    """A fully-wired simulated cluster, ready for a driver to execute on.

    Owns the paper's remote-memory machinery; knows nothing about
    mining.  Drivers (or any custom workload — see the README's custom
    scenario) schedule processes on :attr:`env`, push data through
    :attr:`managers`, and call :meth:`start_services` /
    :meth:`stop_services` around the execution.
    """

    config: RunConfig
    env: Environment
    cluster: Cluster
    #: Application node ids: ``0 .. n_app_nodes-1``.
    app_ids: list[int]
    #: Memory-available node ids: ``n_app_nodes .. n_total-1``.
    mem_ids: list[int]
    #: Per-memory-node guest-line storage (empty when no memory nodes).
    stores: dict[int, RemoteStore]
    #: Per-memory-node availability monitors (paper §4.2).
    monitors: dict[int, MemoryMonitor]
    #: Per-app-node monitor clients holding the availability tables.
    clients: dict[int, MonitorClient]
    #: Per-app-node pager, ``None`` when ``config.pager == "none"``.
    pagers: dict[int, Optional[Pager]]
    #: Per-app-node swap managers (always present; a manager without a
    #: pager simply never evicts).
    managers: dict[int, SwapManager]
    #: The availability-dynamics subsystem (churn traces + failure
    #: events); inert when ``config.churn == "none"`` and no failures
    #: are scheduled, in which case it creates no simulation processes.
    dynamics: ClusterDynamics

    def start_services(self) -> None:
        """Start the availability machinery (clients, then monitors,
        then the cluster dynamics driving the monitors' truth)."""
        for client in self.clients.values():
            client.start()
        for monitor in self.monitors.values():
            monitor.start()
        self.dynamics.start()

    def stop_services(self) -> None:
        """Stop the availability machinery (dynamics first, then
        monitors, then clients)."""
        self.dynamics.stop()
        for monitor in self.monitors.values():
            monitor.stop()
        for client in self.clients.values():
            client.stop()

    def pager_chains(self) -> list[Pager]:
        """Every pager including disk-fallback pagers chained behind
        remote ones, in node order."""
        out: list[Pager] = []
        for a in self.app_ids:
            pager = self.pagers[a]
            if pager is not None:
                out.extend(pager.chain())
        return out

    def total_fault_stats(self) -> tuple[int, float]:
        """(faults, fault_time_s) summed over every pager chain."""
        faults = 0
        fault_time = 0.0
        for pager in self.pager_chains():
            faults += pager.stats.faults
            fault_time += pager.stats.fault_time_s
        return faults, fault_time

    def reset_pass(self) -> None:
        """Per-pass cleanup: local hash tables and remote guest stores."""
        for a in self.app_ids:
            self.managers[a].reset_pass()
        for store in self.stores.values():
            store.clear()


def build_runtime(config: RunConfig) -> ClusterRuntime:
    """Assemble the simulated cluster described by ``config``.

    This is the single source of truth for cluster bring-up: node
    layout, loss probability, stores, monitors, clients, pager
    construction (including the disk-fallback chain), swap managers,
    and shortage-handler wiring.
    """
    validate_config(config)
    env = Environment()
    n_total = config.n_app_nodes + config.n_memory_nodes
    cluster = Cluster(env, n_total)
    if config.loss_probability > 0.0:
        cluster.network.loss_probability = config.loss_probability
    app_ids = list(range(config.n_app_nodes))
    mem_ids = list(range(config.n_app_nodes, n_total))

    cost = config.cost
    stores: dict[int, RemoteStore] = {}
    monitors: dict[int, MemoryMonitor] = {}
    clients: dict[int, MonitorClient] = {}
    if config.n_memory_nodes > 0:
        for m in mem_ids:
            stores[m] = RemoteStore(cluster[m])
            monitors[m] = MemoryMonitor(
                cluster[m], cluster.transport, app_ids, cost,
                interval_s=config.monitor_interval_s,
            )
        for a in app_ids:
            clients[a] = MonitorClient(cluster[a], cluster.transport)

    managers: dict[int, SwapManager] = {}
    pagers: dict[int, Optional[Pager]] = {}
    memory_nodes = {m: cluster[m] for m in mem_ids}
    for a in app_ids:
        table = MemoryManagementTable()
        pager: Optional[Pager] = None
        if config.pager == "disk":
            pager = DiskPager(cluster[a], table, cost)
        elif config.pager in ("remote", "remote-update"):
            cls = (
                RemoteMemoryPager if config.pager == "remote" else RemoteUpdatePager
            )
            fallback = (
                DiskPager(cluster[a], table, cost) if config.disk_fallback else None
            )
            pager = cls(
                cluster[a], table, cost, cluster.network,
                clients[a], make_placement(config.placement),
                stores, memory_nodes, fallback=fallback,
            )
            # Proactive policies (migrate-ahead) drive this pager's
            # migration machinery; the hook is a no-op for the rest.
            pager.placement.attach_pager(pager)
        pagers[a] = pager
        managers[a] = SwapManager(
            cluster[a],
            limit_bytes=config.memory_limit_bytes,
            pager=pager,
            policy=make_policy(config.replacement, seed=config.seed),
        )
        # Shortage broadcasts trigger the migration mechanism.
        if pager is not None and a in clients:
            clients[a].shortage_handlers.append(pager.migrate_from)

    dynamics = ClusterDynamics(
        env,
        monitors=monitors,
        mem_ids=mem_ids,
        churn=config.churn,
        failures=tuple(FailureEvent(*f) for f in config.failures),
        seed=config.seed,
    )

    return ClusterRuntime(
        config=config,
        env=env,
        cluster=cluster,
        app_ids=app_ids,
        mem_ids=mem_ids,
        stores=stores,
        monitors=monitors,
        clients=clients,
        pagers=pagers,
        managers=managers,
        dynamics=dynamics,
    )
