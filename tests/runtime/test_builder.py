"""build_runtime wires the cluster exactly as the drivers used to.

These are structural tests of the composition root: node layout, which
services exist for which configuration, pager typing (``Optional`` —
``None`` means "no pager", never a duck-typed stand-in), disk-fallback
chains, and shortage-handler wiring.  Behavioural equivalence with the
pre-refactor drivers is pinned separately by
``tests/integration/test_runtime_equivalence.py``.
"""

import pytest

from repro.core import (
    DiskPager,
    RemoteMemoryPager,
    RemoteUpdatePager,
    SwapManager,
)
from repro.runtime import ClusterRuntime, RunConfig, build_runtime


def rt(**kw) -> ClusterRuntime:
    base = dict(minsup=0.02, n_app_nodes=2, total_lines=256)
    base.update(kw)
    return build_runtime(RunConfig(**base))


def test_node_layout():
    runtime = rt(n_app_nodes=3, n_memory_nodes=2, pager="remote",
                 memory_limit_bytes=1 << 16)
    assert runtime.app_ids == [0, 1, 2]
    assert runtime.mem_ids == [3, 4]
    assert len(runtime.cluster) == 5


def test_no_pager_means_none_not_a_stub():
    runtime = rt(pager="none")
    assert set(runtime.pagers) == {0, 1}
    assert all(p is None for p in runtime.pagers.values())
    assert runtime.pager_chains() == []
    assert runtime.total_fault_stats() == (0, 0.0)
    # Managers exist regardless; without a pager they never evict.
    assert all(isinstance(m, SwapManager) for m in runtime.managers.values())


def test_no_memory_nodes_means_no_services():
    runtime = rt(pager="disk", memory_limit_bytes=1 << 16)
    assert runtime.stores == {}
    assert runtime.monitors == {}
    assert runtime.clients == {}
    assert all(isinstance(p, DiskPager) for p in runtime.pagers.values())


@pytest.mark.parametrize(
    "pager,cls", [("remote", RemoteMemoryPager), ("remote-update", RemoteUpdatePager)]
)
def test_remote_pagers_and_services(pager, cls):
    runtime = rt(pager=pager, n_memory_nodes=2, memory_limit_bytes=1 << 16)
    assert set(runtime.stores) == set(runtime.mem_ids)
    assert set(runtime.monitors) == set(runtime.mem_ids)
    assert set(runtime.clients) == set(runtime.app_ids)
    for a in runtime.app_ids:
        assert isinstance(runtime.pagers[a], cls)
        # Shortage broadcasts must reach the pager's migration handler.
        assert runtime.pagers[a].migrate_from in runtime.clients[a].shortage_handlers


def test_disk_fallback_chain():
    runtime = rt(pager="remote", n_memory_nodes=1, disk_fallback=True,
                 memory_limit_bytes=1 << 16)
    chains = runtime.pager_chains()
    # Each app node contributes its remote pager plus the chained disk pager.
    assert len(chains) == 2 * len(runtime.app_ids)
    for a in runtime.app_ids:
        chain = list(runtime.pagers[a].chain())
        assert isinstance(chain[0], RemoteMemoryPager)
        assert isinstance(chain[1], DiskPager)


def test_loss_probability_reaches_network():
    runtime = rt(loss_probability=0.01)
    assert runtime.cluster.network.loss_probability == 0.01
    assert rt().cluster.network.loss_probability == 0.0


def test_services_start_stop_broadcast():
    runtime = rt(pager="remote", n_memory_nodes=2, memory_limit_bytes=1 << 16,
                 monitor_interval_s=0.01)
    runtime.start_services()
    runtime.env.run(until=0.05)
    assert all(m.broadcasts_sent > 0 for m in runtime.monitors.values())
    runtime.stop_services()
    sent = {m.node.node_id: m.broadcasts_sent for m in runtime.monitors.values()}
    runtime.env.run(until=1.0)
    assert all(
        m.broadcasts_sent == sent[m.node.node_id]
        for m in runtime.monitors.values()
    )


def test_reset_pass_clears_stores():
    from repro.mining.hash_table import HashLine

    runtime = rt(pager="remote", n_memory_nodes=1, memory_limit_bytes=1 << 16)
    store = runtime.stores[runtime.mem_ids[0]]
    store.put(0, HashLine(line_id=7, n_itemsets=1))
    assert store.n_lines == 1
    runtime.reset_pass()
    assert store.n_lines == 0


def test_seeded_policies_are_independent():
    runtime = rt(replacement="random", pager="disk", memory_limit_bytes=1 << 16,
                 seed=3)
    p0, p1 = (runtime.managers[a].policy for a in runtime.app_ids)
    assert p0 is not p1


def test_dynamics_inert_by_default_and_active_with_churn():
    static = rt(pager="remote", n_memory_nodes=1, memory_limit_bytes=1 << 16)
    assert not static.dynamics.active

    churning = rt(pager="remote", n_memory_nodes=2,
                  memory_limit_bytes=1 << 16,
                  churn="constant:frac=0.25")
    assert churning.dynamics.active
    assert len(churning.dynamics.node_dynamics) == 2

    failing = rt(pager="remote", n_memory_nodes=2,
                 memory_limit_bytes=1 << 16,
                 failures=((0.05, 1, 0.02),))
    assert failing.dynamics.active
    assert failing.dynamics.failures[0].node_index == 1
