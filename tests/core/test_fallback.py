"""Tests for the disk-fallback extension: when every memory-available
node is full, evictions spill to the local swap disk instead of failing."""

import pytest

from repro.core import DiskPager, LineState, MemoryManagementTable, MostAvailableFirst
from repro.core.remote_pager import RemoteMemoryPager, RemoteUpdatePager
from repro.datagen import generate
from repro.errors import NoMemoryAvailable
from repro.mining import apriori
from repro.mining.hpa import HPAConfig, HPARun
from repro.errors import MiningError
from tests.core.helpers import make_line, make_rig


def rig_with_fallback(pager_cls=RemoteMemoryPager):
    rig = make_rig(n_app=1, n_mem=1, pager_kind="none", limit_bytes=None)
    table = MemoryManagementTable()
    fallback = DiskPager(rig.cluster[0], table, rig.cost)
    pager = pager_cls(
        rig.cluster[0], table, rig.cost, rig.cluster.network, rig.clients[0],
        MostAvailableFirst(), rig.stores,
        {m: rig.cluster[m] for m in rig.mem_ids}, fallback=fallback,
    )
    return rig, pager, fallback


def saturate(rig):
    """Make every memory node report zero availability."""
    for m in rig.mem_ids:
        rig.cluster[m].memory.set_external_pressure(
            rig.cluster[m].memory.capacity_bytes
        )


def test_evict_falls_back_to_disk_when_lenders_full():
    rig, pager, fallback = rig_with_fallback()
    line = make_line(1)

    def proc(env):
        yield env.timeout(3.5)  # a broadcast has reflected the saturation
        yield from pager.swap_out(line)

    def pressure(env):
        yield env.timeout(0.5)
        saturate(rig)

    rig.env.process(pressure(rig.env))
    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert pager.table.state(1) is LineState.DISK
    assert fallback.stats.swap_outs == 1
    assert pager.stats.placement_rejections == 1


def test_fault_from_disk_after_fallback():
    rig, pager, fallback = rig_with_fallback()
    got = []

    def proc(env):
        yield env.timeout(3.5)
        yield from pager.swap_out(make_line(1))
        line = yield from pager.fault_in(1)
        got.append(line)

    def pressure(env):
        yield env.timeout(0.5)
        saturate(rig)

    rig.env.process(pressure(rig.env))
    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert got[0].line_id == 1
    assert fallback.stats.faults == 1
    assert pager.table.state(1) is LineState.RESIDENT


def test_peek_from_disk_after_fallback():
    rig, pager, fallback = rig_with_fallback(RemoteUpdatePager)

    def proc(env):
        yield env.timeout(3.5)
        line = make_line(1, n=4)
        yield from pager.swap_out(line)
        peeked = yield from pager.peek_line(1)
        assert peeked is line and peeked.n_itemsets == 4
        assert pager.stored_line(1) is line

    def pressure(env):
        yield env.timeout(0.5)
        saturate(rig)

    rig.env.process(pressure(rig.env))
    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert fallback.stats.peeks == 1


def test_without_fallback_raises():
    rig = make_rig(n_app=1, n_mem=1, pager_kind="remote")
    pager = rig.pagers[0]

    def proc(env):
        yield env.timeout(3.5)
        with pytest.raises(NoMemoryAvailable):
            yield from pager.swap_out(make_line(1))

    def pressure(env):
        yield env.timeout(0.5)
        saturate(rig)

    rig.env.process(pressure(rig.env))
    rig.env.process(proc(rig.env))
    rig.env.run(until=10)


def test_hpa_with_fallback_exact_results():
    """End to end: memory nodes saturate mid-run; results stay exact."""
    db = generate("T8.I3.D600", n_items=100, seed=7)
    ref = apriori(db, minsup=0.02)
    c2 = ref.passes[1].n_candidates
    limit = int(((c2 // 4) * 24 + 64 * 16) * 0.5)
    run = HPARun(
        db,
        HPAConfig(
            minsup=0.02, n_app_nodes=4, total_lines=256, seed=1, max_k=2,
            pager="remote", n_memory_nodes=2, memory_limit_bytes=limit,
            disk_fallback=True,
        ),
    )

    # Saturate both lenders early so evictions must go to disk, without
    # signalling a shortage (no migration — plain admission failure).
    def pressure(env):
        yield env.timeout(0.2)
        for m in run.mem_ids:
            run.cluster[m].memory.set_external_pressure(
                run.cluster[m].memory.capacity_bytes
            )

    run.env.process(pressure(run.env))
    res = run.run()
    assert res.large_itemsets == {
        i: c for i, c in ref.large_itemsets.items() if len(i) <= 2
    }
    disk_swaps = sum(
        run.pagers[a].fallback.stats.swap_outs for a in run.app_ids
    )
    assert disk_swaps > 0  # the fallback genuinely engaged


def test_config_validation():
    with pytest.raises(MiningError):
        HPAConfig(pager="disk", disk_fallback=True)
    with pytest.raises(MiningError):
        HPAConfig(pager="none", disk_fallback=True)
