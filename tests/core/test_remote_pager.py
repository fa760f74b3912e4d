"""Tests for dynamic remote memory acquisition with simple swapping."""

import pytest

from repro.core import LineState
from repro.errors import NoMemoryAvailable, SwapError
from tests.core.helpers import make_line, make_rig


def settle(rig, t=0.5):
    """Let the first monitor broadcasts land."""
    rig.env.run(until=t)


def test_swap_out_places_line_remotely():
    rig = make_rig(n_mem=2, pager_kind="remote")
    pager = rig.pagers[0]
    line = make_line()

    def proc(env):
        yield env.timeout(0.5)  # wait for availability info
        yield from pager.swap_out(line)

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    loc = pager.table.location(1)
    assert loc.state is LineState.REMOTE
    assert loc.node_id in rig.mem_ids
    assert rig.stores[loc.node_id].holds(0, 1)
    assert pager.stats.swap_outs == 1


def test_fault_in_brings_line_home():
    rig = make_rig(n_mem=2, pager_kind="remote")
    pager = rig.pagers[0]
    line = make_line()
    got = []

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(line)
        back = yield from pager.fault_in(1)
        got.append((back, env.now))

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    assert got[0][0] is line
    assert pager.table.state(1) is LineState.RESIDENT
    assert all(not s.holds(0, 1) for s in rig.stores.values())


def test_fault_time_matches_paper_decomposition():
    """Table 4: PF time ~= RTT (0.5ms) + 4KB transmit (~0.3ms) + service
    (~1.5ms) => 2.2-2.4 ms on an idle holder."""
    rig = make_rig(n_mem=1, pager_kind="remote")
    pager = rig.pagers[0]

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line())
        yield from pager.fault_in(1)

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    pf = pager.stats.mean_fault_time_s()
    assert 2.0e-3 <= pf <= 2.6e-3


def test_remote_fault_much_faster_than_disk():
    def measure(kind):
        rig = make_rig(n_mem=1, pager_kind=kind)
        pager = rig.pagers[0]

        def proc(env):
            yield env.timeout(0.5)
            yield from pager.swap_out(make_line())
            yield from pager.fault_in(1)

        rig.env.process(proc(rig.env))
        rig.env.run(until=5.0)
        return pager.stats.mean_fault_time_s()

    remote, disk = measure("remote"), measure("disk")
    # Paper: 2.33 ms vs >= 13 ms -> about 5-6x.
    assert disk / remote > 4.0


def test_no_availability_info_raises():
    rig = make_rig(n_mem=1, pager_kind="remote")
    pager = rig.pagers[0]

    def proc(env):
        # t=0: monitors have not broadcast-delivered yet.
        with pytest.raises(NoMemoryAvailable):
            yield from pager.swap_out(make_line())
        yield env.timeout(0)

    rig.env.process(proc(rig.env))
    rig.env.run(until=1.0)


def test_full_holder_rejection_falls_over_to_next():
    rig = make_rig(n_mem=2, pager_kind="remote")
    pager = rig.pagers[0]
    m0, m1 = rig.mem_ids

    def proc(env):
        yield env.timeout(0.5)
        # After broadcasts, stuff m-most-available full behind the
        # client's back (stale info): pager must retry the other node.
        best = max(rig.mem_ids, key=lambda m: rig.clients[0].available_bytes(m))
        rig.cluster[best].memory.set_external_pressure(
            rig.cluster[best].memory.capacity_bytes
        )
        yield from pager.swap_out(make_line())

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    assert pager.stats.placement_rejections == 1
    assert pager.stats.swap_outs == 1
    loc = pager.table.location(1)
    assert loc.state is LineState.REMOTE


def test_single_holder_contention_serialises_faults():
    """Figure 3's bottleneck: many app nodes faulting against one
    memory-available node queue on its CPU/NIC."""

    def run(n_app, n_mem):
        rig = make_rig(n_app=n_app, n_mem=n_mem, pager_kind="remote")
        done = []

        def proc(env, a):
            pager = rig.pagers[a]
            yield env.timeout(0.5)
            # Park ten lines, then thrash them: fault one in, push it out.
            for lid in range(10):
                yield from pager.swap_out(make_line(lid))
            for round_ in range(8):
                # Rotate the access order per app so the apps are not
                # lock-stepped onto the same holder at every instant.
                for i in range(10):
                    lid = (i + 3 * a) % 10
                    line = yield from pager.fault_in(lid)
                    yield from pager.swap_out(line)
            done.append(env.now - 0.5)  # exclude the settle delay

        for a in rig.app_ids:
            rig.env.process(proc(rig.env, a))
        rig.env.run(until=60.0)
        assert len(done) == n_app
        return max(done)

    t_bottleneck = run(4, 1)
    t_spread = run(4, 4)
    assert t_bottleneck > 1.5 * t_spread


def test_fault_in_unknown_state_rejected():
    rig = make_rig(n_mem=1, pager_kind="remote")
    pager = rig.pagers[0]

    def proc(env):
        with pytest.raises(SwapError):
            yield from pager.fault_in(12)
        yield env.timeout(0)

    rig.env.process(proc(rig.env))
    rig.env.run(until=1.0)


def test_peek_line_preserves_remote_residency():
    rig = make_rig(n_mem=1, pager_kind="remote")
    pager = rig.pagers[0]
    line = make_line()

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(line)
        peeked = yield from pager.peek_line(1)
        assert peeked is line and peeked.n_itemsets == 3
        assert pager.stored_line(1) is line

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    assert pager.table.state(1) is LineState.REMOTE
    assert pager.stats.peeks == 1
