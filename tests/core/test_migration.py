"""Tests for the dynamic memory migration mechanism (paper §4.2 / §5.4)."""

import pytest

from repro.core import LineState
from tests.core.helpers import PER_LINE, bare_table, make_line, make_rig


def wire_migration(rig):
    """Register each app pager's migrate_from as a shortage handler."""
    for a in rig.app_ids:
        pager = rig.pagers[a]
        rig.clients[a].shortage_handlers.append(pager.migrate_from)


def park_lines(rig, a, line_ids, at=None):
    """Process generator: swap out the given lines from app node a."""
    pager = rig.pagers[a]

    def proc(env):
        yield rig.env.timeout(0.5)
        for lid in line_ids:
            yield from pager.swap_out(make_line(lid))

    return rig.env.process(proc(rig.env))


def find_holder_with_lines(rig, a):
    pager = rig.pagers[a]
    holders = {}
    for lid in pager.table.non_resident_lines():
        loc = pager.table.location(lid)
        holders.setdefault(loc.node_id, []).append(lid)
    return holders


@pytest.mark.parametrize("kind", ["remote", "remote-update"])
def test_shortage_triggers_migration(kind):
    rig = make_rig(n_app=1, n_mem=3, pager_kind=kind)
    wire_migration(rig)
    pager = rig.pagers[0]
    park_lines(rig, 0, range(6))

    state = {}

    def trigger(env):
        yield env.timeout(2.0)
        holders = find_holder_with_lines(rig, 0)
        victim = max(holders, key=lambda h: len(holders[h]))
        state["victim"] = victim
        state["victim_lines"] = holders[victim]
        rig.monitors[victim].signal_shortage()

    rig.env.process(trigger(rig.env))
    rig.env.run(until=20.0)

    victim = state["victim"]
    # Every line has left the victim and lives on another memory node.
    assert rig.stores[victim].n_lines == 0
    for lid in state["victim_lines"]:
        loc = pager.table.location(lid)
        assert loc.state in (LineState.REMOTE, LineState.REMOTE_FIXED)
        assert loc.node_id != victim
        assert rig.stores[loc.node_id].holds(0, lid)
    assert pager.stats.migrations == 1
    assert pager.stats.lines_migrated == len(state["victim_lines"])


def test_migration_preserves_counts():
    rig = make_rig(n_app=1, n_mem=2, pager_kind="remote-update")
    wire_migration(rig)
    pager = rig.pagers[0]
    table = bare_table(pager)
    done = {}

    def proc(env):
        yield env.timeout(0.5)
        line = make_line(1)
        yield from pager.swap_out(line)
        holder = pager.table.location(1).node_id
        # Count a bit, then shortage mid-stream, then count more.
        for i in range(10):
            op = pager.buffer_update(1, PER_LINE, 1)
            if op is not None:
                yield from op
        rig.monitors[holder].signal_shortage()
        yield env.timeout(1.0)  # migration happens
        for i in range(10):
            op = pager.buffer_update(1, PER_LINE, 1)
            if op is not None:
                yield from op
        yield from pager.drain()
        done["holder_before"] = holder

    rig.env.process(proc(rig.env))
    rig.env.run(until=30.0)
    new_holder = pager.table.location(1).node_id
    assert new_holder != done["holder_before"]
    assert rig.stores[new_holder].peek(0, 1).n_itemsets == 3
    assert table.counts[PER_LINE] == 20 == table.counts.sum()


def test_updates_during_migration_are_held_and_flushed():
    rig = make_rig(n_app=1, n_mem=2, pager_kind="remote-update")
    pager = rig.pagers[0]
    table = bare_table(pager)

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line(1))
        holder = pager.table.location(1).node_id
        # Manually begin a migration and interleave updates while the
        # line is in MIGRATING state.
        migration = env.process(pager.migrate_from(holder))
        yield env.timeout(0)  # let it mark lines migrating
        assert pager.table.state(1) is LineState.MIGRATING
        for _ in range(5):
            op = pager.buffer_update(1, PER_LINE, 1)
            if op is not None:
                yield from op
        yield migration
        yield from pager.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=30.0)
    new_holder = pager.table.location(1).node_id
    assert rig.stores[new_holder].holds(0, 1)
    assert table.counts[PER_LINE] == 5 == table.counts.sum()


def test_fault_waits_for_migration():
    rig = make_rig(n_app=1, n_mem=2, pager_kind="remote")
    pager = rig.pagers[0]
    got = {}

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line(1))
        holder = pager.table.location(1).node_id
        migration = env.process(pager.migrate_from(holder))
        yield env.timeout(0)
        assert pager.table.state(1) is LineState.MIGRATING
        line = yield from pager.fault_in(1)
        got["line"] = line
        got["migration_alive"] = migration.is_alive

    rig.env.process(proc(rig.env))
    rig.env.run(until=30.0)
    assert got["line"].line_id == 1
    assert pager.table.state(1) is LineState.RESIDENT


def test_migration_of_empty_holder_is_noop():
    rig = make_rig(n_app=1, n_mem=2, pager_kind="remote")
    pager = rig.pagers[0]

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.migrate_from(rig.mem_ids[0])

    rig.env.process(proc(rig.env))
    rig.env.run(until=5.0)
    assert pager.stats.migrations == 0


def test_migration_overhead_small():
    """Paper Fig. 5: migration overhead is almost negligible relative to
    ongoing counting work."""
    rig = make_rig(n_app=1, n_mem=3, pager_kind="remote-update")
    wire_migration(rig)
    pager = rig.pagers[0]
    t = {}

    def workload(env, migrate):
        yield env.timeout(0.5)
        for lid in range(4):
            yield from pager.swap_out(make_line(lid))
        start = env.now
        for i in range(12000):
            if migrate and i == 3000:
                holders = find_holder_with_lines(rig, 0)
                victim = max(holders, key=lambda h: len(holders[h]))
                rig.monitors[victim].signal_shortage()
            op = pager.buffer_update(i % 4, PER_LINE * (i % 4), 1)
            if op is not None:
                yield from op
        yield from pager.drain()
        t["elapsed"] = env.now - start

    def measure(migrate):
        nonlocal rig, pager
        rig = make_rig(n_app=1, n_mem=3, pager_kind="remote-update")
        wire_migration(rig)
        pager = rig.pagers[0]
        bare_table(pager)
        rig.env.process(workload(rig.env, migrate))
        rig.env.run(until=60.0)
        return t["elapsed"]

    base = measure(False)
    with_migration = measure(True)
    assert with_migration < 1.15 * base
