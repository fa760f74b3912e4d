"""Tests for the remote-update pager (the paper's winning mechanism)."""

import pytest

from repro.core import LineState
from repro.errors import SwapError
from tests.core.helpers import PER_LINE, bare_table, make_line, make_rig

#: Codes of line 1 in ``bare_table``: three inserted, one still to insert.
FIRST, SECOND, _, NEW = range(PER_LINE, 2 * PER_LINE)


def test_swapped_lines_are_fixed():
    rig = make_rig(n_mem=2, pager_kind="remote-update")
    pager = rig.pagers[0]

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line())

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    assert pager.table.state(1) is LineState.REMOTE_FIXED


def test_fault_in_fixed_line_rejected():
    rig = make_rig(n_mem=1, pager_kind="remote-update")
    pager = rig.pagers[0]

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line())
        with pytest.raises(SwapError):
            yield from pager.fault_in(1)

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)


def test_updates_buffer_until_block_full():
    rig = make_rig(n_mem=1, pager_kind="remote-update")
    pager = rig.pagers[0]
    table = bare_table(pager)

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line())
        # Buffer a handful of updates: fewer than a block => all None.
        for _ in range(5):
            op = pager.buffer_update(1, FIRST, 1)
            assert op is None
        assert pager.stats.update_messages == 0
        yield from pager.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    # After drain, the partial buffer was flushed and applied.
    assert table.counts[FIRST] == 5
    assert pager.stats.update_messages == 1
    assert pager.stats.updates_sent == 5


def test_full_block_triggers_flush():
    rig = make_rig(n_mem=1, pager_kind="remote-update")
    pager = rig.pagers[0]
    table = bare_table(pager)
    per_msg = rig.cost.updates_per_message()

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line())
        flushes = 0
        for _ in range(per_msg):
            op = pager.buffer_update(1, FIRST, 1)
            if op is not None:
                flushes += 1
                yield from op
        assert flushes == 1
        yield from pager.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=5.0)
    assert table.counts[FIRST] == per_msg


def test_remote_insert_delta_zero():
    rig = make_rig(n_mem=1, pager_kind="remote-update")
    pager = rig.pagers[0]
    table = bare_table(pager)

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.swap_out(make_line())
        op = pager.buffer_update(1, NEW, 0)  # insert new candidate
        if op is not None:
            yield from op
        op = pager.buffer_update(1, NEW, 1)  # then count it
        if op is not None:
            yield from op
        yield from pager.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)
    holder = pager.table.location(1).node_id
    assert table.inserted[NEW] and table.counts[NEW] == 1
    assert rig.stores[holder].peek(0, 1).n_itemsets == 4


def test_update_for_resident_line_rejected():
    rig = make_rig(n_mem=1, pager_kind="remote-update")
    pager = rig.pagers[0]
    with pytest.raises(SwapError):
        pager.buffer_update(7, 7 * PER_LINE, 1)


def test_updates_cheaper_than_faulting():
    """The §5.3 claim: under heavy re-access, remote update beats simple
    swapping because one-way batched updates replace round-trip faults."""

    def run(kind):
        rig = make_rig(n_mem=2, pager_kind=kind)
        pager = rig.pagers[0]
        bare_table(pager)
        t = {}

        def proc(env):
            yield env.timeout(0.5)
            lines = [make_line(i) for i in range(4)]
            for line in lines:
                yield from pager.swap_out(line)
            start = env.now
            # 400 accesses across swapped-out lines.
            for i in range(400):
                lid = i % 4
                if kind == "remote-update":
                    op = pager.buffer_update(lid, PER_LINE * lid, 1)
                    if op is not None:
                        yield from op
                else:
                    line = yield from pager.fault_in(lid)
                    yield from pager.swap_out(line)
            yield from pager.drain()
            t["elapsed"] = env.now - start

        rig.env.process(proc(rig.env))
        rig.env.run(until=60)
        return t["elapsed"]

    t_update = run("remote-update")
    t_swap = run("remote")
    assert t_swap / t_update > 10


def test_drain_idempotent_when_empty():
    rig = make_rig(n_mem=1, pager_kind="remote-update")
    pager = rig.pagers[0]

    def proc(env):
        yield env.timeout(0.5)
        yield from pager.drain()
        yield from pager.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=2.0)


def test_counts_exact_under_many_buffered_updates():
    rig = make_rig(n_mem=2, pager_kind="remote-update")
    pager = rig.pagers[0]
    table = bare_table(pager)
    n_updates = 1000

    def proc(env):
        yield env.timeout(0.5)
        line = make_line(1, n=2)
        yield from pager.swap_out(line)
        for i in range(n_updates):
            op = pager.buffer_update(1, FIRST if i % 2 == 0 else SECOND, 1)
            if op is not None:
                yield from op
        yield from pager.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=30.0)
    assert table.counts[FIRST] == n_updates // 2
    assert table.counts[SECOND] == n_updates // 2
