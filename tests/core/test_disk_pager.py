"""Tests for the disk-swapping baseline pager."""

import pytest

from repro.cluster import BARRACUDA_7200
from repro.core import LineState
from repro.errors import SwapError
from tests.core.helpers import begin_pass, count_all, insert_all, make_line, make_rig


def test_swap_out_then_fault_in_roundtrip():
    rig = make_rig(pager_kind="disk")
    pager = rig.pagers[0]
    line = make_line()
    got = []

    def proc(env):
        yield from pager.swap_out(line)
        assert pager.table.state(1) is LineState.DISK
        back = yield from pager.fault_in(1)
        got.append(back)

    rig.env.process(proc(rig.env))
    rig.env.run(until=100)
    assert got[0] is line
    assert pager.table.state(1) is LineState.RESIDENT
    assert pager.stats.swap_outs == 1
    assert pager.stats.faults == 1


def test_fault_time_is_disk_access_time():
    rig = make_rig(pager_kind="disk")
    pager = rig.pagers[0]

    def proc(env):
        yield from pager.swap_out(make_line())
        yield from pager.fault_in(1)

    rig.env.process(proc(rig.env))
    rig.env.run(until=100)
    assert pager.stats.faults == 1
    expected = BARRACUDA_7200.access_time_s(4096)
    assert pager.stats.mean_fault_time_s() == pytest.approx(expected, rel=1e-12)
    # Paper §5.2: "at least 13.0 msec in average" on the 7200 rpm disk.
    assert pager.stats.mean_fault_time_s() >= 13.0e-3


def test_double_swap_out_rejected():
    rig = make_rig(pager_kind="disk")
    pager = rig.pagers[0]
    line = make_line()

    def proc(env):
        yield from pager.swap_out(line)
        with pytest.raises(SwapError):
            yield from pager.swap_out(line)

    rig.env.process(proc(rig.env))
    rig.env.run(until=100)


def test_fault_in_resident_rejected():
    rig = make_rig(pager_kind="disk")
    pager = rig.pagers[0]

    def proc(env):
        with pytest.raises(SwapError):
            yield from pager.fault_in(99)

    rig.env.process(proc(rig.env))
    rig.env.run(until=100)


def test_peek_leaves_line_on_disk():
    rig = make_rig(pager_kind="disk")
    pager = rig.pagers[0]
    line = make_line()

    def proc(env):
        yield from pager.swap_out(line)
        peeked = yield from pager.peek_line(1)
        assert peeked is line

    rig.env.process(proc(rig.env))
    rig.env.run(until=100)
    assert pager.table.state(1) is LineState.DISK
    assert pager.stats.peeks == 1


def test_counts_preserved_across_swap():
    """Counts live at ``counts[code]``, not in the line: a line that is
    swapped out and faulted back comes home the size it left, and its
    candidates' counts neither travel nor move."""
    rig = make_rig(pager_kind="disk", limit_bytes=16 + 24)  # one 1-itemset line
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 1])

    def proc(env):
        yield from insert_all(mgr, [0])
        yield from count_all(mgr, [0] * 7)
        yield from insert_all(mgr, [1])  # evicts line 0
        assert rig.pagers[0].stored_line(0).n_itemsets == 1
        assert table.counts.tolist() == [7, 0]
        yield from count_all(mgr, [0])  # faults it back

    rig.env.process(proc(rig.env))
    rig.env.run(until=100)
    assert rig.pagers[0].stats.faults == 1
    assert mgr.mm_table.is_resident(0)
    assert mgr.resident_bytes == 16 + 24  # home the size it left
    assert table.counts.tolist() == [8, 0]
    mgr.check_invariants()


def test_reset_pass_clears_disk_contents():
    rig = make_rig(pager_kind="disk")
    pager = rig.pagers[0]

    def proc(env):
        yield from pager.swap_out(make_line())

    rig.env.process(proc(rig.env))
    rig.env.run(until=100)
    pager.reset_pass()
    assert pager._on_disk == {}
