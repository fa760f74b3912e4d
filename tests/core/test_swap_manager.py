"""Tests for the SwapManager: limits, eviction, fast/slow paths, invariants.

Candidates are codes into a per-test table: ``begin_pass(mgr, lines)``
makes code ``i`` a candidate of hash line ``lines[i]``."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LineState, SwapManager
from repro.errors import MiningError, SwapError
from repro.mining.hash_table import LINE_HEADER_BYTES
from repro.mining.itemsets import ITEMSET_BYTES
from repro.runtime.driver import MiningDriver
from tests.core.helpers import begin_pass, count_all, insert_all, make_rig


def bytes_for(lines: int, itemsets: int) -> int:
    return lines * LINE_HEADER_BYTES + itemsets * ITEMSET_BYTES


def test_no_limit_never_pages():
    rig = make_rig(pager_kind="none", limit_bytes=None)
    mgr = rig.managers[0]
    begin_pass(mgr, [i % 7 for i in range(100)])

    def proc(env):
        yield from insert_all(mgr, range(100))
        yield from count_all(mgr, range(100))
        return (yield from mgr.iter_all_lines())

    done = rig.env.process(proc(rig.env))
    rig.env.run(until=1.0)
    assert done.value == 100  # candidates chained on the node's lines
    assert mgr.stats.fast_counts == 100
    mgr.check_invariants()


def test_limit_requires_pager():
    rig = make_rig(pager_kind="none", limit_bytes=None)
    with pytest.raises(SwapError):
        SwapManager(rig.cluster[0], limit_bytes=100, pager=None)


def test_limit_must_be_positive():
    rig = make_rig(pager_kind="disk")
    with pytest.raises(SwapError):
        SwapManager(rig.cluster[0], limit_bytes=0, pager=rig.pagers[0])


def test_insert_over_limit_evicts_lru():
    # Limit: room for 2 lines of 2 itemsets each.
    limit = bytes_for(2, 4)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]
    # 3 lines x 2 itemsets overflows; line 0 is the LRU victim.
    begin_pass(mgr, [0, 0, 1, 1, 2, 2])

    rig.env.process(insert_all(mgr, range(6)))
    rig.env.run(until=10)
    assert mgr.mm_table.state(0) is LineState.DISK
    assert mgr.mm_table.state(1) is LineState.RESIDENT
    assert mgr.mm_table.state(2) is LineState.RESIDENT
    assert mgr.resident_bytes <= limit
    mgr.check_invariants()


def test_count_on_swapped_line_faults():
    limit = bytes_for(1, 2)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 1])

    def proc(env):
        yield from insert_all(mgr, [0, 1])
        # line 0 was evicted when line 1 arrived; counting faults it back.
        assert mgr.mm_table.state(0) is LineState.DISK
        yield from count_all(mgr, [0])

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert rig.pagers[0].stats.faults == 1
    # Faulting line 0 in pushed line 1 out (limit holds one line).
    assert mgr.mm_table.state(1) is LineState.DISK
    assert table.counts.tolist() == [1, 0]
    mgr.check_invariants()


def test_count_miss_is_error():
    rig = make_rig(pager_kind="none", limit_bytes=None)
    mgr = rig.managers[0]
    begin_pass(mgr, [0, 0, 3])

    def proc(env):
        yield from insert_all(mgr, [0])
        with pytest.raises(MiningError):  # never inserted
            yield from count_all(mgr, [1])
        with pytest.raises(MiningError):  # a candidate, but of line 0
            mgr.count_itemset(0, 3)

    rig.env.process(proc(rig.env))
    rig.env.run(until=1)


def test_remote_update_path_counts_remotely():
    limit = bytes_for(1, 2)
    rig = make_rig(pager_kind="remote-update", limit_bytes=limit, n_mem=2)
    mgr = rig.managers[0]
    pager = rig.pagers[0]
    table = begin_pass(mgr, [0, 1])

    def proc(env):
        yield env.timeout(0.5)  # availability info
        yield from insert_all(mgr, [0, 1])
        assert mgr.mm_table.state(0) is LineState.REMOTE_FIXED
        # Count on the fixed line: no fault, an update instead.
        yield from count_all(mgr, [0, 0])
        assert table.counts[0] == 0  # buffered, not yet applied
        yield from mgr.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert pager.stats.faults == 0
    assert mgr.stats.remote_counts == 2
    assert table.counts[0] == 2
    mgr.check_invariants()


def test_insert_into_fixed_line_goes_remote():
    limit = bytes_for(1, 2)
    rig = make_rig(pager_kind="remote-update", limit_bytes=limit, n_mem=1)
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 1, 0])

    def proc(env):
        yield env.timeout(0.5)
        yield from insert_all(mgr, [0, 1])
        # line 0 now fixed remotely; inserting more candidates into it
        # must become a remote insert, not a fault.
        yield from insert_all(mgr, [2])
        yield from mgr.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert rig.pagers[0].stats.faults == 0
    holder = mgr.mm_table.location(0).node_id
    assert table.inserted[2]
    assert rig.stores[holder].peek(0, 0).n_itemsets == 2
    mgr.check_invariants()


def test_oversized_single_line_tolerated():
    # Limit smaller than one line: the manager keeps one line resident
    # rather than deadlocking.
    limit = LINE_HEADER_BYTES + ITEMSET_BYTES  # 1 itemset worth
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]
    begin_pass(mgr, [0] * 5)

    rig.env.process(insert_all(mgr, range(5)))
    rig.env.run(until=10)
    # Still resident, over limit.
    assert mgr.resident_bytes == LINE_HEADER_BYTES + 5 * ITEMSET_BYTES > limit
    assert rig.pagers[0].stats.swap_outs == 0
    mgr.check_invariants()


def test_determination_iterates_resident_and_swapped():
    limit = bytes_for(2, 4)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 1, 2, 3])

    def proc(env):
        yield from insert_all(mgr, range(4))
        yield from count_all(mgr, [3])
        return (yield from mgr.iter_all_lines())

    done = rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert rig.pagers[0].stats.peeks == len(mgr.mm_table.non_resident_lines()) > 0
    assert done.value == 4  # one candidate on each line, wherever it is
    assert table.counts.tolist() == [0, 0, 0, 1]


def test_reset_pass_clears_everything():
    limit = bytes_for(1, 2)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]
    begin_pass(mgr, [0, 1])

    rig.env.process(insert_all(mgr, [0, 1]))
    rig.env.run(until=10)
    mgr.reset_pass()
    assert mgr.resident_bytes == 0
    assert len(mgr.policy) == 0
    assert len(mgr.table.counts) == len(mgr.owned) == 0
    assert mgr.mm_table.non_resident_lines() == []
    mgr.check_invariants()


def test_check_invariants_catches_a_lost_count_and_a_lost_candidate():
    """The conservation laws fail loudly: a count that never reached the
    table, and a candidate the table calls inserted that no line chains."""
    rig = make_rig(pager_kind="none", limit_bytes=None)
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 0, 1, 1])
    for code in range(3):
        assert mgr.insert_candidate(code, int(table.lines[code])) is None
    mgr.count_resident_bulk(np.array([0, 2, 2]))
    mgr.check_invariants()
    table.counts[2] -= 1
    with pytest.raises(SwapError, match="routed here"):
        mgr.check_invariants()
    table.counts[2] += 1
    table.insert(3, 1)  # behind the manager's back
    with pytest.raises(SwapError, match="chained"):
        mgr.check_invariants()


def test_check_invariants_catches_policy_and_residency_disagreeing():
    """What the ordered walk relies on: a line the policy holds is
    resident in the management table, and a line the table has swapped
    out is not in the policy (so a touch can never land on it)."""
    rig = make_rig(pager_kind="disk", limit_bytes=bytes_for(1, 1))
    mgr = rig.managers[0]
    begin_pass(mgr, [0, 1])
    rig.env.process(insert_all(mgr, [0, 1]))  # line 1 evicts line 0
    rig.env.run(until=10)
    mgr.check_invariants()
    mgr.mm_table.set_disk(1)  # swapped out on paper, still in the policy
    with pytest.raises(SwapError, match="policy membership"):
        mgr.check_invariants()
    mgr.mm_table.set_resident(1)
    mgr.check_invariants()
    mgr.policy.insert(0)  # in the policy, swapped out in the table
    with pytest.raises(SwapError, match="policy membership"):
        mgr.check_invariants()


def test_settled_totals_survive_reset_pass():
    """After a pass is reset its inserts and counts still have to add up
    to the cumulative statistics — what the post-run checks rely on."""
    rig = make_rig(pager_kind="disk", limit_bytes=bytes_for(1, 2))
    mgr = rig.managers[0]
    begin_pass(mgr, [0, 1])

    def proc(env):
        yield from insert_all(mgr, [0, 1])
        yield from count_all(mgr, [0, 1, 0])

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    mgr.reset_pass()
    mgr.check_invariants()
    mgr.stats.counts += 1  # an occurrence that was routed but never counted
    with pytest.raises(SwapError, match="routed here"):
        mgr.check_invariants()


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "count"]),
            st.integers(0, 5),  # line id
            st.integers(0, 15),  # item id
        ),
        min_size=1,
        max_size=80,
    ),
    limit_lines=st.integers(1, 4),
)
def test_property_invariants_hold_under_random_ops(ops, limit_lines):
    """Random insert/count sequences never violate the residency ledger,
    the policy/table agreement, or the memory limit, and all counts are
    exact regardless of paging."""
    limit = bytes_for(limit_lines, limit_lines * 3)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]
    # Code 16 * line + item is the candidate (item, item + 100) of ``line``.
    table = begin_pass(mgr, np.repeat(np.arange(6), 16))
    reference: dict = {}

    def proc(env):
        for kind, lid, item in ops:
            code = 16 * lid + item
            if kind == "insert":
                if code in reference:
                    continue
                reference[code] = 0
                op = mgr.insert_candidate(code, lid)
            else:
                if code not in reference:
                    continue
                reference[code] += 1
                op = mgr.count_itemset(code, lid)
            if op is not None:
                yield from op
            mgr.check_invariants()  # line by line: chained == inserted
        assert (yield from mgr.iter_all_lines()) == len(reference)
        assert np.flatnonzero(table.inserted).tolist() == sorted(reference)
        assert table.counts[sorted(reference)].tolist() == [
            reference[code] for code in sorted(reference)
        ]

    rig.env.process(proc(rig.env))
    rig.env.run(until=1000)


# -- bulk counting (pager-less fold) ------------------------------------------

def _bulk_manager():
    rig = make_rig(pager_kind="none", limit_bytes=None)
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 0, 5, 9])
    for code in range(3):
        assert mgr.insert_candidate(code, int(table.lines[code])) is None
    return mgr


def test_bulk_count_matches_per_occurrence_totals():
    mgr = _bulk_manager()
    mgr.count_resident_bulk(np.array([0, 2, 1, 0, 0, 1, 0]))
    assert mgr.table.counts.tolist() == [4, 2, 1, 0]
    assert mgr.stats.counts == mgr.stats.fast_counts == 7
    mgr.count_resident_bulk(np.empty(0, dtype=np.int64))
    assert mgr.stats.counts == 7
    mgr.check_invariants()


def test_bulk_count_rejects_non_candidates_and_bad_counts():
    mgr = _bulk_manager()
    with pytest.raises(MiningError, match="code 3 on line 9"):
        mgr.count_resident_bulk(np.array([0, 3]))  # never inserted
    with pytest.raises(ValueError):
        mgr.count_resident_bulk(np.array([0, -1]))
    with pytest.raises(IndexError):
        mgr.count_resident_bulk(np.array([0, 4]))  # not a code at all
    assert mgr.table.counts.tolist() == [0, 0, 0, 0]


def test_bulk_count_refuses_a_pager():
    rig = make_rig(pager_kind="disk", limit_bytes=10_000)
    mgr = rig.managers[0]
    begin_pass(mgr, [0])
    assert mgr.insert_candidate(0, 0) is None
    with pytest.raises(SwapError):
        mgr.count_resident_bulk(np.array([0]))


# -- resident spans -----------------------------------------------------------

def test_span_flush_names_the_itemset_or_line_of_a_misrouted_code():
    """A code counted on a node that does not hold its candidate fails
    at once, and the error names the code and the hash line it was
    routed to — whether the code was never inserted or is a candidate of
    another line.  (Settling a span checks and counts; touching the
    policy is the walk's job, before it gets here.)"""
    for bad, named in ((2, r"code 2 on line 0"), (1, r"code 1 on line 0")):
        rig = make_rig(pager_kind="disk", limit_bytes=10_000)
        mgr = rig.managers[0]
        table = begin_pass(mgr, [0, 1, 0])
        for code in (0, 1):
            assert mgr.insert_candidate(code, int(table.lines[code])) is None
        codes = np.array([0, bad, 0], dtype=np.int64)
        with pytest.raises(MiningError, match=named):
            mgr.count_span_codes(codes, np.zeros(3, dtype=np.int64))
        assert table.counts.tolist() == [0, 0, 0]
        assert mgr.stats.fast_counts == 0


def test_span_flush_folds_counts_onto_swapped_out_lines():
    """A span counted while its line was resident keeps its counts when
    the line is later swapped out: counts never travel with a line.
    The span leaves the policy alone — the walk touched it already."""
    rig = make_rig(pager_kind="disk", limit_bytes=bytes_for(1, 1))
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 1])

    def proc(env):
        yield from insert_all(mgr, [0, 1])
        assert mgr.mm_table.state(0) is LineState.DISK  # evicted by line 1
        codes = np.array([1, 1], dtype=np.int64)
        before = list(mgr.policy._members)
        mgr.count_span_codes(codes, table.lines[codes])
        assert list(mgr.policy._members) == before
        yield from count_all(mgr, [0])  # faults 0 in, evicts 1
        assert mgr.mm_table.state(1) is LineState.DISK
        mgr.flush_span_counts()  # nothing is deferred: a no-op
        return (yield from mgr.iter_all_lines())

    done = rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert done.value == 2  # one resident line, one peeked off the disk
    assert table.counts.tolist() == [1, 2]
    mgr.check_invariants()


def count_ordered(rig, codes):
    """``MiningDriver._count_ordered`` on the rig's node 0: of a driver,
    the walk reads nothing but its managers."""
    return MiningDriver._count_ordered(
        SimpleNamespace(managers=rig.managers), 0, np.asarray(codes, dtype=np.int64)
    )


@pytest.mark.parametrize(
    "bad, named", [(3, "code 3 on line 2"), (4, "code 4 on line 0")]
)
def test_walk_rejects_a_never_inserted_code_with_no_resident_count_applied(bad, named):
    """Code 3's line was never created, so the policy does not hold it:
    the walk stops there and the one-code path refuses it.  Code 4's
    line is resident, so it walks as a hit and the message's settlement
    refuses it.  Either way the error names the code and the line before
    ``_count_ordered`` finishes, and none of the message's resident
    occurrences has reached ``table.counts``."""
    rig = make_rig(pager_kind="disk", limit_bytes=10_000)
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 1, 0, 2, 0])
    for code in (0, 1, 2):
        assert mgr.insert_candidate(code, int(table.lines[code])) is None
    rig.env.process(count_ordered(rig, [0, 1, bad, 2]))
    with pytest.raises(MiningError, match=named):
        rig.env.run(until=10)
    assert table.counts.tolist() == [0, 0, 0, 0, 0]
    assert mgr.stats.fast_counts == 0


def test_walk_counts_a_message_across_a_fault_in_one_settlement():
    """Occurrences before and after a fault settle together at the end
    of the message, on lines that are resident or swapped out by then;
    the policy ends where per-occurrence touching leaves it."""
    rig = make_rig(pager_kind="disk", limit_bytes=bytes_for(2, 2))
    mgr = rig.managers[0]
    table = begin_pass(mgr, [0, 1, 2])

    def proc(env):
        yield from insert_all(mgr, [0, 1, 2])  # line 2 evicts line 0
        # Code 0 faults (evicting line 2), then code 2 faults (evicting 1).
        yield from count_ordered(rig, [1, 2, 1, 0, 2, 0])

    rig.env.process(proc(rig.env))
    with mock.patch.object(mgr, "count_span_codes", wraps=mgr.count_span_codes) as span:
        rig.env.run(until=10)
    assert [call.args[0].tolist() for call in span.call_args_list] == [[1, 2, 1, 0]]
    assert table.counts.tolist() == [2, 2, 2]
    assert (mgr.stats.counts, mgr.stats.fast_counts) == (6, 4)
    assert mgr.mm_table.state(1) is LineState.DISK
    assert list(mgr.policy._members) == [2, 0]
    mgr.check_invariants()


def _swap_out_line_0(rig, mgr):
    """Once the first broadcasts have landed, insert codes 0 and 1:
    line 1 evicts line 0 to a memory-available node."""

    def proc(env):
        yield env.timeout(0.05)
        yield from insert_all(mgr, [0, 1])

    rig.env.process(proc(rig.env))


def _two_faulters(rig, mgr, line_codes, finished):
    """At t = 0.1, two processes — HPA's sender and receiver — count
    ``line_codes`` at once."""

    def faulter(name):
        yield rig.env.timeout(0.1)
        try:
            yield from count_all(mgr, line_codes)
            finished.append((name, rig.env.now))
        except SwapError:
            finished.append((f"{name} failed", rig.env.now))

    rig.env.process(faulter("sender"))
    rig.env.process(faulter("receiver"))


def test_concurrent_faults_on_one_line_fault_once():
    rig = make_rig(pager_kind="remote", limit_bytes=bytes_for(1, 1))
    mgr, pager = rig.managers[0], rig.pagers[0]
    table = begin_pass(mgr, [0, 1])
    _swap_out_line_0(rig, mgr)
    finished = []
    _two_faulters(rig, mgr, [0], finished)
    with mock.patch.object(pager, "fault_in", wraps=pager.fault_in) as fault_in, \
            mock.patch.object(rig.env, "event", wraps=rig.env.event) as make_event:
        rig.env.run(until=1.0)
    assert fault_in.call_count == 1
    assert pager.stats.faults == 1
    # The second comer made the one completion event and resumed at the
    # first fault's completion.
    assert make_event.call_count == 1
    done_at = 0.1 + pager.stats.fault_time_s
    assert finished == [("sender", done_at), ("receiver", done_at)]
    assert table.counts.tolist() == [2, 0]
    assert mgr._faulting == {}
    mgr.check_invariants()


def test_a_lone_fault_schedules_no_completion_event():
    rig = make_rig(pager_kind="remote", limit_bytes=bytes_for(1, 1))
    mgr = rig.managers[0]
    begin_pass(mgr, [0, 1])

    _swap_out_line_0(rig, mgr)

    def proc(env):
        yield env.timeout(0.1)
        yield from count_all(mgr, [0])

    rig.env.process(proc(rig.env))
    with mock.patch.object(rig.env, "event", wraps=rig.env.event) as make_event:
        rig.env.run(until=1.0)
    assert rig.pagers[0].stats.faults == 1
    assert make_event.call_count == 0
    assert mgr._faulting == {}


def test_a_failed_fault_wakes_its_waiter_to_fault_again():
    rig = make_rig(pager_kind="remote", limit_bytes=bytes_for(1, 1))
    mgr, pager = rig.managers[0], rig.pagers[0]
    table = begin_pass(mgr, [0, 1])
    _swap_out_line_0(rig, mgr)
    real_fault_in, calls = pager.fault_in, []

    def fault_in(line_id):
        calls.append(rig.env.now)
        if len(calls) == 1:
            yield rig.env.timeout(0.001)
            raise SwapError("holder unreachable")
        return (yield from real_fault_in(line_id))

    finished = []
    _two_faulters(rig, mgr, [0], finished)
    with mock.patch.object(pager, "fault_in", fault_in):
        rig.env.run(until=1.0)
    # The waiter woke when the first fault raised and faulted itself.
    assert calls == [0.1, 0.101]
    assert finished == [
        ("sender failed", 0.101),
        ("receiver", 0.101 + pager.stats.fault_time_s),
    ]
    assert pager.stats.faults == 1
    assert table.counts.tolist() == [1, 0]  # the failed access counted nothing
    assert mgr._faulting == {}
