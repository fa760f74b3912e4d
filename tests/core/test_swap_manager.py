"""Tests for the SwapManager: limits, eviction, fast/slow paths, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LineState, SwapManager
from repro.errors import MiningError, SwapError
from repro.mining.hash_table import LINE_HEADER_BYTES
from repro.mining.itemsets import ITEMSET_BYTES
from repro.mining.kernels import CountingKernel
from tests.core.helpers import count_all, insert_all, make_rig


def bytes_for(lines: int, itemsets: int) -> int:
    return lines * LINE_HEADER_BYTES + itemsets * ITEMSET_BYTES


def test_no_limit_never_pages():
    rig = make_rig(pager_kind="none", limit_bytes=None)
    mgr = rig.managers[0]
    pairs = [((i, i + 1), i % 7) for i in range(100)]

    def proc(env):
        yield from insert_all(mgr, pairs)
        yield from count_all(mgr, pairs)

    rig.env.process(proc(rig.env))
    rig.env.run(until=1.0)
    assert mgr.total_candidates() == 100
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


def test_insert_over_limit_evicts_lru(  ):
    # Limit: room for 2 lines of 2 itemsets each.
    limit = bytes_for(2, 4)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]

    def proc(env):
        # 3 lines x 2 itemsets overflows; line 0 is the LRU victim.
        pairs = [((0, 1), 0), ((0, 2), 0), ((1, 2), 1), ((1, 3), 1),
                 ((2, 3), 2), ((2, 4), 2)]
        yield from insert_all(mgr, pairs)

    rig.env.process(proc(rig.env))
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

    def proc(env):
        yield from insert_all(mgr, [((0, 1), 0), ((1, 2), 1)])
        # line 0 was evicted when line 1 arrived; counting faults it back.
        assert mgr.mm_table.state(0) is LineState.DISK
        yield from count_all(mgr, [((0, 1), 0)])

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert rig.pagers[0].stats.faults == 1
    # Faulting line 0 in pushed line 1 out (limit holds one line).
    assert mgr.mm_table.state(1) is LineState.DISK
    assert mgr.table.get(0).counts[(0, 1)] == 1
    mgr.check_invariants()


def test_count_miss_is_error():
    rig = make_rig(pager_kind="none", limit_bytes=None)
    mgr = rig.managers[0]

    def proc(env):
        yield from insert_all(mgr, [((0, 1), 0)])
        with pytest.raises(MiningError):
            yield from count_all(mgr, [((9, 9), 0)])

    rig.env.process(proc(rig.env))
    rig.env.run(until=1)


def test_remote_update_path_counts_remotely():
    limit = bytes_for(1, 2)
    rig = make_rig(pager_kind="remote-update", limit_bytes=limit, n_mem=2)
    mgr = rig.managers[0]
    pager = rig.pagers[0]

    def proc(env):
        yield env.timeout(0.5)  # availability info
        yield from insert_all(mgr, [((0, 1), 0), ((1, 2), 1)])
        assert mgr.mm_table.state(0) is LineState.REMOTE_FIXED
        # Count on the fixed line: no fault, an update instead.
        yield from count_all(mgr, [((0, 1), 0), ((0, 1), 0)])
        yield from mgr.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert pager.stats.faults == 0
    assert mgr.stats.remote_counts == 2
    holder = mgr.mm_table.location(0).node_id
    assert rig.stores[holder].peek(0, 0).counts[(0, 1)] == 2
    mgr.check_invariants()


def test_insert_into_fixed_line_goes_remote():
    limit = bytes_for(1, 2)
    rig = make_rig(pager_kind="remote-update", limit_bytes=limit, n_mem=1)
    mgr = rig.managers[0]

    def proc(env):
        yield env.timeout(0.5)
        yield from insert_all(mgr, [((0, 1), 0), ((1, 2), 1)])
        # line 0 now fixed remotely; inserting more candidates into it
        # must become a remote insert, not a fault.
        yield from insert_all(mgr, [((0, 5), 0)])
        yield from mgr.drain()

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert rig.pagers[0].stats.faults == 0
    holder = mgr.mm_table.location(0).node_id
    assert (0, 5) in rig.stores[holder].peek(0, 0).counts
    mgr.check_invariants()


def test_oversized_single_line_tolerated():
    # Limit smaller than one line: the manager keeps one line resident
    # rather than deadlocking.
    limit = LINE_HEADER_BYTES + ITEMSET_BYTES  # 1 itemset worth
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]

    def proc(env):
        yield from insert_all(mgr, [((0, i), 0) for i in range(1, 6)])

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert len(mgr.table) == 1  # still resident, over limit
    mgr.check_invariants()


def test_determination_iterates_resident_and_swapped():
    limit = bytes_for(2, 4)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]
    got = {}

    def proc(env):
        pairs = [((0, 1), 0), ((1, 2), 1), ((2, 3), 2), ((3, 4), 3)]
        yield from insert_all(mgr, pairs)
        yield from count_all(mgr, [((3, 4), 3)])
        lines = yield from mgr.iter_all_lines()
        for line in lines:
            got.update(line.counts)

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    assert got == {(0, 1): 0, (1, 2): 0, (2, 3): 0, (3, 4): 1}


def test_reset_pass_clears_everything():
    limit = bytes_for(1, 2)
    rig = make_rig(pager_kind="disk", limit_bytes=limit)
    mgr = rig.managers[0]

    def proc(env):
        yield from insert_all(mgr, [((0, 1), 0), ((1, 2), 1)])

    rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    mgr.reset_pass()
    assert mgr.resident_bytes == 0
    assert len(mgr.table) == 0
    assert mgr.mm_table.non_resident_lines() == []
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
    reference: dict = {}

    def proc(env):
        for kind, lid, item in ops:
            itemset = (item, item + 100)
            key = (lid, itemset)
            if kind == "insert":
                if key in reference:
                    continue
                reference[key] = 0
                op = mgr.insert_candidate(itemset, lid)
            else:
                if key not in reference:
                    continue
                reference[key] += 1
                op = mgr.count_itemset(itemset, lid)
            if op is not None:
                yield from op
            mgr.check_invariants()
        lines = yield from mgr.iter_all_lines()
        observed = {}
        for line in lines:
            for itemset, c in line.counts.items():
                observed[(line.line_id, itemset)] = c
        assert observed == reference

    rig.env.process(proc(rig.env))
    rig.env.run(until=1000)


# -- aligned bulk counting (pager-less fold) ----------------------------------

def _bulk_manager():
    rig = make_rig(pager_kind="none", limit_bytes=None)
    mgr = rig.managers[0]
    for itemset, line_id in [((1, 2), 0), ((1, 3), 0), ((2, 3), 5)]:
        assert mgr.insert_candidate(itemset, line_id) is None
    return mgr


def test_bulk_count_matches_per_occurrence_totals():
    mgr = _bulk_manager()
    mgr.count_resident_bulk([(1, 2), (2, 3), (1, 3)], [0, 5, 0], [4, 1, 2])
    assert mgr.table.all_counts() == {(1, 2): 4, (1, 3): 2, (2, 3): 1}
    assert mgr.stats.counts == mgr.stats.fast_counts == 7
    mgr.count_resident_bulk([], [], [])
    assert mgr.stats.counts == 7
    mgr.check_invariants()


def test_bulk_count_rejects_non_candidates_and_bad_counts():
    mgr = _bulk_manager()
    with pytest.raises(MiningError):  # right line, not a candidate there
        mgr.count_resident_bulk([(1, 2), (2, 3)], [0, 0], [1, 1])
    with pytest.raises(MiningError):  # a line this node never created
        mgr.count_resident_bulk([(1, 2)], [9], [1])
    with pytest.raises(MiningError):
        mgr.count_resident_bulk([(1, 2)], [0], [0])


def test_bulk_count_refuses_a_pager():
    rig = make_rig(pager_kind="disk", limit_bytes=10_000)
    mgr = rig.managers[0]
    assert mgr.insert_candidate((1, 2), 0) is None
    with pytest.raises(SwapError):
        mgr.count_resident_bulk([(1, 2)], [0], [1])


# -- span ledger --------------------------------------------------------------

def test_span_flush_names_the_itemset_or_line_of_a_misrouted_code():
    """A k = 3 code counted on a node that does not hold its candidate
    fails at flush, and the error names the real 3-itemset or its hash
    line — whether the node never held the line or holds it without the
    candidate."""
    candidates = [(1, 2, 3), (1, 2, 4), (2, 3, 4), (2, 3, 5)]
    lines = np.array([0, 1, 2, 0], dtype=np.int64)
    kernel = CountingKernel(3, 10, candidates, lines, np.array([0, 0, 1, 0]))
    for bad, named in ((2, r"\(2, 3, 4\)|line 2\b"), (3, r"\(2, 3, 5\).*line 0\b")):
        rig = make_rig(pager_kind="disk", limit_bytes=10_000)
        mgr = rig.managers[0]
        for code in (0, 1):
            assert mgr.insert_candidate(candidates[code], int(lines[code])) is None
        codes = np.array([0, bad, 0], dtype=np.int64)
        # The policy is touched on line 0 only: the ledger's own check is
        # what must catch the stray code.
        kernel.count_resident_span(mgr, codes, np.zeros(3, dtype=np.int64))
        assert mgr.stats.fast_counts == 3
        with pytest.raises(MiningError, match=named):
            mgr.flush_span_counts()


def test_span_flush_folds_counts_onto_swapped_out_lines():
    rig = make_rig(pager_kind="disk", limit_bytes=bytes_for(1, 1))
    mgr = rig.managers[0]
    candidates = [(1, 2, 3), (1, 2, 4)]
    lines = np.array([0, 1], dtype=np.int64)
    kernel = CountingKernel(3, 10, candidates, lines, np.zeros(2, dtype=np.int64))

    def proc(env):
        yield from insert_all(mgr, list(zip(candidates, lines.tolist())))
        assert mgr.mm_table.state(0) is LineState.DISK  # evicted by line 1
        codes = np.array([1, 1], dtype=np.int64)
        kernel.count_resident_span(mgr, codes, kernel.lines_of(codes))
        yield from count_all(mgr, [((1, 2, 3), 0)])  # faults 0 in, evicts 1
        assert mgr.mm_table.state(1) is LineState.DISK
        mgr.flush_span_counts()
        mgr.flush_span_counts()  # idempotent
        return (yield from mgr.iter_all_lines())

    done = rig.env.process(proc(rig.env))
    rig.env.run(until=10)
    counts = {i: c for line in done.value for i, c in line.counts.items()}
    assert counts == {(1, 2, 3): 1, (1, 2, 4): 2}
