"""``SwapManager.insert_resident_prefix`` against the per-item loop.

The grouped prefix insert must leave a manager exactly where the same
number of ``insert_candidate`` calls leave it — line sizes, inserted
mask, byte ledger, statistics and replacement-policy state — and must
stop exactly where the per-item walk first evicts, faults or buffers.

A sequence is a list of hash-line ids: candidate ``i`` of the pass hashes
to ``lines[i]``, the pre-populated candidates first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.mining.hash_table import LINE_HEADER_BYTES
from repro.mining.itemsets import ITEMSET_BYTES
from tests.core.helpers import begin_pass, insert_all, make_rig

POLICIES = ("lru", "fifo", "random")


def _manager(policy, limit, pre, seq, pager_kind="disk"):
    """A manager over the table ``pre + seq`` whose first ``len(pre)``
    candidates went in by fully driven per-item inserts (evictions
    included, so ``pre`` can leave lines swapped out)."""
    rig = make_rig(
        pager_kind="none" if limit is None else pager_kind,
        limit_bytes=limit,
        policy=policy,
    )
    mgr = rig.managers[0]
    begin_pass(mgr, list(pre) + list(seq))

    def populate(env):
        yield env.timeout(0.5)  # let the monitors' first broadcast land
        yield from insert_all(mgr, range(len(pre)))

    rig.env.process(populate(rig.env))
    rig.env.run(until=50.0)
    return mgr


def _policy_state(policy):
    if policy.name == "lru":
        return list(policy._order)
    if policy.name == "fifo":
        return (list(policy._queue), policy._members)
    return (policy._members, policy._index)


def _state(mgr):
    return {
        "lines": [(line.line_id, line.n_itemsets) for line in mgr.lines.values()],
        "inserted": mgr.table.inserted.tolist(),
        "resident_bytes": mgr.resident_bytes,
        "inserts": mgr.stats.inserts,
        "policy": _policy_state(mgr.policy),
    }


def _first_slow_insert(mgr, codes):
    """Index of the first per-item insert that leaves the fast path
    (``len(codes)`` if none does): it targets a non-resident line — a
    fault, or a remote update that may only be buffered — calls
    ``_make_room``, or returns a generator.  Consumes ``mgr``."""
    evicting = []
    make_room = mgr._make_room
    mgr._make_room = lambda pinned=None: evicting.append(1) or make_room(pinned)
    for i, code in enumerate(codes):
        line_id = int(mgr.table.lines[code])
        if not mgr.mm_table.is_resident(line_id):
            return i
        if mgr.insert_candidate(code, line_id) is not None or evicting:
            return i
    return len(codes)


def check_prefix_equivalence(policy, limit, pre, seq, pager_kind="disk"):
    codes = np.arange(len(pre), len(pre) + len(seq))
    stop = _first_slow_insert(
        _manager(policy, limit, pre, seq, pager_kind), codes.tolist()
    )

    oracle = _manager(policy, limit, pre, seq, pager_kind)
    for code in codes[:stop].tolist():
        assert oracle.insert_candidate(code, int(oracle.table.lines[code])) is None

    bulk = _manager(policy, limit, pre, seq, pager_kind)
    head = bulk.insert_resident_prefix(codes, bulk.table.lines[codes])

    assert head == stop
    assert _state(bulk) == _state(oracle)
    bulk.check_invariants()
    oracle.check_invariants()
    return head


LINES = [3, 1, 3, 0, 1, 3, 2, 0, 5, 1, 3, 5]


@pytest.mark.parametrize("policy", POLICIES)
def test_no_limit_inserts_everything(policy):
    assert check_prefix_equivalence(policy, None, [], LINES) == len(LINES)


@pytest.mark.parametrize("policy", POLICIES)
def test_limit_crossed_mid_list(policy):
    # Room for the first 7 candidates (4 fresh lines): insert 7 evicts.
    limit = 4 * LINE_HEADER_BYTES + 7 * ITEMSET_BYTES
    assert check_prefix_equivalence(policy, limit, [], LINES) == 7


def test_limit_exactly_met_is_not_over():
    """Over-limit is strict: a list ending exactly on the limit fits."""
    limit = 4 * LINE_HEADER_BYTES + 8 * ITEMSET_BYTES
    assert check_prefix_equivalence("lru", limit, [], LINES[:8]) == 8


@pytest.mark.parametrize("policy", POLICIES)
def test_limit_below_one_line(policy):
    assert check_prefix_equivalence(policy, LINE_HEADER_BYTES, [], LINES) == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_prepopulated_table(policy):
    pre = [1, 7, 1, 3]
    limit = 6 * LINE_HEADER_BYTES + 12 * ITEMSET_BYTES
    head = check_prefix_equivalence(policy, limit, pre, LINES)
    assert 0 < head < len(LINES)


@pytest.mark.parametrize("pager_kind", ["disk", "remote-update"])
@pytest.mark.parametrize("at", [0, 3])
def test_non_resident_target_line_ends_the_prefix(pager_kind, at):
    # ``pre`` overflows on its last insert and evicts line 8 (LRU), which
    # leaves line 9 resident with room for four more candidates; the list
    # targets the swapped-out line at index ``at``.
    limit = 2 * LINE_HEADER_BYTES + 6 * ITEMSET_BYTES
    pre = [8, 8, 8, 8, 8, 9, 9]
    assert not _manager("lru", limit, pre, [], pager_kind).mm_table.is_resident(8)
    lines = [9] * 4
    lines[at] = 8
    assert check_prefix_equivalence("lru", limit, pre, lines, pager_kind) == at


@pytest.mark.parametrize("existing", [False, True])
def test_duplicate_candidate_still_raises(existing):
    """A code inserted earlier, or named twice in the batch, is refused
    before the batch inserts anything."""
    mgr = _manager("lru", None, [4] if existing else [], [4, 4])
    codes = np.array([1, 0] if existing else [0, 1, 1])
    with pytest.raises(MiningError):
        mgr.insert_resident_prefix(codes, mgr.table.lines[codes])
    assert mgr.table.inserted.sum() == existing
    mgr.check_invariants()


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(POLICIES),
    st.one_of(st.none(), st.integers(1, 40 * ITEMSET_BYTES)),
    st.lists(st.integers(0, 9), max_size=8),
    st.lists(st.integers(0, 9), max_size=30),
)
def test_prefix_insert_matches_per_item_loop(policy, limit, pre_lines, lines):
    check_prefix_equivalence(policy, limit, pre_lines, lines)
