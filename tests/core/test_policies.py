"""Tests for replacement policies, including LRU-order properties."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FIFOPolicy, LRUPolicy, RandomPolicy, make_policy
from repro.errors import SwapError


@pytest.fixture(params=["lru", "fifo", "random"])
def policy(request):
    return make_policy(request.param)


def test_insert_and_contains(policy):
    policy.insert(1)
    policy.insert(2)
    assert 1 in policy and 2 in policy
    assert len(policy) == 2


def test_double_insert_rejected(policy):
    policy.insert(1)
    with pytest.raises(SwapError):
        policy.insert(1)


def test_touch_unknown_rejected(policy):
    with pytest.raises(SwapError):
        policy.touch(1)


def test_remove(policy):
    policy.insert(1)
    policy.remove(1)
    assert 1 not in policy
    with pytest.raises(SwapError):
        policy.remove(1)


def test_victim_empty_rejected(policy):
    with pytest.raises(SwapError):
        policy.victim()


def test_victim_respects_pinned(policy):
    policy.insert(1)
    with pytest.raises(SwapError):
        policy.victim(pinned=1)
    policy.insert(2)
    v = policy.victim(pinned=1)
    assert v == 2
    assert 1 in policy


def test_victim_removes_from_policy(policy):
    policy.insert(1)
    policy.insert(2)
    v = policy.victim()
    assert v not in policy
    assert len(policy) == 1


def test_clear(policy):
    policy.insert(1)
    policy.insert(2)
    policy.clear()
    assert len(policy) == 0


def test_lru_evicts_least_recent():
    p = LRUPolicy()
    for i in range(3):
        p.insert(i)
    p.touch(0)  # order now 1, 2, 0
    assert p.victim() == 1
    assert p.victim() == 2
    assert p.victim() == 0


def test_fifo_ignores_touch():
    p = FIFOPolicy()
    for i in range(3):
        p.insert(i)
    p.touch(0)
    assert p.victim() == 0  # insertion order regardless of access


def test_random_deterministic_with_seed():
    def run(seed):
        p = RandomPolicy(seed)
        for i in range(10):
            p.insert(i)
        return [p.victim() for _ in range(10)]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_make_policy_unknown():
    with pytest.raises(SwapError):
        make_policy("clock")


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "touch", "victim"]), st.integers(0, 8)),
        max_size=60,
    )
)
def test_property_lru_matches_reference(ops):
    """LRU policy must agree with a simple reference implementation."""
    p = LRUPolicy()
    ref: list[int] = []  # least-recent first
    for op, x in ops:
        if op == "insert":
            if x in ref:
                continue
            p.insert(x)
            ref.append(x)
        elif op == "touch":
            if x not in ref:
                continue
            p.touch(x)
            ref.remove(x)
            ref.append(x)
        else:  # victim
            if not ref:
                continue
            assert p.victim() == ref.pop(0)
        assert len(p) == len(ref)
        for line in ref:
            assert line in p


def drained(policy) -> "list[int]":
    """The victim order from here on, taken from a copy (a random
    policy's generator state is copied with it)."""
    policy = copy.deepcopy(policy)
    return [policy.victim() for _ in range(len(policy))]


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["lru", "fifo", "random"]),
    members=st.lists(st.integers(0, 8), unique=True),
    ids=st.lists(st.integers(0, 11), max_size=40),
    start=st.integers(0, 40),
)
def test_property_touch_run_is_touch_up_to_the_first_non_member(
    name, members, ids, start
):
    """The ordered walk against its definition: ``touch_run`` stops at
    the first line the policy does not hold, never touches it, and
    leaves the policy where ``touch`` on each preceding id leaves it."""
    walked, reference = make_policy(name, seed=3), make_policy(name, seed=3)
    for line_id in members:
        walked.insert(line_id)
        reference.insert(line_id)
    start = min(start, len(ids))
    stop = walked.touch_run(ids, start)
    assert stop == next(
        (i for i in range(start, len(ids)) if ids[i] not in members), len(ids)
    )
    for line_id in ids[start:stop]:
        reference.touch(line_id)
    assert len(walked) == len(members)
    assert drained(walked) == drained(reference)
