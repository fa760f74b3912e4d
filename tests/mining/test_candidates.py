"""Tests for apriori-gen (join + prune)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.mining import generate_candidates, join, prune
from tests.mining import reference_candidates as reference


def test_join_pairs_from_singletons():
    large1 = [(1,), (2,), (3,)]
    assert join(large1, 2) == [(1, 2), (1, 3), (2, 3)]


def test_join_requires_shared_prefix():
    large2 = [(1, 2), (1, 3), (2, 3), (4, 5)]
    # (1,2)+(1,3) share prefix (1,) -> (1,2,3); (4,5) joins with nothing.
    assert join(large2, 3) == [(1, 2, 3)]


def test_join_wrong_size_rejected():
    with pytest.raises(MiningError):
        join([(1, 2)], 2)


def test_join_k_too_small():
    with pytest.raises(MiningError):
        join([(1,)], 1)


def test_prune_drops_unsupported_subset():
    # (1,2,3) needs (2,3) to be large.
    candidates = [(1, 2, 3)]
    large2 = [(1, 2), (1, 3)]
    assert prune(candidates, large2, 3) == []


def test_prune_keeps_fully_supported():
    candidates = [(1, 2, 3)]
    large2 = [(1, 2), (1, 3), (2, 3)]
    assert prune(candidates, large2, 3) == [(1, 2, 3)]


def test_generate_candidates_k2_all_pairs():
    large1 = [(i,) for i in range(5)]
    cands = generate_candidates(large1, 2)
    assert len(cands) == 10  # C(5,2) — the pass-2 explosion


def test_generate_candidates_k3_with_prune():
    large2 = [(1, 2), (1, 3), (2, 3), (2, 4)]
    # join yields (1,2,3) and (2,3,4); prune kills (2,3,4) since (3,4) missing.
    assert generate_candidates(large2, 3) == [(1, 2, 3)]


def test_generate_candidates_sorted_output():
    large1 = [(3,), (1,), (2,)]
    cands = generate_candidates(large1, 2)
    assert cands == sorted(cands)


def test_generate_candidates_empty_input():
    assert generate_candidates([], 2) == []


def test_prune_skip_of_join_parents_is_exhaustive():
    """prune() skips the two (k-1)-subsets the join already guarantees;
    the output must equal checking every subset anyway."""
    from itertools import combinations

    import random

    from repro.mining.candidates import join

    rng = random.Random(3)
    for _ in range(50):
        universe = range(12)
        large2 = sorted(
            set(
                tuple(sorted(rng.sample(universe, 2)))
                for _ in range(rng.randint(0, 30))
            )
        )
        large_set = set(large2)
        candidates = join(large2, 3)
        exhaustive = [
            cand
            for cand in candidates
            if all(sub in large_set for sub in combinations(cand, 2))
        ]
        assert prune(candidates, large2, 3) == exhaustive


# -- the array apriori-gen against the per-itemset reference -------------------


def _itemsets(width, items):
    """Sets of ``width``-itemsets over ``items`` — *not* closed under
    subsets, so the prune step has real work to do."""
    return st.sets(
        st.lists(items, min_size=width, max_size=width, unique=True).map(
            lambda row: tuple(sorted(row))
        ),
        max_size=40,
    ).map(sorted)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generate_candidates_matches_reference(data):
    k = data.draw(st.integers(2, 5))
    items = data.draw(
        st.sampled_from(
            [
                st.integers(0, 7),  # dense: long prefix groups, heavy pruning
                st.integers(0, 30),
                st.integers(2**31, 2**31 + 9),  # ids past int32
                st.integers(2**62, 2**62 + 9),  # ids no positional code fits
            ]
        )
    )
    large_prev = data.draw(_itemsets(k - 1, items))
    shuffled = data.draw(st.permutations(large_prev))
    got = generate_candidates(shuffled, k)
    assert got == reference.generate_candidates(large_prev, k)
    assert join(shuffled, k) == reference.join(large_prev, k)
    joined = reference.join(large_prev, k)
    assert prune(joined, shuffled, k) == reference.prune(joined, large_prev, k)
    assert all(type(item) is int for cand in got for item in cand)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_generate_candidates_edge_shapes(k):
    # Empty L_{k-1}.
    assert generate_candidates([], k) == []
    # One prefix group: every pair of lasts joins, and for k >= 3 all of
    # them are pruned (no (k-1)-subset without the shared prefix is large).
    prefix = tuple(range(k - 2))
    group = [prefix + (last,) for last in range(k, k + 4)]
    assert generate_candidates(group, k) == reference.generate_candidates(group, k)
    assert join(group, k) == [
        prefix + (a, b) for a in range(k, k + 4) for b in range(a + 1, k + 4)
    ]


def test_generate_candidates_rejects_wrong_width():
    with pytest.raises(MiningError):
        generate_candidates([(1, 2), (1,)], 3)
    with pytest.raises(MiningError):
        generate_candidates([(1,)], 1)
