"""Tests for apriori-gen (join + prune) over ``int64[n, k]`` rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.mining import generate_candidates
from tests.mining import reference_candidates as reference


def _tuples(rows):
    return list(map(tuple, rows.tolist()))


def test_join_pairs_from_singletons():
    large1 = np.array([[1], [2], [3]])
    assert generate_candidates(large1, 2).tolist() == [[1, 2], [1, 3], [2, 3]]


def test_join_requires_shared_prefix():
    large2 = [(1, 2), (1, 3), (2, 3), (4, 5)]
    # (1,2)+(1,3) share prefix (1,) -> (1,2,3); (4,5) joins with nothing.
    assert generate_candidates(large2, 3).tolist() == [[1, 2, 3]]


def test_join_wrong_size_rejected():
    with pytest.raises(MiningError):
        generate_candidates(np.array([[1, 2]]), 2)


def test_join_k_too_small():
    with pytest.raises(MiningError):
        generate_candidates(np.array([[1]]), 1)


def test_prune_drops_unsupported_subset():
    # The join makes (1,2,3), which needs (2,3) to be large.
    large2 = [(1, 2), (1, 3)]
    assert generate_candidates(large2, 3).shape == (0, 3)


def test_prune_keeps_fully_supported():
    large2 = [(1, 2), (1, 3), (2, 3)]
    assert generate_candidates(large2, 3).tolist() == [[1, 2, 3]]


def test_generate_candidates_k2_all_pairs():
    large1 = [(i,) for i in range(5)]
    cands = generate_candidates(large1, 2)
    assert cands.shape == (10, 2)  # C(5,2) — the pass-2 explosion


def test_generate_candidates_k3_with_prune():
    large2 = [(1, 2), (1, 3), (2, 3), (2, 4)]
    # join yields (1,2,3) and (2,3,4); prune kills (2,3,4) since (3,4) missing.
    assert generate_candidates(large2, 3).tolist() == [[1, 2, 3]]


def test_generate_candidates_sorted_output():
    large1 = [(3,), (1,), (2,)]
    cands = _tuples(generate_candidates(large1, 2))
    assert cands == sorted(cands)


def test_generate_candidates_empty_input():
    got = generate_candidates(np.empty((0, 1), dtype=np.int64), 2)
    assert got.shape == (0, 2) and got.dtype == np.int64
    assert generate_candidates([], 2).shape == (0, 2)


def test_prune_skip_of_join_parents_is_exhaustive():
    """The prune step skips the two (k-1)-subsets the join already
    guarantees; the output must equal checking every subset anyway."""
    from itertools import combinations

    import random

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
        exhaustive = [
            cand
            for cand in reference.join(large2, 3)
            if all(sub in large_set for sub in combinations(cand, 2))
        ]
        assert _tuples(generate_candidates(large2, 3)) == exhaustive


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
    """For a random L_{k-1}, k = 2 .. 5, given as rows in any order, the
    candidate rows are the reference's tuples, in its (lex) order."""
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
    rows = np.array(shuffled, dtype=np.int64).reshape(-1, k - 1)
    got = generate_candidates(rows, k)
    assert got.dtype == np.int64 and got.shape[1] == k
    assert _tuples(got) == reference.generate_candidates(large_prev, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_generate_candidates_edge_shapes(k):
    # Empty L_{k-1}.
    assert generate_candidates([], k).shape == (0, k)
    # One prefix group: every pair of lasts joins, and for k >= 3 all of
    # them are pruned (no (k-1)-subset without the shared prefix is large).
    prefix = tuple(range(k - 2))
    group = [prefix + (last,) for last in range(k, k + 4)]
    got = _tuples(generate_candidates(group, k))
    assert got == reference.generate_candidates(group, k)
    if k == 2:
        assert got == [(a, b) for a in range(2, 6) for b in range(a + 1, 6)]


def test_generate_candidates_rejects_wrong_width():
    with pytest.raises(MiningError):
        generate_candidates([(1, 2), (1,)], 3)  # mixed widths
    with pytest.raises(MiningError):
        generate_candidates(np.array([[1, 2], [1, 3]]), 4)
    with pytest.raises(MiningError):
        generate_candidates(np.array([1, 2]), 3)  # not rows at all
    with pytest.raises(MiningError):
        generate_candidates([(1,)], 1)
