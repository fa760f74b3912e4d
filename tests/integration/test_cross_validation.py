"""Cross-validation matrix: every miner in the repository must agree.

Sequential Apriori (dict counting), the reference hash tree (tests/),
HPA (all pagers), HPA-ELD, and NPA are independent implementations of
the same mathematical object; this module pins them against each other
on a shared workload.
"""

import pytest

from repro.datagen import generate
from repro.errors import MiningError
from repro.mining import apriori, generate_candidates
from repro.mining.hpa import HPAConfig, HPARun, run_hpa
from repro.mining.npa import NPAConfig, run_npa
from tests.mining.reference_hash_tree import count_with_hash_tree

DB = generate("T9.I3.D700", n_items=110, seed=13)
REF = apriori(DB, minsup=0.02)
C2 = REF.passes[1].n_candidates
LIMIT = int(((C2 // 3) * 24 + 100 * 16) * 0.55)


def _hash_tree_apriori():
    """Every pass's candidates counted through the reference hash tree."""
    found = REF.large_of_size(1)
    for k in range(2, REF.max_k() + 2):
        rows = generate_candidates(sorted(REF.large_of_size(k - 1)), k)
        counts = count_with_hash_tree(DB, list(map(tuple, rows.tolist())), k)
        found.update((i, c) for i, c in counts.items() if c >= REF.minsup_count)
    return found


def all_miners():
    yield "apriori/hashtree", _hash_tree_apriori()
    yield "hpa/none", run_hpa(
        DB, HPAConfig(minsup=0.02, n_app_nodes=3, total_lines=300, seed=2)
    ).large_itemsets
    yield "hpa/disk", run_hpa(
        DB,
        HPAConfig(minsup=0.02, n_app_nodes=3, total_lines=300, seed=2,
                  pager="disk", memory_limit_bytes=LIMIT),
    ).large_itemsets
    yield "hpa/remote", run_hpa(
        DB,
        HPAConfig(minsup=0.02, n_app_nodes=3, total_lines=300, seed=2,
                  pager="remote", n_memory_nodes=3, memory_limit_bytes=LIMIT),
    ).large_itemsets
    yield "hpa/remote-update", run_hpa(
        DB,
        HPAConfig(minsup=0.02, n_app_nodes=3, total_lines=300, seed=2,
                  pager="remote-update", n_memory_nodes=3,
                  memory_limit_bytes=LIMIT),
    ).large_itemsets
    yield "hpa/eld", run_hpa(
        DB,
        HPAConfig(minsup=0.02, n_app_nodes=3, total_lines=300, seed=2,
                  eld_fraction=0.15),
    ).large_itemsets
    yield "npa", run_npa(
        DB, NPAConfig(minsup=0.02, n_app_nodes=3, total_lines=300, seed=2)
    ).large_itemsets


def test_every_miner_agrees_with_sequential():
    for name, result in all_miners():
        assert result == REF.large_itemsets, f"{name} diverged"


def test_run_objects_are_single_use():
    run = HPARun(DB, HPAConfig(minsup=0.05, n_app_nodes=2, total_lines=64))
    run.run()
    with pytest.raises(MiningError):
        run.run()
