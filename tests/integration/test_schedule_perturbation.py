"""The schedule-race detector: mined results must not depend on the
order of same-``(time, priority)`` events.

:meth:`repro.sim.engine.Environment.set_tie_shuffle` makes the dispatch
loop pop a *random* entry from the due lane instead of the oldest one.
Every such order is a legal schedule, so a run that mines different
itemsets under a shuffle seed has a schedule race — no list of shared
state needed.  The invariant is the one the goldens and every report
rest on: the large itemsets *and their supports* are the same under
every legal schedule.  Per-pass timing fields legitimately shift with
tie order (a message delivered first warms a different queue), so the
oracle is the itemset digest, plus each node's
:meth:`~repro.core.swap_manager.SwapManager.check_invariants` (and each
lender's :meth:`~repro.core.remote_store.RemoteStore.check_invariants`)
once the run has ended.

The suite is the 12 golden configurations (both drivers, every pager,
shortage injection, the disk-fallback chain) plus the two catalogue
scenarios where same-instant scheduling is busiest — ``churning``
(monitor broadcasts against churn steps and migrate-ahead firings) and
``node-failure`` — at two fixed shuffle seeds each, and two Hypothesis
tests drawing seeds over a tiny remote-pager configuration.  It is
calibrated against the three ordering bugs this model has had: PR 6's
two migration/update races and PR 10's end-of-pass marker overtaking
the last count payload (see DESIGN.md §8).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate
from repro.harness.scales import SCALES, prepare_workload
from repro.mining import apriori
from repro.mining.hpa import HPAConfig, HPARun
from repro.mining.npa import NPAConfig, NPARun
from repro.runtime import driver, get_scenario, paper_limited
from repro.runtime.builder import build_runtime

from tests.integration.test_runtime_equivalence import GOLDEN, execute, itemset_digest

SHUFFLE_SEEDS = (1, 2)
SCENARIOS = ("churning", "node-failure")


@contextmanager
def tie_shuffled(seed: int) -> Iterator[None]:
    """Every runtime a driver builds inside the block dispatches under
    ``random.Random(seed)`` tie shuffling; on leaving it, every swap
    manager and every guest store those runtimes built must satisfy its
    invariants."""
    built = []

    def build(config):
        runtime = build_runtime(config)
        runtime.env.set_tie_shuffle(random.Random(seed))
        built.append(runtime)
        return runtime

    with mock.patch.object(driver, "build_runtime", build):
        yield
    for runtime in built:
        for checked in (*runtime.managers.values(), *runtime.stores.values()):
            checked.check_invariants()


@pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
@pytest.mark.parametrize("name", sorted(GOLDEN["specs"]))
def test_golden_itemsets_invariant_under_tie_shuffle(name: str, seed: int) -> None:
    with tie_shuffled(seed):
        result = execute(GOLDEN["specs"][name])
    expected = GOLDEN["expected"][name]["itemset_digest"]
    assert itemset_digest(result.large_itemsets) == expected


@pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_dynamic_scenario_equals_serial_apriori_under_tie_shuffle(
    name: str, seed: int
) -> None:
    """Under the 13 MB-equivalent limit, as in ``test_scenarios.py``:
    without one nothing is swapped out at ``tiny``, so churn and the
    failure would have no guest lines to migrate."""
    scenario = paper_limited(replace(get_scenario(name), scale="tiny"), 13.0)
    with tie_shuffled(seed):
        result = scenario.execute()
    oracle = apriori(
        prepare_workload("tiny").db, SCALES["tiny"].minsup, max_k=scenario.max_k
    )
    assert result.large_itemsets == oracle.large_itemsets


# -- seeds drawn by Hypothesis over a tiny remote-pager configuration -------

_TINY = dict(
    minsup=0.05,
    n_app_nodes=2,
    total_lines=64,
    seed=1,
    pager="remote",
    n_memory_nodes=2,
    memory_limit_bytes=4096,
)


@lru_cache(maxsize=1)
def _db():
    return generate("T5.I2.D80", n_items=40, seed=11)


def _run_hpa() -> str:
    return itemset_digest(HPARun(_db(), HPAConfig(**_TINY)).run().large_itemsets)


def _run_npa() -> str:
    config = NPAConfig(max_k=2, **_TINY)
    return itemset_digest(NPARun(_db(), config).run().large_itemsets)


@lru_cache(maxsize=1)
def _baselines() -> "tuple[str, str]":
    return _run_hpa(), _run_npa()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_hpa_itemsets_invariant_under_tie_shuffle(seed: int) -> None:
    hpa_base, _ = _baselines()
    with tie_shuffled(seed):
        assert _run_hpa() == hpa_base


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_npa_itemsets_invariant_under_tie_shuffle(seed: int) -> None:
    _, npa_base = _baselines()
    with tie_shuffled(seed):
        assert _run_npa() == npa_base
