"""Scenario serialisation, the catalogue, and the bounded result cache."""

import json
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest

from repro.analysis.report.experiment_results import default_seeds
from repro.errors import ConfigError
from repro.harness.scales import SCALES, prepare_workload
from repro.mining import apriori
from repro.runtime import driver
from repro.runtime import (
    SCENARIOS,
    Scenario,
    ScenarioCache,
    cache_stats,
    clear_cache,
    get_scenario,
    list_scenarios,
    paper_limited,
    register_scenario,
    run_scenario,
)

TINY = Scenario(name="t", scale="tiny", max_k=2)


# -- serialisation ---------------------------------------------------------


def test_json_round_trip():
    s = Scenario(
        name="rt", description="x", driver="npa", scale="tiny",
        pager="remote-update", n_memory_nodes=2, paper_mb=13.0,
        shortages=((0.05, 0), (0.09, 1)),
    )
    assert Scenario.from_json(s.to_json()) == s


def test_shortages_normalised_from_json_lists():
    s = Scenario.from_dict({"shortages": [[0.1, 0], [0.2, 1]]})
    assert s.shortages == ((0.1, 0), (0.2, 1))


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown scenario field"):
        Scenario.from_dict({"pager": "disk", "warp_drive": True})


def test_rejects_unknown_driver():
    with pytest.raises(ConfigError, match="driver"):
        Scenario(driver="mpi")


def test_cache_key_ignores_cosmetic_fields():
    a = Scenario(name="a", description="one", scale="tiny")
    b = Scenario(name="b", description="two", scale="tiny")
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != Scenario(scale="tiny", pager="disk").cache_key()
    # The key is canonical JSON — stable and diffable.
    json.loads(a.cache_key())


# -- catalogue -------------------------------------------------------------


def test_catalogue_has_the_paper_configurations():
    names = [s.name for s in list_scenarios()]
    for expected in ("baseline", "disk-swap", "remote-swap",
                     "remote-update", "migration", "npa-baseline"):
        assert expected in names


def test_get_scenario_unknown_name():
    with pytest.raises(ConfigError, match="unknown scenario"):
        get_scenario("does-not-exist")


def test_register_requires_name_and_uniqueness():
    with pytest.raises(ConfigError, match="needs a name"):
        register_scenario(Scenario())
    with pytest.raises(ConfigError, match="already registered"):
        register_scenario(Scenario(name="baseline"))


def test_paper_limited_strips_the_name():
    limited = paper_limited(get_scenario("remote-update"), 13.0)
    assert limited.paper_mb == 13.0
    assert limited.name == ""
    assert "remote-update" in SCENARIOS  # catalogue entry untouched


# -- oracle ----------------------------------------------------------------


@contextmanager
def invariants_checked():
    """Every swap manager and every guest store of every runtime a
    driver builds inside the block has ``check_invariants`` called on
    the settled state of each pass (drained and determined, just before
    its reset) and once more after the run, as the schedule-fuzz suite
    does."""
    built = []
    build_runtime = driver.build_runtime

    def check(runtime):
        for checked in (*runtime.managers.values(), *runtime.stores.values()):
            checked.check_invariants()

    def build(config):
        runtime = build_runtime(config)
        reset_pass = runtime.reset_pass

        def checked_reset():
            check(runtime)
            reset_pass()

        runtime.reset_pass = checked_reset
        built.append(runtime)
        return runtime

    with mock.patch.object(driver, "build_runtime", build):
        yield
    assert built
    for runtime in built:
        check(runtime)


@pytest.mark.parametrize("seed", default_seeds("tiny", 2))
@pytest.mark.parametrize("scenario", list_scenarios(), ids=lambda s: s.name)
def test_catalogue_scenario_equals_serial_apriori(scenario, seed):
    """Every catalogue entry, mined to termination, finds the itemsets
    *and supports* serial Apriori finds on the same database, with every
    node's conservation invariants holding at every pass end.  Entries
    with a pager run under the 13 MB-equivalent limit: without one the
    catalogue swaps nothing at ``tiny``, so shortages, churn and node
    failures would have no guest lines to disturb."""
    scenario = replace(scenario, scale="tiny", max_k=0)
    if scenario.pager != "none":
        scenario = paper_limited(scenario, 13.0)
    with invariants_checked():
        result = scenario.with_seed(seed).execute()
    oracle = apriori(prepare_workload("tiny", seed).db, SCALES["tiny"].minsup)
    assert len(result.passes) > 2
    assert result.large_itemsets == oracle.large_itemsets


# -- execution + cache -----------------------------------------------------


def test_run_scenario_caches_and_clear_cache_drops():
    clear_cache()
    before = cache_stats()
    r1 = run_scenario(TINY)
    r2 = run_scenario(TINY)
    assert r1 is r2
    stats = cache_stats()
    assert stats["hits"] == before["hits"] + 1
    assert stats["misses"] == before["misses"] + 1
    clear_cache()
    r3 = run_scenario(TINY)
    assert r3 is not r1
    assert r3.large_itemsets == r1.large_itemsets


def test_run_scenario_uncached():
    r1 = run_scenario(TINY)
    before = cache_stats()
    r2 = TINY.execute()
    assert r2 is not r1 and r2 == r1
    assert cache_stats() == before  # bypasses both tiers, counts nothing


def test_npa_scenario_matches_hpa_results():
    hpa = run_scenario(TINY)
    npa = run_scenario(Scenario(scale="tiny", driver="npa", max_k=2))
    assert hpa.large_itemsets == npa.large_itemsets


def test_cache_lru_eviction_and_stats():
    cache = ScenarioCache(maxsize=2)
    s1, s2, s3 = (Scenario(scale="tiny", max_k=k) for k in (0, 1, 2))
    assert cache.peek(s1) is None  # probing never counts a miss
    cache.put(s1, "a")
    cache.put(s2, "b")
    assert cache.peek(s1) == "a"  # hit refreshes recency
    cache.put(s3, "c")  # evicts s2, not s1
    assert cache.peek(s1) == "a"
    assert cache.peek(s2) is None  # s2 was evicted
    cache.record_miss()  # what executing after a failed lookup counts
    stats = cache.stats()
    assert stats == {"hits": 2, "misses": 1, "size": 2, "maxsize": 2}
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["hits"] == 2  # counters survive a clear


def test_cache_counters_reach_telemetry():
    from repro.obs import Telemetry, telemetry_session

    telemetry = Telemetry()
    with telemetry_session(telemetry):
        clear_cache()
        run_scenario(TINY)
        run_scenario(TINY)
    assert telemetry.registry.counter("scenario_cache_misses").value >= 1
    assert telemetry.registry.counter("scenario_cache_hits").value >= 1
