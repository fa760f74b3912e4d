"""Scenario serialisation, the catalogue, and the bounded result cache."""

import json
from contextlib import contextmanager
from dataclasses import asdict, replace
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
from repro.runtime.store import ResultStore

TINY = Scenario(name="t", scale="tiny", max_k=2)


# -- serialisation ---------------------------------------------------------


def test_json_round_trip():
    s = Scenario(
        name="rt", description="x", driver="npa", scale="tiny",
        pager="remote-update", n_memory_nodes=2, paper_mb=13.0,
        shortages=((0.05, 0), (0.09, 1)),
    )
    assert Scenario.from_json(s.to_json()) == s
    stiffer = replace(s, minsup=0.05)
    assert Scenario.from_json(stiffer.to_json()) == stiffer
    assert stiffer.cache_key() != s.cache_key()


def test_shortages_normalised_from_json_lists():
    s = Scenario.from_dict({"shortages": [[0.1, 0], [0.2, 1]]})
    assert s.shortages == ((0.1, 0), (0.2, 1))


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown scenario field"):
        Scenario.from_dict({"pager": "disk", "warp_drive": True})


def test_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        Scenario(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        Scenario.from_dict({"seed": -1})


def test_rejects_unknown_driver():
    with pytest.raises(ConfigError, match="driver"):
        Scenario(driver="mpi")


@pytest.mark.parametrize("pager, block", [
    ("remote", 0), ("remote-update", 0), ("remote", -4096), ("disk", -4096),
])
def test_execute_rejects_a_block_smaller_than_one_update_record(pager, block):
    # Rejected when the config is built, never mid-simulation.
    scenario = Scenario(scale="tiny", paper_mb=13, pager=pager,
                        n_memory_nodes=0 if pager == "disk" else 4,
                        message_block_bytes=block)
    with pytest.raises(ConfigError, match="message_block_bytes"):
        scenario.execute()


def test_cache_key_ignores_cosmetic_fields():
    a = Scenario(name="a", description="one", scale="tiny")
    b = Scenario(name="b", description="two", scale="tiny")
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != Scenario(scale="tiny", pager="disk").cache_key()
    # The key is canonical JSON — stable and diffable.
    json.loads(a.cache_key())


#: Content addresses recorded before the key was memoised on the
#: scenario: a change to any of them orphans every existing store entry.
PINNED_ADDRESSES = {
    "baseline": "cf59969bc12990957863da04153dddf23c15b0811300af10f2611c9c3b0e1408",
    "disk-swap": "15b453e4b1f7a6f49d6fd67be6c10e033e749f2d5a39856454160a9f652ba11d",
    "remote-swap": "2ddfc386a9ae07941b508324053314c0e25ee89a1e2313789785ebb2da393bd5",
    "remote-update": "6b7c78570804247336ed4f31d6514c49d2708aee0fe12bee7f294b7dc99da537",
    "migration": "a28176665c6a8bef8b80169c3691387fd34670460dbe90700238908332899126",
    "npa-baseline": "b641ebf8c49b95a1244e329a31e576c862f73281d25a9fb85b94284d8a8ad498",
    "npa-remote-update": "d0928e6eac87551588434905e69434bd445f95b7a2f72d81ef57375ac822b924",
    "churning": "4686c145b45541da9885d72412d660bf1d843247f055f8b10eea087fa30e6652",
    "node-failure": "d31de9f5e2c45ce89669e8650edfb81381779253fc7ba6eca30fb239968fc4d3",
    "baseline@13.0/7": "6abb151e631d8859b11cf9b878a9540dd0efdcb110120d33c8f204c9ab7a7ebf",
    "disk-swap@13.0/7": "2cc37c1c874beb52e8ee0a42ec44e3d0464aae4c69bb97918ece231264b448cb",
    "remote-swap@13.0/7": "5dbd7e2f371c05ee4d855fd12e3a268bff8254d72d183862893d239bcb8b0c85",
    "remote-update@13.0/7": "38c4a058aa4bf35365489f2ebac371e319ff5b3ad4d7efe0f5de7d46997d2dfe",
    "migration@13.0/7": "f19dc6c54be69deeced1b01878c35f5fdb1ad0a568ed63d8d1d51a1b05d4a054",
    "npa-baseline@13.0/7": "bfab54195e7de052d98715aaeaa0489088d081d758d0a923057120e3b6bc80c7",
    "npa-remote-update@13.0/7": "0e2edee1b9cbadc1b40643a79dbf6b705c63b16a56c56535cf3c8fbbb69f8148",
    "churning@13.0/7": "f51d0ae94e0cb04202f8a10e37cdc2cf63cbbac15c6a2112378153a9f40a6db0",
    "node-failure@13.0/7": "660a2eff0a88b84fc0df83db6e57fd4f7a1837d1923ac812ac8a6aaf62b8e580",
    "both": "0ae646df23102198e2024f3d0223ffce4f37accbb0ae68c289ac2e960285ebad",
}

#: A scenario carrying both tuple-of-tuple fields.
SHORTAGES_AND_FAILURES = Scenario(
    scale="tiny", pager="remote-update", n_memory_nodes=4, paper_mb=13.0,
    shortages=((0.05, 0), (0.09, 1)), failures=((0.05, 0, 0.04),),
)


def _pinned_scenarios():
    yield from ((s.name, s) for s in list_scenarios())
    for s in list_scenarios():
        yield f"{s.name}@13.0/7", paper_limited(s, 13.0).with_seed(7)
    yield "both", SHORTAGES_AND_FAILURES


def test_content_addresses_are_pinned():
    got = {label: ResultStore.key_for(s) for label, s in _pinned_scenarios()}
    assert got == PINNED_ADDRESSES


def test_to_dict_is_the_asdict_form_and_round_trips_the_key():
    for _, s in _pinned_scenarios():
        assert s.to_dict() == {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(s).items()
        }
        back = Scenario.from_dict(s.to_dict())
        assert back == s
        assert back.cache_key() == s.cache_key()
        assert ResultStore.key_for(back) == ResultStore.key_for(s)


def test_stored_key_stays_out_of_fields_eq_and_repr():
    s = SHORTAGES_AND_FAILURES
    assert "_cache_key" not in s.to_dict()
    assert "_cache_key" not in repr(s)
    with pytest.raises(ConfigError, match="unknown scenario field"):
        Scenario.from_dict({**s.to_dict(), "_cache_key": s.cache_key()})
    # Equal scenarios hash alike; a replace() re-derives the key.
    named = replace(s, name="n", description="d")
    assert named != s and named.cache_key() == s.cache_key()
    assert hash(Scenario.from_dict(s.to_dict())) == hash(s)
    assert replace(s, seed=7).cache_key() == s.with_seed(7).cache_key() != s.cache_key()


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
    from repro.obs import Telemetry, metrics_of, telemetry_session

    telemetry = Telemetry()
    with telemetry_session(telemetry):
        clear_cache()
        run_scenario(TINY)
        run_scenario(TINY)
    counters = {
        e["name"]: e["value"] for e in metrics_of(telemetry.events)["counters"]
    }
    assert counters["scenario_cache_misses"] >= 1
    assert counters["scenario_cache_hits"] >= 1
