"""Tests for the persistent content-addressed result store."""

import json
import multiprocessing
import os

from repro.runtime import (
    ResultStore,
    Scenario,
    clear_cache,
    current_result_store,
    result_from_dict,
    result_store_session,
    result_to_dict,
    run_scenario,
)
from repro.runtime.store import STORE_FORMAT

TINY = Scenario(scale="tiny", pager="remote", n_memory_nodes=2, paper_mb=13.0)


def test_codec_round_trip_is_exact():
    res = TINY.execute()
    back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
    # Exact equality, floats included — this is what makes parallel and
    # resumed sweeps byte-identical to serial ones.
    assert back == res
    assert back.pass_result(2).duration_s == res.pass_result(2).duration_s
    assert type(back.config) is type(res.config)


def test_store_put_get_and_content_addressing(tmp_path):
    store = ResultStore(tmp_path)
    assert TINY not in store
    res = TINY.execute()
    store.put(TINY, res)
    assert TINY in store
    assert len(store) == 1
    assert store.get(TINY) == res
    # The address depends only on the semantic fields, not the name.
    named = Scenario(
        name="x", description="y", scale="tiny", pager="remote",
        n_memory_nodes=2, paper_mb=13.0,
    )
    assert store.key_for(named) == store.key_for(TINY)
    assert store.get(named) == res


def test_store_counts_hits_misses_writes(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get(TINY) is None
    res = TINY.execute()
    store.put(TINY, res)
    assert store.get(TINY) is not None
    stats = store.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["writes"] == 1
    assert stats["entries"] == 1


def test_corrupt_and_mismatched_entries_are_misses(tmp_path):
    store = ResultStore(tmp_path)
    res = TINY.execute()
    store.put(TINY, res)
    path = store.path_for(TINY)
    path.write_text("{not json")
    assert store.get(TINY) is None
    payload = {
        "format": STORE_FORMAT + 1,
        "scenario": TINY.to_dict(),
        "result": result_to_dict(res),
    }
    path.write_text(json.dumps(payload))
    assert store.get(TINY) is None


def test_format_2_entry_with_kernel_field_is_a_clean_miss(tmp_path):
    """Format 2 stored ``"kernel"`` in the config; the field is gone, so
    such an entry must read as a miss (not leak ``RunConfig``'s
    ``TypeError``), be overwritten by the next put, and go at gc."""
    store = ResultStore(tmp_path)
    res = TINY.execute()
    assert "kernel" not in result_to_dict(res)["config"]
    old = result_to_dict(res)
    old["config"]["kernel"] = "vector"
    stale = json.dumps({"format": 2, "scenario": TINY.to_dict(), "result": old})
    path = store.path_for(TINY)

    path.write_text(stale)
    assert store.get(TINY) is None
    assert store.read_payload(store.key_for(TINY)) is None
    assert (store.hits, store.misses) == (0, 1)
    # Even relabelled as the current format the dropped field is a miss.
    path.write_text(stale.replace('"format": 2', f'"format": {STORE_FORMAT}'))
    assert store.get(TINY) is None

    path.write_text(stale)
    store.put(TINY, res)
    assert json.loads(path.read_text())["format"] == STORE_FORMAT == 4
    assert store.get(TINY) == res

    path.write_text(stale)
    summary = store.gc(now=path.stat().st_mtime)
    assert summary["entries_removed"] == 1 and not path.exists()


def test_store_clear(tmp_path):
    store = ResultStore(tmp_path)
    store.put(TINY, TINY.execute())
    assert len(store) == 1
    store.clear()
    assert len(store) == 0


def test_result_store_session_scoping(tmp_path):
    assert current_result_store() is None
    with result_store_session(tmp_path) as store:
        assert current_result_store() is store
        with result_store_session(None):
            # None inherits the ambient store rather than clearing it.
            assert current_result_store() is store
    assert current_result_store() is None


def _race_put(path, barrier):
    """Child process body: execute TINY, sync on the barrier, put."""
    store = ResultStore(path)
    result = TINY.execute()
    barrier.wait()
    store.put(TINY, result)


def test_concurrent_puts_on_same_key_converge(tmp_path):
    """Two processes racing ``put()`` on the same content address must
    converge to exactly one valid entry — the atomic temp-file+rename
    protocol makes duplicated worker executions idempotent."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_race_put, args=(str(tmp_path), barrier))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    store = ResultStore(tmp_path)
    assert len(store) == 1
    assert store.get(TINY) == TINY.execute()
    # Neither writer leaked a partial temp file.
    assert list(tmp_path.glob("*.tmp-*")) == []


def test_gc_drops_old_tmp_and_foreign_entries(tmp_path):
    store = ResultStore(tmp_path)
    store.put(TINY, TINY.execute())
    old_tmp = tmp_path / "deadbeef.tmp-123"
    old_tmp.write_text("partial write from a long-dead worker")
    young_tmp = tmp_path / "cafef00d.tmp-456"
    young_tmp.write_text("partial write from a live worker")
    now = old_tmp.stat().st_mtime + 7200.0
    os.utime(young_tmp, (now, now))  # younger than tmp_age_s at gc time
    (tmp_path / ("0" * 64 + ".json")).write_text(
        json.dumps({"format": STORE_FORMAT + 1})
    )
    (tmp_path / ("1" * 64 + ".json")).write_text("{not json")
    summary = store.gc(now, tmp_age_s=3600.0)
    assert summary == {
        "entries_kept": 1, "entries_removed": 2, "tmp_removed": 1,
    }
    assert not old_tmp.exists()
    assert young_tmp.exists()  # may belong to a writer mid-put
    assert store.get(TINY) is not None  # live entries survive gc


def test_read_payload_and_keys(tmp_path):
    store = ResultStore(tmp_path)
    store.put(TINY, TINY.execute())
    key = store.key_for(TINY)
    assert store.keys() == [key]
    payload = store.read_payload(key)
    assert payload is not None
    assert payload["format"] == STORE_FORMAT
    assert result_from_dict(payload["result"]) == TINY.execute()
    assert store.read_payload("0" * 64) is None


def test_run_scenario_populates_and_reuses_the_store(tmp_path):
    clear_cache()
    with result_store_session(tmp_path) as store:
        first = run_scenario(TINY)
        assert store.stats()["writes"] == 1
    # New process simulation: cold memory cache, same store directory.
    clear_cache()
    with result_store_session(tmp_path) as store2:
        again = run_scenario(TINY)
        assert again == first
        stats = store2.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["writes"] == 0  # nothing re-executed, nothing rewritten
    clear_cache()


def test_per_node_candidates_are_python_ints_and_store_round_trips(tmp_path):
    """``per_node_candidates`` comes out of a ``np.bincount``; a NumPy
    integer leaking into a result breaks ``json.dumps`` in ``put``."""
    store = ResultStore(tmp_path)
    for driver in ("hpa", "npa"):
        scenario = Scenario(scale="tiny", driver=driver)
        res = scenario.execute()
        assert len(res.passes) >= 2
        for p in res.passes:
            assert all(type(n) is int for n in p.per_node_candidates), (driver, p.k)
        store.put(scenario, res)
        assert store.get(scenario) == res
    assert len(store) == 2
