"""Tests for the persistent content-addressed result store."""

import json
import multiprocessing
import os
import zlib
from dataclasses import replace

import pytest

from repro.harness.cli import main
from repro.harness.hotpath import result_hash
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
from repro.runtime.store import STORE_FORMAT, StoredItemsets

TINY = Scenario(scale="tiny", pager="remote", n_memory_nodes=2, paper_mb=13.0)


@pytest.fixture(scope="module")
def tiny_result():
    return TINY.execute()


def test_codec_round_trip_is_exact():
    res = TINY.execute()
    back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
    # Exact equality, floats included — this is what makes parallel and
    # resumed sweeps byte-identical to serial ones.
    assert back == res
    assert back.pass_result(2).duration_s == res.pass_result(2).duration_s


def test_store_put_get_and_content_addressing(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get(TINY) is None
    res = TINY.execute()
    store.put(TINY, res)
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


def _assert_unusable_until_rewritten(store, capsys, result, bad: bytes):
    """``bad`` under a second scenario's address is as absent to every
    reader: a miss the next ``put`` heals, skipped by ``entry_stats``
    and ``repro-bench store``, and removed by ``gc``.  ``store`` holds
    ``TINY`` intact."""
    other = replace(TINY, paper_mb=26.0)
    path = store.path_for(other)

    path.write_bytes(bad)
    assert store.get(other) is None
    assert (store.hits, store.misses) == (0, 1)
    store.put(other, result)
    assert store.get(other) == result
    assert (store.hits, store.misses) == (1, 1)

    path.write_bytes(bad)
    assert store.read_payload(store.key_for(other)) is None
    healthy = [store.key_for(TINY)]
    assert [row["key"] for row in store.entry_stats()] == healthy
    assert main(["store", str(store.path)]) == 0
    listed = json.loads(capsys.readouterr().out)["entry_stats"]
    assert [row["key"] for row in listed] == healthy
    summary = store.gc(now=path.stat().st_mtime)
    assert (summary["entries_kept"], summary["entries_removed"]) == (1, 1)
    assert not path.exists()


@pytest.mark.parametrize("text", ["[]", "null", "1", '"x"'])
def test_non_object_entry_is_a_miss_healed_by_the_next_put(
    tmp_path, capsys, tiny_result, text,
):
    """Valid JSON that is not an object is as unusable as a torn file:
    every reader treats it as absent, and nothing crashes."""
    store = ResultStore(tmp_path)
    store.put(TINY, tiny_result)
    _assert_unusable_until_rewritten(store, capsys, tiny_result, text.encode())


def _flip_digit(entry: bytes, i: int, line: int) -> bytes:
    """The entry with the digit at ``i`` changed: the same length, and
    line ``line`` (1 the header, 2 the tail) still parses."""
    assert entry[i:i + 1].isdigit()
    flipped = entry[:i] + (b"1" if entry[i:i + 1] == b"0" else b"0") + entry[i + 1:]
    json.loads(flipped.split(b"\n")[line])
    return flipped


def _flip_last_count(entry: bytes) -> bytes:
    """The entry with its last itemset's count changed in one digit."""
    return _flip_digit(entry, len(entry) - 3, 2)  # "...,[[items],<count>]]"


def _flip_total_time(entry: bytes) -> bytes:
    """The entry with the last digit of the header's ``total_time_s``
    (the result's last key) flipped."""
    return _flip_digit(entry, entry.index(b"}", entry.index(b'"total_time_s"')) - 1, 1)


DAMAGE = {
    "truncated-tail": lambda entry: entry[:-7],
    "flipped-tail-digit": _flip_last_count,
    "flipped-header-digit": _flip_total_time,
    "header-without-tail": lambda entry: entry[:entry.rindex(b"\n") + 1],
    "no-newline": lambda entry: entry[:entry.rindex(b"\n")],
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_damaged_entry_is_a_miss_healed_by_the_next_put(
    tmp_path, capsys, tiny_result, damage,
):
    """The CRC line catches a torn entry and a digit flipped in the
    header or the tail, also one that still parses, without decoding
    the tail."""
    store = ResultStore(tmp_path)
    intact = store.put(TINY, tiny_result).read_bytes()
    _assert_unusable_until_rewritten(store, capsys, tiny_result, damage(intact))


def test_entries_are_canonical_compact_json_and_indented_ones_load(
    tmp_path, tiny_result,
):
    """``put`` writes the decimal CRC-32 of the rest, then a header line
    and an itemset tail, both sorted-key, whitespace-free JSON.  A
    format-6 entry (no CRC line, the tail's length and CRC in the
    header) and a format-5 one (one JSON object with the itemsets
    inline, compact or in the ``indent=2`` layout earlier writers used)
    still load as hits equal to the original."""
    store = ResultStore(tmp_path)
    path = store.put(TINY, tiny_result)
    check, head, tail = path.read_bytes().split(b"\n")
    assert check == str(zlib.crc32(head + b"\n" + tail)).encode()
    header = json.loads(head)
    assert head == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert header["format"] == STORE_FORMAT == 7
    assert header["scenario"] == TINY.to_dict()
    encoded = json.loads(json.dumps(result_to_dict(tiny_result)))
    itemsets = encoded.pop("large_itemsets")
    assert header["result"] == encoded
    assert tail == json.dumps(itemsets, separators=(",", ":")).encode()

    format_6 = {
        **header, "format": 6, "tail": {"bytes": len(tail), "crc32": zlib.crc32(tail)},
    }
    path.write_bytes(json.dumps(format_6).encode() + b"\n" + tail)
    assert store.get(TINY) == tiny_result
    payload = store.read_payload(store.key_for(TINY))
    assert payload["result"]["large_itemsets"] == itemsets
    old = {
        "format": 5, "scenario": TINY.to_dict(), "result": result_to_dict(tiny_result),
    }
    for layout in ({"separators": (",", ":")}, {"indent": 2}):
        path.write_text(json.dumps(old, sort_keys=True, **layout))
        stored = store.get(TINY)
        assert isinstance(stored.large_itemsets._tail, list)  # not re-encoded
        assert stored == tiny_result
        payload = store.read_payload(store.key_for(TINY))
        assert payload["result"]["large_itemsets"] == itemsets
    assert (store.hits, store.misses, store.writes) == (3, 0, 1)


def test_stored_itemsets_decode_on_first_access_and_equal_the_executed_dict(
    tmp_path, tiny_result,
):
    store = ResultStore(tmp_path)
    store.put(TINY, tiny_result)
    stored = store.get(TINY)
    itemsets = stored.large_itemsets
    assert isinstance(itemsets, StoredItemsets)
    assert stored.table2_rows() == tiny_result.table2_rows()
    assert itemsets._decoded is None  # the passes need no itemsets

    assert stored == tiny_result and tiny_result == stored
    assert itemsets._decoded is not None
    assert itemsets == tiny_result.large_itemsets
    assert tiny_result.large_itemsets == itemsets
    assert itemsets != {} and {} != itemsets
    assert store.get(TINY) == store.get(TINY)
    order = [tuple(items) for items, _ in result_to_dict(tiny_result)["large_itemsets"]]
    assert list(itemsets) == order and len(itemsets) == len(order)
    assert list(itemsets.items()) == [(i, tiny_result.large_itemsets[i]) for i in order]
    assert result_hash(stored) == result_hash(tiny_result)
    assert stored.summary() == tiny_result.summary()
    with pytest.raises(TypeError):
        itemsets[order[0]] = 0


def test_format_2_entry_with_kernel_field_is_a_clean_miss(tmp_path):
    """Format 2 stored a config copy with ``"kernel"`` in every result;
    results carry no config now, so such an entry must read as a miss,
    be overwritten by the next put, and go at gc."""
    store = ResultStore(tmp_path)
    res = TINY.execute()
    assert "config" not in result_to_dict(res)
    old = {**result_to_dict(res), "config": {"kernel": "vector"}}
    stale = json.dumps({"format": 2, "scenario": TINY.to_dict(), "result": old})
    path = store.path_for(TINY)

    path.write_text(stale)
    assert store.get(TINY) is None
    assert store.read_payload(store.key_for(TINY)) is None
    assert (store.hits, store.misses) == (0, 1)

    store.put(TINY, res)
    header = json.loads(path.read_bytes().split(b"\n")[1])
    assert header["format"] == STORE_FORMAT == 7
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
    # One description of the run: the scenario, never a config copy.
    assert payload["scenario"] == TINY.to_dict()
    assert "config" not in payload["result"]
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


def test_truncated_entry_is_rewritten_by_the_next_session(tmp_path):
    """A torn entry misses once: the re-execution rewrites it, so the
    session after that is a store hit again."""
    clear_cache()
    with result_store_session(tmp_path) as store:
        first = run_scenario(TINY)
    path = store.path_for(TINY)
    path.write_text(path.read_text()[:100])
    clear_cache()
    with result_store_session(tmp_path) as store:
        assert run_scenario(TINY) == first
        assert (store.hits, store.misses, store.writes) == (0, 1, 1)
    clear_cache()
    with result_store_session(tmp_path) as store:
        assert run_scenario(TINY) == first
        assert (store.hits, store.misses, store.writes) == (1, 0, 0)
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
