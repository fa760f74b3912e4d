"""The telemetry event stream of four tiny runs, pinned by digest.

Every emit site on the paging path reads the run's bus and returns
early when it is ``None``; a guard that drops, reorders or reshapes one
event still leaves every result hash equal, so the ``events.jsonl``
records themselves are pinned.  The host-clock ``wall_s`` field is the
one value a run does not determine and is dropped before hashing.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.datagen import generate
from repro.harness.hotpath import result_hash
from repro.mining.hpa import HPAConfig, HPARun
from repro.mining.npa import NPAConfig, NPARun
from repro.obs import Telemetry
from repro.obs.export import write_events_jsonl

DB = generate("T8.I3.D400", n_items=80, seed=3)

#: Simple swapping just under the busiest node's footprint: ~100
#: faults and swap-outs with their placements and make-room passes.
REMOTE_SWAP = HPAConfig(
    minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
    pager="remote", n_memory_nodes=2, memory_limit_bytes=35_000,
)

#: Remote update with memory node 0 failing mid-pass 2: a shortage
#: broadcast, migrations off the failed node and its recovery.
REMOTE_UPDATE_SHORTAGE = HPAConfig(
    minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
    pager="remote-update", n_memory_nodes=2, memory_limit_bytes=6000,
    failures=((0.1, 0, 0.05),),
)

#: NPA under simple swapping: every node inserts, counts and peeks the
#: whole candidate table, then the ``npa-reduce`` all-reduce.
NPA_REMOTE_SWAP = NPAConfig(
    minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
    pager="remote", n_memory_nodes=2, memory_limit_bytes=65_000,
)

#: HPA-ELD under simple swapping: pinned duplicated candidates and the
#: ``eldgather`` / ``eldlarge`` all-reduce of their partial counts.
ELD_REMOTE_SWAP = HPAConfig(
    minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
    pager="remote", n_memory_nodes=2, memory_limit_bytes=35_000,
    eld_fraction=0.1,
)

#: ``(number of events, sha256 of their records)`` per configuration;
#: the records keep their field order, so a reordered field fails too.
PINNED = {
    "remote-swap": (
        848, "eed94c3762a7f80c97ad41a59ca30f66e0d5bb5f73a7598aefa5f919f61de970"
    ),
    "remote-update-shortage": (
        1865, "c8c278dc649a4310140bb12357df31f7a36d9da4ceed62f95c9eed74305721e6"
    ),
    "npa-remote-swap": (
        8120, "63d51c31df2f2a8a9131975468b7e85a5effe1e53aea43e2b54f3c5d09bd0db1"
    ),
    "eld-remote-swap": (
        8023, "23c353aa85509042ab06d6968a9e0da73db800e473d4bd57c72c3306e49ca694"
    ),
}

#: ``name -> (driver, config)``.
CONFIGS = {
    "remote-swap": (HPARun, REMOTE_SWAP),
    "remote-update-shortage": (HPARun, REMOTE_UPDATE_SHORTAGE),
    "npa-remote-swap": (NPARun, NPA_REMOTE_SWAP),
    "eld-remote-swap": (HPARun, ELD_REMOTE_SWAP),
}


@functools.cache
def _traced(name: str) -> "tuple[Telemetry, str]":
    driver, config = CONFIGS[name]
    run = driver(DB, config)
    tel = run.enable_telemetry(Telemetry())
    return tel, result_hash(run.run())


def _digest(tel: Telemetry, tmp_path) -> "tuple[int, str]":
    path = write_events_jsonl(tel.events, tmp_path / "events.jsonl")
    sha = hashlib.sha256()
    n = 0
    for n, line in enumerate(path.read_text().splitlines(), 1):
        record = json.loads(line)
        record.get("fields", {}).pop("wall_s", None)
        sha.update(json.dumps(record).encode() + b"\n")
    return n, sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_event_stream_is_pinned(name, tmp_path):
    tel, _ = _traced(name)
    assert _digest(tel, tmp_path) == PINNED[name]


def test_the_runs_reach_the_paths_they_pin():
    kinds = {name: {ev.kind for ev in _traced(name)[0].events} for name in CONFIGS}
    paging = {"fault", "swap-out", "swap-cost", "placement", "make-room"}
    for name in ("remote-swap", "npa-remote-swap", "eld-remote-swap"):
        assert paging <= kinds[name]
    update = kinds["remote-update-shortage"]
    assert {"shortage", "shortage-seen", "migration", "node-recover"} <= update
    channels = {
        name: {ev.fields.get("channel") for ev in _traced(name)[0].events}
        for name in ("npa-remote-swap", "eld-remote-swap")
    }
    assert {"npa-reduce", "npa-large"} <= channels["npa-remote-swap"]
    assert {"eldgather", "eldlarge"} <= channels["eld-remote-swap"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_telemetry_does_not_change_the_result(name):
    driver, config = CONFIGS[name]
    lean = driver(DB, config).run()
    assert result_hash(lean) == _traced(name)[1]
