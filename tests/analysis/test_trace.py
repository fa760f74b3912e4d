"""Tests for event-rate queries (the instrumentation a run gets from
``enable_telemetry``)."""

import pytest

from repro.datagen import generate
from repro.mining.hpa import HPAConfig, HPARun
from repro.obs import Telemetry
from repro.sim import Environment


def test_rate_series_buckets():
    env = Environment()
    tel = Telemetry()
    tel.begin_run(env)

    def proc(env):
        for t in [0.1, 0.2, 1.5, 3.2, 3.3, 3.4]:
            yield env.timeout(t - env.now)
            tel.bus.emit("fault", 0)
            tel.bus.emit("swap-out", 0)

    env.process(proc(env))
    env.run()
    series = tel.rate_series("fault", bucket_s=1.0)
    assert series == [(0.0, 2), (1.0, 1), (2.0, 0), (3.0, 3)]


def test_rate_series_validation_and_empty():
    tel = Telemetry()
    with pytest.raises(ValueError):
        tel.rate_series("fault", bucket_s=0)
    assert tel.rate_series("fault", bucket_s=1.0) == []


def test_hpa_instrumentation_end_to_end():
    db = generate("T8.I3.D400", n_items=80, seed=3)
    run = HPARun(
        db,
        HPAConfig(
            minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
            pager="disk", memory_limit_bytes=6000,
        ),
    )
    tel = run.enable_telemetry()
    run.run()
    kinds = tel.counts_by_kind()
    assert kinds.get("swap-out", 0) > 0
    assert kinds.get("fault", 0) > 0
    assert kinds.get("phase", 0) >= 3
    # Trace fault count agrees with pager stats.
    total_faults = sum(run.pagers[a].stats.faults for a in run.app_ids)
    assert kinds["fault"] == total_faults


def test_fault_rate_concentrated_in_counting_phase():
    db = generate("T8.I3.D400", n_items=80, seed=3)
    run = HPARun(
        db,
        HPAConfig(
            minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
            pager="disk", memory_limit_bytes=6000,
        ),
    )
    tel = run.enable_telemetry()
    run.run()
    phases = {e.detail: e.time for e in tel.events_of_kind("phase")}
    candgen_done = phases["pass 2 candidates generated"]
    counting_done = phases["pass 2 counting done"]
    faults = tel.events_of_kind("fault")
    # Simulation-layer events carry typed fields, never prose.
    assert all(e.detail == "" and "line" in e.fields for e in faults)
    in_counting = [e for e in faults if candgen_done <= e.time < counting_done]
    # The overwhelming share of faults happens while counting.
    assert len(in_counting) > 0.7 * len(faults)

