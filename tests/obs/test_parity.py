"""HPA/NPA telemetry parity and fallback-pager wiring.

Both drivers and the whole pager chain — disk-fallback pagers chained
behind remote ones included — report through the one shared bus.
"""


from repro.datagen import generate
from repro.mining.hpa import HPAConfig, HPARun
from repro.mining.npa import NPAConfig, NPARun
from repro.obs import Telemetry

DB = generate("T8.I3.D400", n_items=80, seed=3)


def _chain_faults(run):
    total = 0
    for pager in run.pagers.values():
        while pager is not None:
            total += pager.stats.faults
            pager = getattr(pager, "fallback", None)
    return total


def test_hpa_and_npa_share_one_bus():
    tel = Telemetry()
    runs = {}
    for cls, cfg_cls in ((HPARun, HPAConfig), (NPARun, NPAConfig)):
        run = cls(
            DB,
            cfg_cls(
                minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
                pager="remote", n_memory_nodes=1, memory_limit_bytes=6000,
            ),
        )
        run.enable_telemetry(tel)
        run.run()
        runs[run.driver_name] = run

    # Both drivers emitted swap traffic and phase marks into one stream.
    by_run = {}
    for ev in tel.events:
        by_run.setdefault(ev.run, set()).add(ev.kind)
    assert len(by_run) == 2
    for kinds in by_run.values():
        assert "fault" in kinds
        assert "swap-out" in kinds
        assert "phase" in kinds
        assert "span" in kinds
        assert "monitor-broadcast" in kinds
    # Event counts agree with the pager counters, per driver.
    fault_events = tel.events_of_kind("fault")
    for run_id, run in enumerate(runs.values()):
        n = sum(1 for ev in fault_events if ev.run == run_id)
        assert n == _chain_faults(run)
    # Manifest entries carry both drivers' completion facts.
    assert [r["driver"] for r in tel.runs] == ["hpa", "npa"]
    for entry in tel.runs:
        assert entry["faults"] > 0
        assert entry["total_time_s"] > 0


def test_npa_instrumentation_matches_hpa_surface():
    run = NPARun(
        DB,
        NPAConfig(
            minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
            pager="disk", memory_limit_bytes=6000,
        ),
    )
    tel = run.enable_telemetry(sample_interval_s=0.05)
    run.run()
    kinds = tel.counts_by_kind()
    assert kinds.get("fault", 0) > 0
    assert kinds.get("swap-out", 0) > 0
    assert kinds.get("phase", 0) >= 3
    assert kinds["fault"] == _chain_faults(run)
    phases = {e.detail for e in tel.events_of_kind("phase")}
    assert "pass 2 start" in phases
    assert "pass 2 counting done" in phases
    assert run.sampler is not None and len(run.sampler.samples) >= 2


def test_disk_fallback_pager_is_wired():
    run = HPARun(
        DB,
        HPAConfig(
            minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
            pager="remote", n_memory_nodes=1, memory_limit_bytes=6000,
            disk_fallback=True,
        ),
    )
    tel = run.enable_telemetry()
    for pager in run.pagers.values():
        assert pager.bus is tel.bus
        assert pager.fallback is not None
        assert pager.fallback.bus is tel.bus
        assert pager.placement.bus is tel.bus
    assert run.cluster.network.bus is tel.bus
    run.run()
    # Fault events cover the full chain, fallback included.
    assert len(tel.events_of_kind("fault")) == _chain_faults(run)


def test_ambient_session_reaches_driver_runs():
    from repro.obs import telemetry_session

    tel = Telemetry()
    with telemetry_session(tel):
        run = HPARun(
            DB,
            HPAConfig(
                minsup=0.02, n_app_nodes=2, total_lines=256, max_k=2,
                pager="disk", memory_limit_bytes=6000,
            ),
        )
        run.run()
    assert run.telemetry is tel
    assert len(tel.events_of_kind("fault")) > 0
    assert tel.runs and tel.runs[0]["driver"] == "hpa"
