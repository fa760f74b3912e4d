"""Tests for the declarative sweep engine (spec, executor, resume)."""

import os
import signal

import pytest

from repro.analysis.report.experiment_results import _SPECS, ExperimentResults
from repro.analysis.report.samples import format_x
from repro.errors import HarnessError
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.sweep import (
    ExperimentReport,
    Sweep,
    engine,
    run_sweep_outcome,
    shutdown_pools,
)
from repro.obs import Telemetry, telemetry_session
from repro.runtime import Scenario, clear_cache, result_store_session
from tests.harness.conftest import claim_seeds


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_cache()
    yield
    clear_cache()
    shutdown_pools()


def _toy_sweep(**overrides):
    fields = dict(
        name="toy",
        exp_id="X1",
        title="toy sweep",
        grid=lambda scale: {
            "a": Scenario(scale=scale, pager="remote", n_memory_nodes=2,
                          paper_mb=13.0),
            "b": Scenario(scale=scale, pager="remote", n_memory_nodes=2,
                          paper_mb=15.0),
            # Aliased cell: same semantics as "a" under another label.
            "a-again": Scenario(scale=scale, pager="remote", n_memory_nodes=2,
                                paper_mb=13.0),
        },
        report=lambda scale, results, seed: ExperimentReport(
            exp_id="X1",
            title="toy",
            text="toy",
            data={k: r.pass_result(2).duration_s for k, r in results.items()},
        ),
    )
    fields.update(overrides)
    return Sweep(**fields)


def test_every_experiment_is_a_sweep():
    assert len(ALL_SWEEPS) == 15
    for name, sweep in ALL_SWEEPS.items():
        assert isinstance(sweep, Sweep)
        assert sweep.name == name
        assert callable(sweep.grid) and callable(sweep.report)
        assert sweep.doc.strip()  # EXPERIMENTS.md section body


def test_analytic_sweep_reports_without_runs():
    outcome = run_sweep_outcome(ALL_SWEEPS["disk"], "tiny")
    assert outcome.records == []
    report = outcome.report
    assert isinstance(report, ExperimentReport)
    assert report.exp_id == "S52"


def test_serial_outcome_accounting():
    sweep = _toy_sweep()
    first = run_sweep_outcome(sweep, "tiny")
    assert first.n_executed == 2       # "a-again" aliases "a" in the cache
    assert first.n_cached == 1
    second = run_sweep_outcome(sweep, "tiny")
    assert second.n_cached == 3
    assert second.report.to_json() == first.report.to_json()


def test_parallel_report_byte_identical_to_serial():
    sweep = _toy_sweep()
    serial = run_sweep_outcome(sweep, "tiny", jobs=1)
    clear_cache()
    parallel = run_sweep_outcome(sweep, "tiny", jobs=2)
    assert parallel.report.to_json() == serial.report.to_json()
    assert str(parallel.report) == str(serial.report)
    # Nothing was cached up front, so every cell resolved via a worker —
    # but the aliased cell was deduplicated before submission and shares
    # its execution (and therefore its worker wall-clock) with "a".
    assert all(r.source == "worker" for r in parallel.records)
    by_key = {r.key: r.wall_s for r in parallel.records}
    assert by_key["a"] == by_key["a-again"]
    # Records keep grid order, not completion order.
    assert [r.key for r in parallel.records] == ["a", "b", "a-again"]


def test_killed_pool_worker_sweep_still_completes():
    """A pool process SIGKILLed between sweeps breaks the pool: the next
    parallel sweep finishes every missing cell in-process, and the one
    after that gets a fresh pool — each report byte-identical to serial."""
    sweep = _toy_sweep()
    serial = run_sweep_outcome(sweep, "tiny").report.to_json()
    clear_cache()
    assert run_sweep_outcome(sweep, "tiny", jobs=2).report.to_json() == serial
    broken = engine._pool(2)
    os.kill(broken.submit(os.getpid).result(timeout=60), signal.SIGKILL)
    clear_cache()
    recovered = run_sweep_outcome(sweep, "tiny", jobs=2)
    assert recovered.report.to_json() == serial
    assert {r.source for r in recovered.records} <= {"worker", "executed"}
    clear_cache()
    fresh = run_sweep_outcome(sweep, "tiny", jobs=2)
    assert engine._pool(2) is not broken
    assert all(r.source == "worker" for r in fresh.records)
    assert fresh.report.to_json() == serial


def test_followups_see_stage_one_results():
    seen = {}

    def followups(scale, results):
        seen.update(results)
        return {
            "f": Scenario(scale=scale, pager="remote", n_memory_nodes=2,
                          paper_mb=14.0)
        }

    sweep = _toy_sweep(followups=followups)
    outcome = run_sweep_outcome(sweep, "tiny")
    assert set(seen) == {"a", "b", "a-again"}
    assert [r.key for r in outcome.records][-1] == "f"
    assert set(outcome.report.data) == {"a", "b", "a-again", "f"}


def test_followup_key_collision_rejected():
    sweep = _toy_sweep(
        followups=lambda scale, results: {
            "a": Scenario(scale=scale, paper_mb=12.0, pager="remote",
                          n_memory_nodes=2)
        }
    )
    with pytest.raises(HarnessError, match="collide"):
        run_sweep_outcome(sweep, "tiny")


def test_empty_grid_key_rejected():
    sweep = _toy_sweep(grid=lambda scale: {"": Scenario(scale=scale)})
    with pytest.raises(HarnessError, match="empty grid key"):
        run_sweep_outcome(sweep, "tiny")


def test_resume_runs_only_missing_scenarios(tmp_path):
    """A killed sweep, resumed against the same store, re-runs only the
    scenarios whose results were never persisted."""
    sweep = _toy_sweep()
    partial = Scenario(scale="tiny", pager="remote", n_memory_nodes=2,
                       paper_mb=13.0)
    with result_store_session(tmp_path) as store:
        # "First invocation" persisted only one scenario before dying.
        store.put(partial, partial.execute())
        assert store.stats()["writes"] == 1

    clear_cache()  # fresh process: cold memory tier
    with result_store_session(tmp_path) as store:
        outcome = run_sweep_outcome(sweep, "tiny")
        stats = store.stats()
        # Only the missing scenario hit the simulator...
        assert outcome.n_executed == 1
        assert stats["writes"] == 1
        # ...and the persisted one was served from the store.
        assert stats["hits"] == 1
        by_key = {r.key: r.source for r in outcome.records}
        assert by_key["a"] == "cached"
        assert by_key["b"] == "executed"


def test_parallel_resume_submits_only_missing(tmp_path):
    sweep = _toy_sweep()
    partial = Scenario(scale="tiny", pager="remote", n_memory_nodes=2,
                       paper_mb=13.0)
    with result_store_session(tmp_path) as store:
        store.put(partial, partial.execute())
    clear_cache()
    with result_store_session(tmp_path) as store:
        outcome = run_sweep_outcome(sweep, "tiny", jobs=2)
        assert sum(1 for r in outcome.records if r.source == "worker") == 1
        # The persisted cell was served from the store; the missing one
        # came back from the pool process and was written by the parent
        # (the only store writer), which never reads it back: one hit,
        # one write.
        assert store.stats()["hits"] == 1
        assert store.stats()["writes"] == 1
        assert len(store) == 2  # both entries durable on disk
    clear_cache()
    # And the parallel-resumed report matches a cold serial run.
    cold = run_sweep_outcome(sweep, "tiny")
    assert cold.report.to_json() == outcome.report.to_json()


def test_sweep_events_reach_telemetry():
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        run_sweep_outcome(_toy_sweep(), "tiny")
    kinds = telemetry.counts_by_kind()
    assert kinds["sweep-start"] == 1
    assert kinds["sweep-run"] == 3
    assert kinds["sweep-done"] == 1
    runs = telemetry.registry.collect("sweep_runs")
    assert sum(m.value for _, _, m in runs) == 3
    assert {labels["source"] for _, labels, _ in runs} <= {"cached", "executed"}
    hist = telemetry.registry.merged_histogram("sweep_run_wall_s")
    assert hist is not None and hist.count == 3


def test_harness_events_carry_typed_fields_not_detail():
    """``detail`` is the name of a span or phase and nothing else: the
    sweep events say what they carry in typed fields."""
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        run_sweep_outcome(_toy_sweep(), "tiny")
    by_kind = {}
    for event in telemetry.events:
        by_kind.setdefault(event.kind, event)
    assert {
        "sweep-start", "sweep-run", "sweep-done", "span", "phase",
    } <= set(by_kind)
    assert {e.kind for e in telemetry.events if e.detail} == {"span", "phase"}
    assert by_kind["sweep-start"].fields["scale"] == "tiny"
    assert by_kind["sweep-run"].fields["cell"] == "a"


# -- one walk from a sweep to its report -----------------------------------

#: sha256 of ``report.to_json()`` at the tiny scale's own seed:
#: default-seed bytes must not move.
_DEFAULT_SEED_JSON = {
    "table2": "26cdee6fcdbf362c2e8c9d3298042832c98a86facf59ecb9d10669c87e180b2f",
    "table3": "c7044a24b015708159057bf65a99f9d121d878a200b5463ca1bc20ce84bf7989",
}


@pytest.mark.parametrize("name", ["table2", "table3"])
def test_workload_tables_report_the_seed_asked_for(name):
    import hashlib

    default = run_sweep_outcome(ALL_SWEEPS[name], "tiny").report
    seeded = run_sweep_outcome(ALL_SWEEPS[name], "tiny", seed=7).report
    digest = hashlib.sha256(default.to_json().encode()).hexdigest()
    assert digest == _DEFAULT_SEED_JSON[name]
    assert seeded.to_json() != default.to_json()


_REPORTED = ExperimentResults.ARTIFACTS + ExperimentResults.EXTRA_ARTIFACTS


def test_every_reported_artifact_has_one_spec():
    assert tuple(_SPECS) == _REPORTED


@pytest.mark.parametrize("name", _REPORTED)
def test_report_folds_exactly_each_seeds_series(name, sweep_reports):
    """Every cell's samples are its seeds' ``series[group][x]`` — not a
    second mining or a re-derivation — and every declared contrast
    finds both of its groups."""
    fill = sweep_reports("tiny")
    seeds = claim_seeds("tiny")
    with result_store_session(fill.store):
        art = ExperimentResults("tiny", seeds).artifacts([name])[name]
    points = [
        {
            (group, format_x(x)): float(value)
            for group, curve in fill.reports[name, seed].data["series"].items()
            for x, value in curve.items()
        }
        for seed in seeds
    ]
    assert [(c.group, c.x) for c in art.cells] == list(points[0])
    for cell in art.cells:
        key = (cell.group, cell.x)
        assert cell.samples == tuple(p[key] for p in points if key in p)
    for a, b in _SPECS[name].contrasts:
        assert any(
            (c.group_a, c.group_b) == (a, b) for c in art.comparisons
        ), (a, b)


def test_cell_backed_reports_render_warm_without_workload_code(
    sweep_reports, monkeypatch
):
    """Every sweep whose report folds stored cells renders from a warm
    store (the session's shared fill) with datagen, mining and prepare
    unreachable."""
    import repro.harness.experiments as experiments
    import repro.harness.scales as scales

    cell_backed = [n for n in ALL_SWEEPS if n not in ("table2", "table3")]
    assert len(cell_backed) == 13
    fill = sweep_reports("tiny")
    seed = scales.SCALES["tiny"].seed
    cold = {n: fill.reports[n, seed].to_json() for n in cell_backed}
    clear_cache()

    def unreachable(*args, **kwargs):
        raise AssertionError("a warm render reached workload code")

    monkeypatch.setattr("repro.datagen.generate", unreachable)
    monkeypatch.setattr("repro.mining.apriori", unreachable)
    for module in (scales, experiments):
        for name in ("generate", "apriori", "prepare_workload"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    with result_store_session(fill.store):
        for n in cell_backed:
            warm = run_sweep_outcome(ALL_SWEEPS[n], "tiny")
            assert warm.n_executed == 0
            assert warm.report.to_json() == cold[n]


def test_cold_serial_sweep_probes_each_tier_once_per_cell(tmp_path):
    from repro.runtime import cache_stats

    before = cache_stats()
    with result_store_session(tmp_path) as store:
        outcomes = [
            run_sweep_outcome(ALL_SWEEPS[n], "tiny")
            for n in ("fig4", "fig5", "npa", "loss")
        ]
        executed = sum(o.n_executed for o in outcomes)
        assert sum(len(o.records) for o in outcomes) == 37
        # One store probe and one write per executed cell; aliased
        # cells never reach the store.
        assert store.misses == store.writes == executed == 28
        assert store.hits == 0
    after = cache_stats()
    assert after["hits"] - before["hits"] == 9
    assert after["misses"] - before["misses"] == 28
