"""Tests for the declarative sweep engine (spec, executor, resume)."""

import hashlib
import os
import pathlib
import re
import signal

import pytest

from repro.analysis.report import render_markdown
from repro.analysis.report.experiment_results import ExperimentResults
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
from repro.obs import Telemetry, merged_histogram, metrics_of, telemetry_session
from repro.runtime import (
    ResultStore,
    Scenario,
    cache_stats,
    clear_cache,
    result_store_session,
)
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
        shape="toy shape",
        grid=lambda scale, seed: {
            "a": Scenario(scale=scale, seed=seed, pager="remote",
                          n_memory_nodes=2, paper_mb=13.0),
            "b": Scenario(scale=scale, seed=seed, pager="remote",
                          n_memory_nodes=2, paper_mb=15.0),
            # Aliased cell: same semantics as "a" under another label.
            "a-again": Scenario(scale=scale, seed=seed, pager="remote",
                                n_memory_nodes=2, paper_mb=13.0),
        },
        report=lambda scale, results: (
            "toy",
            {k: r.pass_result(2).duration_s for k, r in results.items()},
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
    # Nothing was cached up front, so every address resolved via a
    # worker; the aliased cell shares "a"'s execution and is recorded
    # as cached, costing nothing of its own.
    assert [r.source for r in parallel.records] == ["worker", "worker", "cached"]
    assert {r.key: r.wall_s for r in parallel.records}["a-again"] == 0.0
    # Records keep grid order, not completion order.
    assert [r.key for r in parallel.records] == ["a", "b", "a-again"]


def _accounting(jobs):
    """What one cold sweep of the toy grid counts at ``jobs``."""
    clear_cache()
    before = cache_stats()
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        outcome = run_sweep_outcome(_toy_sweep(), "tiny", jobs=jobs)
    after = cache_stats()
    return {
        "cached": [r.source == "cached" for r in outcome.records],
        "n_cached": outcome.n_cached,
        "n_executed": outcome.n_executed,
        "memory_misses": after["misses"] - before["misses"],
        "memory_hits": after["hits"] - before["hits"],
        "cache_events": sorted(
            (e.fields["tier"], e.fields["outcome"])
            for e in telemetry.events_of_kind("cache-access")
        ),
    }


def test_serial_and_parallel_sweeps_count_alike():
    """One resolution path for every ``jobs``: each content address is
    probed once and executed once (one memory-tier miss each, also when
    a pool process ran it), and a repeated address is cached."""
    serial = _accounting(1)
    assert serial == _accounting(2)
    assert serial["cached"] == [False, False, True]
    assert (serial["memory_misses"], serial["memory_hits"]) == (2, 0)
    assert serial["cache_events"] == [("scenario", "miss")] * 2


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
    assert {r.source for r in recovered.records[:2]} <= {"worker", "executed"}
    assert recovered.records[2].source == "cached"
    clear_cache()
    fresh = run_sweep_outcome(sweep, "tiny", jobs=2)
    assert engine._pool(2) is not broken
    assert [r.source for r in fresh.records] == ["worker", "worker", "cached"]
    assert fresh.report.to_json() == serial


def test_followups_see_stage_one_results():
    seen = {}

    def followups(scale, cells, results):
        assert set(cells) == set(results)
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
        followups=lambda scale, cells, results: {
            "a": Scenario(scale=scale, paper_mb=12.0, pager="remote",
                          n_memory_nodes=2)
        }
    )
    with pytest.raises(HarnessError, match="collide"):
        run_sweep_outcome(sweep, "tiny")


def test_empty_grid_key_rejected():
    sweep = _toy_sweep(grid=lambda scale, seed: {"": Scenario(scale=scale)})
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
    # The worker's result, installed by the parent, reads back equal.
    for scenario in sweep.scenarios("tiny").values():
        assert ResultStore(tmp_path).get(scenario) == scenario.execute()


def test_sweep_events_reach_telemetry():
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        run_sweep_outcome(_toy_sweep(), "tiny")
    kinds = telemetry.counts_by_kind()
    assert kinds["sweep-start"] == 1
    assert kinds["sweep-run"] == 3
    assert kinds["sweep-done"] == 1
    runs = [
        e for e in metrics_of(telemetry.events)["counters"]
        if e["name"] == "sweep_runs"
    ]
    assert sum(e["value"] for e in runs) == 3
    assert {e["labels"]["source"] for e in runs} <= {"cached", "executed"}
    hist = merged_histogram("sweep_run_wall_s", telemetry.events)
    assert hist is not None and hist.count == 3


HOST_KINDS = {"sweep-start", "sweep-run", "sweep-done", "cache-access"}


def test_host_events_between_sweeps_carry_no_run():
    """A sweep after another one under the same session stamps its host
    events run -1 at time 0.0, not the previous sweep's last run and
    instant; every simulation event belongs to a run."""
    telemetry = Telemetry()
    with telemetry_session(telemetry):
        run_sweep_outcome(_toy_sweep(), "tiny")
        n_first = len(telemetry.events)
        run_sweep_outcome(_toy_sweep(), "tiny")
    second = telemetry.events[n_first:]
    assert {e.kind for e in second} == HOST_KINDS
    assert all((e.run, e.time) == (-1, 0.0) for e in second)
    assert all(
        (e.run == -1) == (e.kind in HOST_KINDS) for e in telemetry.events
    )


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

#: sha256 of every sweep's ``report.to_json()`` and ``str(report)`` (the
#: text ``repro-bench run`` prints) at the tiny scale's own seed:
#: default-seed bytes must not move.
_DEFAULT_SEED_DIGESTS = {
    "table2": (
        "26cdee6fcdbf362c2e8c9d3298042832c98a86facf59ecb9d10669c87e180b2f",
        "de9c557eb1c5010dd12e27012eb195da55c21cd506d201ac33c5b6745f8986ba",
    ),
    "table3": (
        "c7044a24b015708159057bf65a99f9d121d878a200b5463ca1bc20ce84bf7989",
        "756f2f443cc61ad1ad2d6bf9d5d24aed3fbfbfae83ab810b02c2f5e3d2a80805",
    ),
    "table4": (
        "bcb7b07ae94c428b4b62f4752cb3c7b09f6fc9739fe3117b6116ad3f3e420961",
        "e53ff67f50d5bbb74d5769b338d95d93ea23c603b3da2298622e7474fc412330",
    ),
    "fig3": (
        "6f17ebfd96d389abc397a1f03ffd18efde6f97d8960febf2e28334719d286449",
        "88163c521e43c362e8f64a27e73c257fdd5c494a0e5fe6f2a64b274bf020f249",
    ),
    "fig4": (
        "4be4233b2cd1027c37f549ba43a284848ebb9977cae86ad96a9ac796ba8c9623",
        "ece4e126026f188f8a3329051ce4d2f96d5cd2052576ec069d0cd090563ece9c",
    ),
    "fig5": (
        "c81dff90e77d2e914eb247622070150baadf4e3fdd1becd9f4987c4d4cb7ce5d",
        "37fbeeb72a154f1c9d6fdba4b202f855a1ccd06d5ecd5b1e16f0a355b64aeb1f",
    ),
    "disk": (
        "b0c18596e9c55a06e8e68850d6eb073aa6f7839a1a48e5b454fed49eeb610080",
        "2f01b620790a93633d7d215cf066e043730c7fdb179d8a02ddcc7a322049891b",
    ),
    "monitor": (
        "255016b8c06a38b96bcf829ad02fabab82456f602c92f031ae39dbe108f5987a",
        "0b2fbf9800eae202c0bca9dfc6e0575cac274b8db9ba362f15dd1259827fe48c",
    ),
    "policy": (
        "957a7602b18cc70edb2381b1bb3cc68599ceb6a0c65660f8a526c03cd2355fe4",
        "817057407699e1d5a491dd3cab5650b5bcfc84e7175ea96788ca90b26f73fa87",
    ),
    "churn": (
        "e5dbd01e5a5c6c5dcd4ea7a64dbe4ba8af8e0b1b367c3fb06a0919ac9eb729e6",
        "b532a750313267076587da3339505302cf945b54f9e20b8930ede4b1f0b3b8ec",
    ),
    "blocksize": (
        "3dde358b3cc5d7f6e01e72770015941c1e399f5bd19a03f0ce12027f8f8901ac",
        "066189cc622376dfce97d3e4067c49d19c83e30e42f4e20cc3cec0a2d3190b33",
    ),
    "eld": (
        "d5b0643f952f797c9eb118c5f07a2d5d1e6f67be974c136b1d6eafc9700a5b5e",
        "df5fa7874b6c36c5fdb6ec1fd1c61d18534c600badd1bbd847022272dcf40cd6",
    ),
    "loss": (
        "0a487ea0ca582bb33fb1f435c4c1fc05799d7d7a82833d0e3e6d0eab5c9239db",
        "b8c04c14b23565455330a8da689d5ba26a2b5c247616715db861124acd18ae58",
    ),
    "scaling": (
        "fd98576f839bc2ecf34485efffa3b15e65fc9e3723ba83234e19bc5ddcc70532",
        "30dc3bb550d73f64acf5f24d78f6d7eedde44bd715c92576705a45b85dbf33e2",
    ),
    "npa": (
        "c2f8da208ccfb41aecb63fc69254b6e6da8c0769c2ad372b374ee79fe382691d",
        "96b0ae1df1bab19957d05e17987f67c6be6ac26e1276a9dde671c7e46e87d1de",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _default_seed_report(sweep_reports, name):
    return sweep_reports("tiny").reports[name, claim_seeds("tiny")[0]]


@pytest.mark.parametrize("name", list(ALL_SWEEPS))
def test_default_seed_report_bytes_are_pinned(name, sweep_reports):
    report = _default_seed_report(sweep_reports, name)
    digests = (_sha256(report.to_json()), _sha256(str(report)))
    assert digests == _DEFAULT_SEED_DIGESTS[name]


@pytest.mark.parametrize("name", ["table2", "table3"])
def test_workload_tables_report_the_seed_asked_for(name, sweep_reports):
    default = _default_seed_report(sweep_reports, name)
    seeded = run_sweep_outcome(ALL_SWEEPS[name], "tiny", seed=7).report
    assert seeded.to_json() != default.to_json()


_REPORTED = ExperimentResults.ARTIFACTS + ExperimentResults.EXTRA_ARTIFACTS


def test_every_reported_artifact_declares_one_fold():
    folded = tuple(n for n, s in ALL_SWEEPS.items() if s.fold is not None)
    assert folded == _REPORTED


# -- each artifact declared once -------------------------------------------

_EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_every_sweep_heads_one_experiments_md_section():
    headed = re.findall(
        r"^#+ .* \(`(\w+)`\)$", _EXPERIMENTS_MD.read_text(), re.MULTILINE
    )
    assert sorted(headed) == sorted(ALL_SWEEPS)


def _printed_and_reported(sweep_reports):
    """``(name, repro-bench lines, report artifact, report.md)`` for
    every report artifact, from the session's tiny fill."""
    fill = sweep_reports("tiny")
    seeds = claim_seeds("tiny")
    with result_store_session(fill.store):
        arts = ExperimentResults("tiny", seeds).artifacts(list(_REPORTED))
    markdown = render_markdown("tiny", seeds, arts)
    return [
        (name, str(fill.reports[name, seeds[0]]).splitlines(), art, markdown)
        for name, art in arts.items()
    ]


def test_printed_and_reported_titles_are_the_sweeps(sweep_reports):
    for name, printed, _, markdown in _printed_and_reported(sweep_reports):
        sweep = ALL_SWEEPS[name]
        assert printed[0] == f"== {sweep.exp_id}: {sweep.title} =="
        heading = re.search(
            rf"^## (.*) \(`{name}`, {sweep.exp_id}\)$", markdown, re.MULTILINE
        )
        assert heading is not None and heading.group(1) == sweep.title


def test_printed_and_reported_shapes_are_the_sweeps(sweep_reports):
    for name, printed, art, _ in _printed_and_reported(sweep_reports):
        shape = ALL_SWEEPS[name].shape
        assert printed[-1] == f"[paper shape] {shape}"
        assert art.notes[0] == shape


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
    for a, b in ALL_SWEEPS[name].fold.contrasts:
        assert any(
            (c.group_a, c.group_b) == (a, b) for c in art.comparisons
        ), (a, b)


def test_only_render_resolves_and_reads_only_its_sweep(sweep_reports, monkeypatch):
    """``artifacts(["table3"])`` runs table3's sweep once per seed and
    no other; a later ``payload`` of it re-folds nothing and reads no
    store entry."""
    from dataclasses import asdict

    import repro.analysis.report.experiment_results as experiment_results

    fill = sweep_reports("tiny")
    seeds = claim_seeds("tiny")
    clear_cache()
    with result_store_session(fill.store) as store:
        results = ExperimentResults("tiny", seeds)
        art = results.artifacts(["table3"])["table3"]
        assert results.accounting()["sweeps"] == len(seeds)
        assert (store.hits, store.misses) == (len(seeds), 0)

        def unreachable(*args, **kwargs):
            raise AssertionError("payload re-folded an artifact")

        monkeypatch.setattr(experiment_results, "run_sweep_outcome", unreachable)
        monkeypatch.setattr(experiment_results, "aggregate_series", unreachable)
        payload = results.payload(["table3"])
        assert (store.hits, store.misses) == (len(seeds), 0)
    assert results.accounting()["sweeps"] == len(seeds)
    assert payload["artifacts"] == {"table3": asdict(art)}


@pytest.mark.parametrize("name", sorted(ALL_SWEEPS))
def test_seeded_grid_builds_each_cell_once(name, monkeypatch):
    """A seeded grid constructs every cell's ``Scenario`` once, at the
    seed, with the content address re-seeding the default grid gives."""
    unseeded = ALL_SWEEPS[name].scenarios("tiny")
    built = []
    post_init = Scenario.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Scenario, "__post_init__", counting)
    cells = ALL_SWEEPS[name].scenarios("tiny", 77)
    assert sorted(map(id, built)) == sorted({id(s) for s in cells.values()})
    monkeypatch.undo()
    assert all(s.seed == 77 for s in cells.values())
    assert {k: ResultStore.key_for(s) for k, s in cells.items()} == {
        k: ResultStore.key_for(s.with_seed(77)) for k, s in unseeded.items()
    }


def test_cell_backed_reports_render_warm_without_workload_code(
    sweep_reports, monkeypatch
):
    """Every sweep's report folds stored cells, so all 15 render from a
    warm store (the session's shared fill) with datagen, mining and
    prepare unreachable and ``prepare_workload``'s memo empty."""
    import repro.harness.experiments as experiments
    import repro.harness.scales as scales
    from repro.datagen.quest import QuestGenerator

    assert len(ALL_SWEEPS) == 15
    fill = sweep_reports("tiny")
    seed = scales.SCALES["tiny"].seed
    cold = {n: fill.reports[n, seed].to_json() for n in ALL_SWEEPS}
    clear_cache()
    scales.prepare_workload.cache_clear()

    def unreachable(*args, **kwargs):
        raise AssertionError("a warm render reached workload code")

    monkeypatch.setattr("repro.datagen.generate", unreachable)
    monkeypatch.setattr("repro.mining.apriori", unreachable)
    monkeypatch.setattr(QuestGenerator, "generate", unreachable)
    for module in (scales, experiments):
        for name in ("generate", "apriori", "prepare_workload"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    with result_store_session(fill.store):
        for n, sweep in ALL_SWEEPS.items():
            warm = run_sweep_outcome(sweep, "tiny")
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
