"""Tests for the repro-bench CLI."""

import argparse

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES


def test_list_flag(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "table2" in out


def test_list_scenarios_flag(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "named scenarios" in out
    assert "baseline" in out and "remote-update" in out
    assert " hpa " in out and " npa " in out
    # The placement/replacement/churn columns, with the dynamics
    # scenarios showing their non-default axes.
    assert "placement" in out and "repl" in out and "churn" in out
    churning = next(line for line in out.splitlines() if "churning" in line)
    assert "predictive" in churning and "sawtooth" in churning
    failure = next(line for line in out.splitlines() if "node-failure" in line)
    assert "fail" in failure


def test_no_args_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["run", "nonsense"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_runs_one_experiment(capsys):
    assert main(["run", "disk", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "S52" in out
    assert "completed in" in out


def test_scale_choices_validated():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "disk", "--scale", "gigantic"])


def _subcommands(parser):
    (commands,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return commands.choices


def test_flag_surface_is_pinned():
    # One entry point, one job per subcommand: modes are subcommands,
    # not flags, benchmarks/perf/run.py is the one way to measure, and a
    # new option has to edit this table.
    parser = build_parser()
    assert {s for a in parser._actions for s in a.option_strings} == {
        "-h", "--help",
    }
    surface = {
        name: {s for a in sub._actions for s in a.option_strings}
        - {"-h", "--help"}
        for name, sub in _subcommands(parser).items()
    }
    executing = {"--scale", "--jobs", "--store"}
    assert surface == {
        "run": executing | {"--seed", "--json", "--trace"},
        "list": set(),
        "store": set(),
        "gc": set(),
        "report": executing | {"--seeds", "--only", "--out"},
        "diff": executing | {"--seeds", "--only", "--current", "--json"},
        "trace": {"--histogram"},
    }


@pytest.mark.parametrize("parser, flag", [
    (build_parser, "--hotpath-json"),
    (build_parser, "--profile"),
    (build_parser, "--profile-top"),
    (build_parser, "--serve"),
    (build_parser, "--serve-host"),
    (build_parser, "--port"),
    (build_parser, "--race"),
    (build_parser, "--resume"),
    (build_parser, "--bench"),
    # The mode flags the subcommands replaced.
    (build_parser, "--list"),
    (build_parser, "--list-scenarios"),
    (build_parser, "--store-stats"),
    (build_parser, "--store-gc"),
    (build_parser, "--diff"),
])
def test_retired_flags_are_rejected(parser, flag):
    # No alias parses, at the top level or under a subcommand; the
    # sim-kernel and sweep-timing flags went the same way (the pinned
    # surface above has no room for them).
    for argv in ([], ["run", "all"], ["report"]):
        with pytest.raises(SystemExit) as exc:
            parser().parse_args(argv + [f"{flag}=1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", "fig4", "--current", "x.json"],
    ["run", "fig4", "--seeds", "3"],
    ["run", "fig4", "--histogram", "x"],
    ["report", "--current", "x.json"],
    ["report", "--trace", "t"],
    ["report", "--seed", "7"],  # a prefix of --seeds, not an abbreviation
    ["diff", "b.json", "--out", "o"],
    ["diff", "b.json", "--trace", "t"],
    ["list", "--scale", "tiny"],
    ["store", "d", "--store", "d"],
    ["gc", "d", "--jobs", "2"],
    ["trace", "t", "--scale", "tiny"],
    ["run"],
    ["diff"],
    ["trace"],
])
def test_options_belong_to_their_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig4", "--scale", "tiny", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_json_output(tmp_path, capsys):
    assert main(["run", "disk", "--scale", "tiny", "--json", str(tmp_path)]) == 0
    out = tmp_path / "disk.json"
    assert out.exists()
    import json

    payload = json.loads(out.read_text())
    assert payload["exp_id"] == "S52"
    assert "data" in payload


def test_trace_output_end_to_end(tmp_path, capsys):
    trace_dir = tmp_path / "trc"
    assert main(["run", "fig4", "--scale", "tiny", "--trace", str(trace_dir)]) == 0
    assert "trace written" in capsys.readouterr().out
    for artifact in ("manifest.json", "events.jsonl", "metrics.json", "trace.json"):
        assert (trace_dir / artifact).exists()
    import json

    manifest = json.loads((trace_dir / "manifest.json").read_text())
    assert manifest["experiments"] == ["fig4"]
    assert manifest["scale"] == "tiny"
    assert manifest["seed"] == SCALES["tiny"].seed
    assert manifest["n_runs"] > 0
    assert manifest["n_events"] > 0
    assert all(r["driver"] in ("hpa", "npa") for r in manifest["runs"])

    # The summarizer renders phase timings and the fault-latency histogram.
    assert main(["trace", str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "per-phase timings" in out
    assert "pagefault_latency_s" in out
    assert "faults" in out

    # A replicated run's manifest records the seed it actually ran with.
    seeded = tmp_path / "trc-seeded"
    assert main([
        "run", "disk", "--scale", "tiny", "--seed", "7", "--trace", str(seeded),
    ]) == 0
    assert json.loads((seeded / "manifest.json").read_text())["seed"] == 7


def test_traced_sweep_metrics_are_a_fold_of_its_events(
    tmp_path, capsys, monkeypatch
):
    """``metrics.json`` is the fold of ``events.jsonl``, host-side cache
    accesses included, and ``repro-bench trace`` needs only the event
    log."""
    import shutil

    from repro.harness.sweep import run_sweep_outcome
    from repro.obs import Telemetry, metrics_of, telemetry_session
    from repro.obs.export import read_events_jsonl, read_metrics_json
    from repro.runtime import clear_cache, result_store_session
    from tests.harness.test_sweep import _toy_sweep

    # A follow-up re-asks for the grid's "a" cell, so the scenario cache
    # hits once (the grid's own alias is recorded cached without a probe).
    monkeypatch.setitem(ALL_SWEEPS, "toy", _toy_sweep(
        followups=lambda scale, results: {"a-later": _toy_sweep().grid(scale)["a"]},
    ))
    trace_dir = tmp_path / "trc"
    assert main(["run", "toy", "--scale", "tiny", "--trace", str(trace_dir)]) == 0
    events = read_events_jsonl(trace_dir / "events.jsonl")
    metrics = read_metrics_json(trace_dir / "metrics.json")
    assert metrics_of(events) == metrics
    counters = {e["name"] for e in metrics["counters"]}
    assert {"scenario_cache_hits", "scenario_cache_misses"} <= counters
    capsys.readouterr()

    # Result-store accesses are host-side events as well; ``run``
    # refuses ``--trace`` with ``--store``, so a library session
    # records a store-backed sweep.
    clear_cache()
    telemetry = Telemetry()
    with telemetry_session(telemetry), result_store_session(tmp_path / "store"):
        run_sweep_outcome(ALL_SWEEPS["toy"], "tiny")
    counters = {e["name"] for e in metrics_of(telemetry.events)["counters"]}
    assert {"result_store_misses", "result_store_writes"} <= counters

    folded_only = tmp_path / "events-only"
    shutil.copytree(trace_dir, folded_only)
    (folded_only / "metrics.json").unlink()
    assert main(["trace", str(folded_only)]) == 0
    from_events = capsys.readouterr().out
    assert main(["trace", str(trace_dir)]) == 0
    assert capsys.readouterr().out.replace(str(trace_dir), str(folded_only)) \
        == from_events


def test_trace_cli_rejects_non_trace_dir(tmp_path, capsys):
    assert main(["trace", str(tmp_path)]) == 2
    assert "not a trace directory" in capsys.readouterr().err


def test_trace_cli_rejects_a_negative_counter_amount(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{}")
    (tmp_path / "events.jsonl").write_text(
        '{"t":0.1,"node":2,"kind":"fault","run":0,'
        '"fields":{"source":"disk","bytes":-4096}}\n'
    )
    assert main(["trace", str(tmp_path)]) == 2
    assert "counter increment must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["store", "gc"])
def test_store_modes_require_a_store(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["store", "gc"])
def test_store_modes_refuse_a_missing_store(command, tmp_path, capsys):
    # Inspecting a mistyped path must not create an empty store there.
    typo = tmp_path / "typo"
    assert main([command, str(typo)]) == 2
    assert "no result store" in capsys.readouterr().err
    assert not typo.exists()


def test_store_mode_prints_stats(tmp_path, capsys):
    import json

    assert main(["store", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["entries"] == 0
    assert report["stats"]["path"] == str(tmp_path)
    assert report["entry_stats"] == []


def test_store_gc_mode_prints_summary(tmp_path, capsys):
    import json

    assert main(["gc", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["entries_kept"] == 0
    assert summary["store"] == str(tmp_path)


def test_trace_refuses_a_process_pool(tmp_path, capsys):
    # Pool workers' events never reach this process's bus.
    trace_dir = tmp_path / "trc"
    assert main([
        "run", "fig4", "--scale", "tiny", "--jobs", "2",
        "--trace", str(trace_dir),
    ]) == 2
    assert "--jobs > 1" in capsys.readouterr().err
    assert not trace_dir.exists()


def test_trace_refuses_a_result_store(tmp_path, capsys):
    # A stored cell is read back, not run, so it would leave no events.
    trace_dir = tmp_path / "trc"
    assert main([
        "run", "fig4", "--scale", "tiny", "--store", str(tmp_path / "store"),
        "--trace", str(trace_dir),
    ]) == 2
    assert "--store" in capsys.readouterr().err
    assert not trace_dir.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig4", "--scale", "tiny", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
