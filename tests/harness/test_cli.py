"""Tests for the repro-bench CLI."""

import pytest

from repro.analysis.report.cli import build_parser as build_report_parser
from repro.harness.cli import build_parser, main
from repro.harness.scales import SCALES


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "table2" in out


def test_list_scenarios_flag(capsys):
    assert main(["--list-scenarios"]) == 0
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
    assert main(["nonsense"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_runs_one_experiment(capsys):
    assert main(["disk", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "S52" in out
    assert "completed in" in out


def test_scale_choices_validated():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["disk", "--scale", "gigantic"])


def test_flag_surface_is_pinned():
    # benchmarks/perf/run.py is the one way to measure: the bench,
    # profile, race and HTTP serve mode flags are gone, and a new flag
    # has to edit this set.
    flags = {s for a in build_parser()._actions for s in a.option_strings}
    assert flags - {"-h", "--help"} == {
        "--scale", "--list", "--list-scenarios", "--json",
        "--trace", "--jobs", "--store", "--resume", "--seed",
        "--store-stats", "--store-gc",
    }


@pytest.mark.parametrize("parser, flag", [
    (build_parser, "--hotpath-json"),
    (build_parser, "--profile"),
    (build_parser, "--profile-top"),
    (build_parser, "--serve"),
    (build_parser, "--serve-host"),
    (build_parser, "--port"),
    (build_parser, "--race"),
    (build_report_parser, "--bench"),
])
def test_retired_flags_are_rejected(parser, flag):
    # No alias parses; the sim-kernel and sweep-timing flags went the
    # same way (the pinned surface above has no room for them).
    with pytest.raises(SystemExit) as exc:
        parser().parse_args([f"{flag}=1"])
    assert exc.value.code == 2


def test_json_output(tmp_path, capsys):
    assert main(["disk", "--scale", "tiny", "--json", str(tmp_path)]) == 0
    out = tmp_path / "disk.json"
    assert out.exists()
    import json

    payload = json.loads(out.read_text())
    assert payload["exp_id"] == "S52"
    assert "data" in payload


def test_trace_output_end_to_end(tmp_path, capsys):
    trace_dir = tmp_path / "trc"
    assert main(["fig4", "--scale", "tiny", "--trace", str(trace_dir)]) == 0
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
    from repro.obs.cli import main as trace_main

    assert trace_main([str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "per-phase timings" in out
    assert "pagefault_latency_s" in out
    assert "faults" in out

    # A replicated run's manifest records the seed it actually ran with.
    seeded = tmp_path / "trc-seeded"
    assert main(["disk", "--scale", "tiny", "--seed", "7", "--trace", str(seeded)]) == 0
    assert json.loads((seeded / "manifest.json").read_text())["seed"] == 7


def test_trace_cli_rejects_non_trace_dir(tmp_path, capsys):
    from repro.obs.cli import main as trace_main

    assert trace_main([str(tmp_path)]) == 2
    assert "not a trace directory" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--store-gc"])
def test_store_modes_require_a_store(flag, capsys):
    assert main([flag]) == 2
    assert "needs a store" in capsys.readouterr().err


def test_store_gc_mode_prints_summary(tmp_path, capsys):
    import json

    assert main(["--store-gc", "--store", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["entries_kept"] == 0
    assert summary["store"] == str(tmp_path)
