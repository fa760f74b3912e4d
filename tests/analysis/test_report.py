"""The statistical report service: aggregation, facade, rendering, gate."""

import copy
import json
from dataclasses import asdict

import pytest

from repro.analysis.report import (
    EXIT_DRIFT,
    EXIT_PASS,
    EXIT_REGRESSION,
    ArtifactStats,
    CellStats,
    DiffPolicy,
    ExperimentResults,
    compare_payloads,
    render_html,
    render_markdown,
    summarize,
)
from repro.analysis.report.experiment_results import default_seeds
from repro.analysis.report.samples import (
    aggregate_series,
    compare_groups,
    format_x,
)
from repro.errors import HarnessError


def _cell(group, x, samples):
    samples = tuple(float(v) for v in samples)
    return CellStats(
        group=group, x=format_x(x), samples=samples,
        summary=summarize(samples),
    )


def _artifact(cells, **overrides):
    kwargs = dict(
        artifact="fig4", exp_id="fig4", title="Pager comparison",
        kind="figure", x_label="limit [MB]", metric="pass-2 time",
        unit="s", cells=cells, comparisons=[], notes=[],
    )
    kwargs.update(overrides)
    return ArtifactStats(**kwargs)


def _payload(artifacts, scale="tiny", seeds=(42, 43)):
    return {
        "format": 1,
        "scale": scale,
        "seeds": list(seeds),
        "artifacts": {a.artifact: asdict(a) for a in artifacts},
    }


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def test_format_x_canonicalizes_numbers():
    assert format_x(12) == "12"
    assert format_x(12.0) == "12"
    assert format_x(12.5) == "12.5"
    assert format_x("no limit") == "no limit"
    assert format_x(True) == "True"


def test_aggregate_series_keeps_declaration_order():
    per_seed = [
        {"disk": {16: 4.0, 12: 6.0}, "remote": {16: 2.0, 12: 3.0}},
        {"disk": {16: 4.2, 12: 6.2}, "remote": {16: 2.1, 12: 3.1}},
    ]
    cells = aggregate_series(per_seed)
    assert [(c.group, c.x) for c in cells] == [
        ("disk", "16"), ("disk", "12"), ("remote", "16"), ("remote", "12"),
    ]
    assert cells[0].samples == (4.0, 4.2)
    assert cells[0].summary.n == 2


def test_aggregate_series_tolerates_partial_seeds():
    per_seed = [
        {"disk": {16: 4.0, 12: 6.0}},
        {"disk": {16: 4.2}},  # 12 missing from the second replication
    ]
    cells = aggregate_series(per_seed)
    by_x = {c.x: c for c in cells}
    assert by_x["16"].samples == (4.0, 4.2)
    assert by_x["12"].samples == (6.0,)
    with pytest.raises(ValueError):
        aggregate_series([])


def test_compare_groups_pairs_shared_xs():
    cells = [
        _cell("disk", 16, [4.0, 4.1, 4.2]),
        _cell("disk", 12, [6.0, 6.1, 6.2]),
        _cell("remote", 16, [2.0, 2.1, 2.2]),
        # remote @ 12 missing: no comparison for that x.
    ]
    comps = compare_groups(cells, "disk", "remote")
    assert [(c.x, c.group_a, c.group_b) for c in comps] == [
        ("16", "disk", "remote")
    ]
    comp = comps[0]
    assert comp.ratio == pytest.approx(4.1 / 2.1)
    assert 0.0 < comp.p_mann_whitney <= 1.0
    assert 0.0 < comp.p_permutation <= 1.0


def test_artifact_stats_roundtrip_and_dedup():
    art = _artifact([
        _cell("disk", 16, [4.0, 4.2]),
        _cell("disk", 12, [6.0, 6.2]),
        _cell("remote", 16, [2.0, 2.1]),
    ])
    art.comparisons = compare_groups(art.cells, "disk", "remote")
    art.notes = ["a note"]
    assert art.groups() == ["disk", "remote"]
    assert art.xs() == ["16", "12"]
    assert art.cell("disk", "12").samples == (6.0, 6.2)
    assert art.cell("disk", "8") is None
    # The payload form: every field, through JSON as the writers dump it.
    form = json.loads(json.dumps(asdict(art), sort_keys=True))
    assert form["cells"][1]["samples"] == [6.0, 6.2]
    assert form["comparisons"][0]["group_b"] == "remote"
    assert form["notes"] == ["a note"]


# ---------------------------------------------------------------------------
# ExperimentResults facade
# ---------------------------------------------------------------------------

def test_default_seeds_start_at_the_scale_seed():
    from repro.harness.scales import SCALES

    base = SCALES["tiny"].seed
    assert default_seeds("tiny", 3) == (base, base + 1, base + 2)


def test_experiment_results_payload_is_deterministic():
    seeds = default_seeds("tiny", 2)
    results = ExperimentResults(scale="tiny", seeds=seeds)
    payload = results.payload(only=["policy"])
    assert payload["format"] == 1
    assert payload["scale"] == "tiny"
    assert payload["seeds"] == list(seeds)
    art = payload["artifacts"]["policy"]
    assert all(
        cell["summary"]["n"] == 2 for cell in art["cells"]
    )
    again = ExperimentResults(scale="tiny", seeds=seeds)
    assert again.payload(only=["policy"]) == payload


def test_experiment_results_rejects_unknown_artifact():
    results = ExperimentResults(scale="tiny", seeds=(1, 2))
    with pytest.raises(HarnessError):
        results.artifacts(only=["nope"])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _small_artifacts():
    art = _artifact([
        _cell("disk swapping", 16, [4.0, 4.1, 4.2]),
        _cell("remote update", 16, [2.0, 2.1, 2.2]),
    ])
    art.comparisons = compare_groups(
        art.cells, "disk swapping", "remote update"
    )
    table = _artifact(
        [_cell("candidates", "pass 2", [900, 900, 900])],
        artifact="table2", exp_id="table2", title="Itemset counts",
        kind="table", x_label="pass", metric="count", unit="",
    )
    return {"fig4": art, "table2": table}


def test_render_markdown_structure_and_determinism():
    arts = _small_artifacts()
    md = render_markdown("tiny", (42, 43, 44), arts)
    assert md == render_markdown("tiny", (42, 43, 44), arts)
    assert "# Statistical report" in md
    assert "## Pager comparison (`fig4`" in md
    assert "### Rank tests" in md
    assert "disk swapping" in md and "remote update" in md
    # Tables render without rank-test sections when no comparisons.
    assert md.count("### Rank tests") == 1


def test_render_html_is_self_contained():
    arts = _small_artifacts()
    html = render_html("tiny", (42, 43), arts)
    assert html == render_html("tiny", (42, 43), arts)
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html and "</svg>" in html  # figure chart
    assert "--series-1:" in html and "data-theme" in html
    assert "<script src=" not in html and "@import" not in html
    assert "&lt;" not in arts["fig4"].title  # sanity: escaping is ours


# ---------------------------------------------------------------------------
# diff gate
# ---------------------------------------------------------------------------

def test_diff_identical_payloads_pass():
    payload = _payload([_artifact([
        _cell("disk", 16, [4.0, 4.1, 4.2]),
    ])])
    report = compare_payloads(payload, copy.deepcopy(payload))
    assert report.worst == "pass"
    assert report.exit_code == EXIT_PASS
    assert report.counts()["pass"] == 1


def _perturbed(payload, factor):
    cur = copy.deepcopy(payload)
    for art in cur["artifacts"].values():
        for cell in art["cells"]:
            cell["samples"] = [v * factor for v in cell["samples"]]
            cell["summary"] = asdict(summarize(cell["samples"]))
    return cur


def test_diff_verdict_ladder():
    payload = _payload([_artifact([
        _cell("disk", 16, [4.0, 4.1, 4.2]),
    ])])
    policy = DiffPolicy(tolerance=0.05, alpha=0.05, fail_factor=3.0)
    # Within tolerance: pass.
    assert compare_payloads(
        payload, _perturbed(payload, 1.04), policy
    ).worst == "pass"
    # Better by more than tolerance: improved, still exit 0.
    improved = compare_payloads(payload, _perturbed(payload, 0.90), policy)
    assert improved.worst == "improved"
    assert improved.exit_code == EXIT_PASS
    # Worse but below the hard cap and not significant at n=3: drift.
    drift = compare_payloads(payload, _perturbed(payload, 1.08), policy)
    assert drift.worst == "drift"
    assert drift.exit_code == EXIT_DRIFT
    # Past tolerance * fail_factor: regression via the magnitude cap.
    regression = compare_payloads(
        payload, _perturbed(payload, 1.40), policy
    )
    assert regression.worst == "regression"
    assert regression.exit_code == EXIT_REGRESSION
    assert "REGRESSION" in regression.render_text()


def test_diff_structural_mismatches():
    art_a = _artifact([_cell("disk", 16, [4.0, 4.1])])
    art_b = _artifact(
        [_cell("skew", "n1", [1.0, 1.1])],
        artifact="table3", exp_id="table3", title="Skew", kind="table",
    )
    base = _payload([art_a, art_b])
    # Missing artifact -> regression.
    cur = copy.deepcopy(base)
    del cur["artifacts"]["table3"]
    assert compare_payloads(base, cur).worst == "regression"
    # Missing cell -> regression; new cell -> drift.
    cur = copy.deepcopy(base)
    cur["artifacts"]["fig4"]["cells"] = [
        asdict(_cell("disk", 12, [4.0, 4.1]))
    ]
    report = compare_payloads(base, cur)
    notes = {v.note for v in report.verdicts if v.verdict != "pass"}
    assert report.worst == "regression"
    assert any("missing" in n for n in notes)
    assert any("new coverage" in n for n in notes)
    # Different seed sets only drift (means still comparable).
    cur = copy.deepcopy(base)
    cur["seeds"] = [7, 8, 9]
    assert compare_payloads(base, cur).worst == "drift"


def test_diff_format_mismatch_is_a_usage_error():
    payload = _payload([_artifact([_cell("disk", 16, [4.0])])])
    other = copy.deepcopy(payload)
    other["format"] = 99
    with pytest.raises(ValueError):
        compare_payloads(payload, other)


def test_diff_higher_is_better_orientation():
    art = _artifact(
        [_cell("throughput", 16, [4.0, 4.1, 4.2])],
        lower_is_better=False,
    )
    base = _payload([art])
    report = compare_payloads(base, _perturbed(base, 1.40))
    assert report.worst == "improved"
    report = compare_payloads(base, _perturbed(base, 0.60))
    assert report.worst == "regression"


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def test_parse_seeds_count_and_list():
    from repro.analysis.report.cli import _parse_seeds

    assert _parse_seeds("3", "tiny") == default_seeds("tiny", 3)
    assert _parse_seeds("7,8,9", "tiny") == (7, 8, 9)
    with pytest.raises(HarnessError):
        _parse_seeds("x", "tiny")


def test_cli_rejects_current_without_diff(capsys):
    from repro.analysis.report.cli import main

    assert main(["--current", "x.json"]) == 2
    assert main(["--json", "x.json"]) == 2
    err = capsys.readouterr().err
    assert "--diff" in err


def test_cli_diff_exit_codes(tmp_path, capsys):
    from repro.analysis.report.cli import main

    payload = _payload([_artifact([
        _cell("disk", 16, [4.0, 4.1, 4.2]),
    ])])
    base = tmp_path / "base.json"
    base.write_text(json.dumps(payload))
    cur = tmp_path / "cur.json"

    cur.write_text(json.dumps(copy.deepcopy(payload)))
    assert main(["--diff", str(base), "--current", str(cur)]) == EXIT_PASS

    cur.write_text(json.dumps(_perturbed(payload, 1.08)))
    out_json = tmp_path / "verdict.json"
    rc = main([
        "--diff", str(base), "--current", str(cur),
        "--json", str(out_json),
    ])
    assert rc == EXIT_DRIFT
    verdict = json.loads(out_json.read_text())
    assert verdict["worst"] == "drift"
    assert verdict["exit_code"] == EXIT_DRIFT

    cur.write_text(json.dumps(_perturbed(payload, 1.40)))
    assert main(
        ["--diff", str(base), "--current", str(cur)]
    ) == EXIT_REGRESSION

    cur.write_text(json.dumps({"format": 99}))
    assert main(["--diff", str(base), "--current", str(cur)]) == 2
    capsys.readouterr()  # drain


def test_cli_diff_only_restricts_both_payloads(tmp_path, capsys):
    """``--only`` names what is compared: artifacts left out of the
    current payload on purpose are not missing from it."""
    from repro.analysis.report.cli import main

    fig4 = _artifact([_cell("disk", 16, [4.0, 4.1, 4.2])])
    table3 = _artifact(
        [_cell("skew", "n1", [1.0, 1.1])],
        artifact="table3", exp_id="table3", title="Skew", kind="table",
    )
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_payload([fig4, table3])))
    cur = tmp_path / "cur.json"
    cur.write_text(json.dumps(_payload([fig4])))
    argv = ["--diff", str(base), "--current", str(cur)]
    assert main(argv) == EXIT_REGRESSION
    capsys.readouterr()
    assert main(argv + ["--only", "fig4"]) == EXIT_PASS
    assert "verdict: PASS (1 pass," in capsys.readouterr().out
    assert main(argv + ["--only", "fig44"]) == 2


def test_cli_render_writes_reports_and_reuses_store(tmp_path, capsys):
    from repro.analysis.report.cli import main

    store = tmp_path / "store"
    out = tmp_path / "reports"
    argv = [
        "--scale", "tiny", "--seeds", "2", "--only", "policy",
        "--store", str(store), "--out", str(out),
    ]
    assert main(argv) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("report.md", "report.html", "report.json")
    }
    capsys.readouterr()

    out2 = tmp_path / "reports2"
    assert main(argv[:-1] + [str(out2)]) == 0
    stdout = capsys.readouterr().out
    assert " 0 executed" in stdout  # warm store: no re-execution
    for name, data in first.items():
        assert (out2 / name).read_bytes() == data
