"""Tests for the experiment reports' *form* (at the tiny scale).

What the numbers must show — the paper's shapes — is asserted once, in
``test_paper_claims.py``; here we verify the experiments execute and
report well-formed data.  The reports come from the session's shared
sweep fill (``conftest.sweep_reports``).
"""

import pytest

from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES
from repro.harness.sweep import run_sweep_outcome


@pytest.fixture
def tiny(sweep_reports):
    """``name -> report`` at the tiny scale's own seed."""
    reports = sweep_reports("tiny").reports
    return lambda name: reports[name, SCALES["tiny"].seed]


def test_registry_covers_every_paper_artifact():
    assert {"table2", "table3", "table4", "fig3", "fig4", "fig5", "disk",
            "monitor", "policy", "churn", "blocksize", "eld", "scaling",
            "loss", "npa"} == set(ALL_SWEEPS)


def test_table2_report(tiny):
    rep = tiny("table2")
    assert rep.exp_id == "T2"
    assert "pass 2" in rep.text
    assert "Table 2" in rep.text


def test_table3_report(tiny):
    rep = tiny("table3")
    assert len(rep.data["series"]["per-node candidate 2-itemsets"]) == 2
    assert "node 1" in rep.text


def test_table4_report(tiny):
    rep = tiny("table4")
    series = rep.data["series"]
    assert set(series["measured per-fault time"]) == {12.0, 13.0, 14.0, 15.0}
    assert series["pass-2 baseline [s]"]["no limit"] > 0


def test_disk_analysis_is_scale_free(tiny):
    small = run_sweep_outcome(ALL_SWEEPS["disk"], "small").report
    assert tiny("disk").data == small.data


def test_report_str_rendering(tiny):
    s = str(tiny("disk"))
    assert s.startswith("== S52")
    assert "[paper shape]" in s
