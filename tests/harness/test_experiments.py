"""Tests for the experiment runners (at the tiny scale).

The heavyweight shape assertions live in benchmarks/; here we verify the
experiments execute, report well-formed data, and hold the most basic
orderings even on the tiny workload.
"""


from repro.harness.experiments import ALL_SWEEPS


def test_registry_covers_every_paper_artifact():
    assert {"table2", "table3", "table4", "fig3", "fig4", "fig5", "disk",
            "monitor", "policy", "churn", "blocksize", "eld", "scaling",
            "loss", "npa"} == set(ALL_SWEEPS)


def test_table2_report():
    rep = ALL_SWEEPS["table2"]("tiny")
    assert rep.exp_id == "T2"
    assert rep.data["c2_dominates"]
    assert "pass 2" in rep.text
    assert "Table 2" in rep.text


def test_table3_report():
    rep = ALL_SWEEPS["table3"]("tiny")
    assert len(rep.data["per_node"]) == 2
    assert rep.data["max_over_mean"] >= 1.0
    assert "node 1" in rep.text


def test_table4_report():
    rep = ALL_SWEEPS["table4"]("tiny")
    per_fault = rep.data["per_fault_ms"]
    assert set(per_fault) == {12.0, 13.0, 14.0, 15.0}
    for v in per_fault.values():
        assert 1.0 < v < 10.0
    assert rep.data["baseline_s"] > 0


def test_fig4_ordering_even_at_tiny_scale():
    rep = ALL_SWEEPS["fig4"]("tiny")
    assert rep.data["disk_over_simple"] > 2
    assert rep.data["simple_over_update"] > 2


def test_disk_analysis_is_scale_free():
    a = ALL_SWEEPS["disk"]("tiny")
    b = ALL_SWEEPS["disk"]("small")
    assert a.data == b.data


def test_report_str_rendering():
    rep = ALL_SWEEPS["disk"]("tiny")
    s = str(rep)
    assert s.startswith("== S52")
    assert "[paper shape]" in s
