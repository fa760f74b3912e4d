"""Tests for benchmark scales and the paper-MB limit mapping."""

import pytest

from repro.errors import HarnessError
from repro.harness.scales import (
    PAPER_BUSIEST_MB,
    SCALES,
    prepare_workload,
)


def test_paper_busiest_constant():
    # 641,243 candidates x 24 B on the busiest node (Table 3).
    assert PAPER_BUSIEST_MB == pytest.approx(15.39, rel=0.01)


def test_scales_registry():
    assert {"small", "full", "tiny"} <= set(SCALES)
    for s in SCALES.values():
        assert s.n_app_nodes >= 1
        assert s.total_lines >= s.n_app_nodes
        assert s.limits_mb == (12.0, 13.0, 14.0, 15.0)


def test_paper_scale_registered():
    scale = SCALES["paper"]
    assert scale.n_app_nodes == 100
    assert scale.workload == "T10.I4.D1000K"  # the paper's 1M transactions
    assert scale.minsup == 0.001


def test_prepare_workload_tiny():
    prep = prepare_workload("tiny")
    assert len(prep.db) == 300
    assert prep.n_candidates_2 == prep.n_large_1 * (prep.n_large_1 - 1) // 2
    assert sum(prep.per_node_candidates) == prep.n_candidates_2
    assert prep.busiest_node_bytes > max(prep.per_node_candidates) * 24


def test_prepare_workload_cached():
    assert prepare_workload("tiny") is prepare_workload("tiny")


def test_unknown_scale_rejected():
    with pytest.raises(HarnessError):
        prepare_workload("huge")


def test_limit_bytes_mapping():
    prep = prepare_workload("tiny")
    # 15.39 "paper MB" maps exactly onto the busiest node's bytes.
    assert prep.limit_bytes(PAPER_BUSIEST_MB) == prep.busiest_node_bytes
    # 12 MB is ~78% of it.
    ratio = prep.limit_bytes(12.0) / prep.busiest_node_bytes
    assert ratio == pytest.approx(12.0 / PAPER_BUSIEST_MB, rel=0.01)
    assert prep.limit_bytes(12.0) < prep.limit_bytes(15.0)


def test_limit_bytes_validation():
    prep = prepare_workload("tiny")
    with pytest.raises(HarnessError):
        prep.limit_bytes(0)
