"""Tests for benchmark scales and the paper-MB limit mapping."""

import hashlib

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


# Recorded on the commit before the generator drew its uniforms in
# blocks: sha256 of the database bytes, and the candidate geometry.
PINNED = {
    "tiny": (
        "306a28366579934f9369bca520a544b8337c5c23078ee60e70613db92d00b29c",
        (98, 4753, (2386, 2367), 61360),
    ),
    "small": (
        "295b150eadacc4305d80a2cedd68579dd30e36bf837537ffa2a3fa9a0f1a390a",
        (187, 17391, (4336, 4325, 4381, 4349), 121528),
    ),
    "full": (
        "837f11f86d7c875e01ea4a3fbb1327bca6ae393ea29599cd62e029729f296932",
        (318, 50403, (6337, 6267, 6264, 6281, 6269, 6293, 6340, 6352), 185216),
    ),
}


@pytest.mark.parametrize("scale_name", sorted(PINNED))
def test_prepared_workload_bytes_and_geometry_pinned(scale_name):
    prep = prepare_workload(scale_name)
    digest = hashlib.sha256(prep.db.items.tobytes() + prep.db.offsets.tobytes())
    geometry = (
        prep.n_large_1, prep.n_candidates_2,
        prep.per_node_candidates, prep.busiest_node_bytes,
    )
    assert (digest.hexdigest(), geometry) == PINNED[scale_name]


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
