"""The spec, ``BENCHMARK.json`` and the driver's contract agree."""

import json
import re

from conftest import ROOT

from perfbench import layers, spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_what_the_spec_implies():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_names_units_and_counts_fit_the_contract():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = (
        [w.name for w in spec.WORKLOADS]
        + [m.name for m in spec.END_TO_END]
        + [m.name for m in spec.PER_LAYER]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for workload in spec.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
    assert isinstance(spec.RUN_SECONDS, int) and 1 <= spec.RUN_SECONDS <= 60


def test_bounds():
    by_name = {m.name: m for m in spec.END_TO_END}
    setup = by_name["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_moves_point_at_real_metrics_and_workloads():
    e2e = {m.name for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        assert metric.kind in ("count", "host_s", "sim_s", "ratio")
        for target, workload in metric.moves:
            assert target in e2e and workload in spec.WORKLOAD_NAMES, metric.name


def test_every_span_feeds_a_layer_the_spec_knows():
    known = {m.layer for m in spec.PER_LAYER}
    spans = [t[-1] for t in layers.METHOD_TARGETS + layers.FUNCTION_TARGETS]
    assert {s.split(".", 1)[0] for s in spans} <= known
