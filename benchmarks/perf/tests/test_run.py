"""``run.py`` end to end at smoke size: schema, checks, exit codes."""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import PERF, ROOT

from perfbench import compare, spec

RUN = [sys.executable, str(PERF / "run.py")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)], capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout, out


def test_smoke_artifact_validates_against_the_spec(smoke):
    artifact, stdout, _ = smoke
    assert artifact["schema"] == "perfbench/1"
    assert list(artifact["workloads"]) == list(spec.WORKLOAD_NAMES)
    for name, w in artifact["workloads"].items():
        assert w["correct"] and w["failed"] == 0 and w["failed_share"] == 0
        assert w["attempted"] >= 2
        assert {m.name: m.unit for m in spec.END_TO_END} == {
            k: v["unit"] for k, v in w["end_to_end"].items()
        }
        assert {m.name: m.unit for m in spec.PER_LAYER} == {
            k: v["unit"] for k, v in w["per_layer"].items()
        }
        assert all(v["value"] > 0 for v in w["end_to_end"].values()), name
        assert w["per_layer"]["bench.trace_overhead_ratio"]["value"] > 0
        assert name in stdout
    for metric in spec.END_TO_END:
        assert metric.name in stdout


def test_traced_and_untraced_hashes_agree(smoke):
    artifact, _, _ = smoke
    for w in artifact["workloads"].values():
        assert w["output_hash"] == w["traced_output_hash"]
        assert len(w["output_hash"]) == 64


def test_layer_self_times_cover_the_traced_rep(smoke):
    artifact, _, _ = smoke
    for name in ("hpa-mine-k3", "hpa-swap-fault", "hpa-update-dynamic"):
        w = artifact["workloads"][name]
        root = w["layer_totals"]["bench.rep"]
        layers_self = sum(
            t["self_s"] for n, t in w["layer_totals"].items() if n != "bench.rep"
        )
        assert layers_self == pytest.approx(root["busy_s"], rel=0.05)
        assert w["per_layer"]["sim.events"]["value"] > 0


def test_provenance_envelope(smoke):
    artifact, _, _ = smoke
    prov = artifact["provenance"]
    for key in (
        "git_commit", "git_dirty", "hostname", "nproc", "effective_cpus",
        "loadavg_1m", "python", "numpy", "seed", "reps", "started", "ended",
    ):
        assert key in prov
    assert prov["seed"] == 42 and prov["smoke"] is True
    assert "provenance" not in artifact["workloads"]


def test_single_pass_prints_the_contract_result_last():
    done = subprocess.run(
        RUN + ["--workload", "hpa-mine-k3", "--seed", "7", "--seconds", "1",
               "--trace", "0", "--smoke"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}


def test_usage_errors_exit_2():
    for argv in (["--workload", "nope"], ["--trace", "1"], ["--reps", "0"]):
        assert subprocess.run(RUN + argv, capture_output=True).returncode == 2


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "prepare-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 3
    assert done.stdout == ""


def test_compare_same_worse_better_unresolved(smoke, tmp_path, capsys):
    artifact, _, path = smoke
    assert compare.main(str(path), str(path)) == 0
    assert "  worse" not in capsys.readouterr().out

    slower = json.loads(json.dumps(artifact))
    w = slower["workloads"]["hpa-swap-fault"]
    w["end_to_end"]["wall_s_min"]["value"] *= 2
    w["reps"]["rep_wall_s"] = [x * 2 for x in w["reps"]["rep_wall_s"]]
    w["output_hash"] = "0" * 64
    other = tmp_path / "slower.json"
    other.write_text(json.dumps(slower))
    assert compare.main(str(path), str(other)) == 1
    out = capsys.readouterr().out
    assert "  worse" in out and "output_hash" in out
    assert compare.main(str(other), str(path)) == 0  # the other way: better

    bound = 0.25
    assert compare.verdict(1.0, 1.1, "lower", bound) == ("same", pytest.approx(0.1))
    assert compare.verdict(1.0, 1.5, "lower", bound)[0] == "worse"
    assert compare.verdict(100.0, 50.0, "higher", bound)[0] == "worse"
    assert compare.verdict(1.0, 0.5, "lower", bound)[0] == "better"
    noisy_a, noisy_b = [1.0, 1.4, 2.0, 2.6], [1.5, 1.9, 2.5, 3.4]
    assert compare.verdict(1.0, 1.5, "lower", bound, noisy_a, noisy_b)[0] == "unresolved"
    apart_a, apart_b = [1.0, 1.4, 2.0], [3.0, 4.0, 6.0]
    assert compare.verdict(1.0, 3.0, "lower", bound, apart_a, apart_b)[0] == "worse"
