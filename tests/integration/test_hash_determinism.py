"""Reports are invariant under Python hash randomization.

Two subprocesses run the same experiment at the tiny scale under
``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1`` and write their report
JSON; the files must be byte-identical.  Any unordered-set iteration
feeding report content (the hazard repro-lint's RPL202 flags statically)
would break this."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _run(hashseed: str, out_dir: Path) -> Path:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO / "src")
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.harness.cli",
            "run", "disk", "--scale", "tiny", "--json", str(out_dir),
        ],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = out_dir / "disk.json"
    assert report.is_file(), sorted(out_dir.iterdir())
    return report


def test_report_bytes_survive_hash_randomization(tmp_path):
    a = _run("0", tmp_path / "seed0")
    b = _run("1", tmp_path / "seed1")
    bytes_a = a.read_bytes()
    bytes_b = b.read_bytes()
    assert bytes_a, "empty report"
    assert bytes_a == bytes_b


def _run_churn(hashseed: str, out_dir: Path) -> Path:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO / "src")
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.harness.cli",
            "run", "churn", "--scale", "tiny", "--json", str(out_dir),
        ],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = out_dir / "churn.json"
    assert report.is_file(), sorted(out_dir.iterdir())
    return report


def test_churn_sweep_bytes_survive_hash_randomization(tmp_path):
    """The churn sweep rides on seeded numpy generators (bursty gaps,
    sawtooth stagger); its report must still be a pure function of the
    configuration under interpreter hash randomisation."""
    a = _run_churn("0", tmp_path / "seed0")
    b = _run_churn("1", tmp_path / "seed1")
    bytes_a = a.read_bytes()
    bytes_b = b.read_bytes()
    assert bytes_a, "empty report"
    assert bytes_a == bytes_b


def _run_statistical_report(hashseed: str, out_dir: Path) -> "list[Path]":
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.harness.cli",
            "report", "--scale", "tiny", "--seeds", "2", "--only", "policy,table2",
            "--out", str(out_dir),
        ],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    files = [out_dir / f"report.{ext}" for ext in ("md", "html", "json")]
    for f in files:
        assert f.is_file(), sorted(out_dir.iterdir())
    return files


def test_statistical_report_bytes_survive_hash_randomization(tmp_path):
    """The multi-seed report (aggregation, bootstrap CIs, rank tests,
    markdown/HTML rendering) is a pure function of (scale, seeds) —
    including under interpreter hash randomisation."""
    files_a = _run_statistical_report("0", tmp_path / "seed0")
    files_b = _run_statistical_report("1", tmp_path / "seed1")
    for a, b in zip(files_a, files_b):
        bytes_a = a.read_bytes()
        assert bytes_a, f"empty {a.name}"
        assert bytes_a == b.read_bytes(), a.name
