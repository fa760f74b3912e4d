"""Who produced an artifact: commit, host, versions, settings, times."""

from __future__ import annotations

import datetime
import os
import platform
import socket
import subprocess
from pathlib import Path

__all__ = ["now_iso", "collect", "host_degraded"]


def now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _git(root: Path, *args: str) -> "str | None":
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def collect(root: Path, settings: dict) -> dict:
    """The provenance envelope, taken when the benchmark starts
    (``ended`` is filled in by the caller)."""
    import numpy

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "git_commit": commit or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "hostname": socket.gethostname(),
        "nproc": os.cpu_count(),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **settings,
        "started": now_iso(),
        "ended": None,
    }


def host_degraded(provenance: dict) -> "str | None":
    """A warning when timings from this host deserve less trust."""
    if provenance["effective_cpus"] < 2:
        return (
            f"host_degraded: {provenance['effective_cpus']} effective CPU; "
            "the benchmark shares it with everything else on the box"
        )
    if provenance["loadavg_1m"] > provenance["nproc"]:
        return (
            f"host_degraded: 1-min load {provenance['loadavg_1m']:.2f} exceeds "
            f"{provenance['nproc']} CPUs"
        )
    return None
