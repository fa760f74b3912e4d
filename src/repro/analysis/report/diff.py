"""The regression gate: compare a report payload against a baseline.

``repro-bench diff BASELINE.json`` feeds two payloads (the committed
baseline and a freshly-computed or ``--current`` one) through
:func:`compare_payloads`, which issues one verdict per cell:

``pass``
    mean within the relative tolerance band of the baseline.
``improved``
    mean lower by more than the tolerance — reported, never fatal.
``drift``
    worse than the tolerance but neither statistically significant nor
    past the hard cap — tolerated, distinct exit code so CI can track
    it.
``regression``
    worse *and* either significant (Mann-Whitney on the two replicate
    samples, ``p < alpha``) or past ``tolerance * fail_factor``.  The
    magnitude escape hatch matters because tiny seed counts bound the
    attainable p-value (two-sided minimum ~0.1 at 3 vs 3 replicates):
    the simulation is deterministic per seed, so a large mean shift is
    real even when rank tests cannot certify it.

Every metric is a time or a count, so lower is better throughout;
a baseline's legacy ``lower_is_better`` field is ignored.

Structural mismatches (artifact or cell present in the baseline but
missing now) are regressions; new cells only drift.  Exit codes are
machine-readable and strictly ordered: 0 pass/improved, 3 drift,
4 regression (2 is argparse's usage-error code, e.g. mismatched payload
formats or a malformed payload file).  Each comparison emits one
``report-diff`` event per cell verdict's worst outcome on the ambient
telemetry session.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

from repro.analysis.report.stat_tests import mann_whitney_u
from repro.errors import HarnessError
from repro.obs import emit_ambient

__all__ = [
    "EXIT_DRIFT",
    "EXIT_PASS",
    "EXIT_REGRESSION",
    "CellVerdict",
    "DiffPolicy",
    "DiffReport",
    "compare_payloads",
    "load_payload",
    "restrict",
]

EXIT_PASS = 0
EXIT_DRIFT = 3
EXIT_REGRESSION = 4

#: Verdicts from best to worst; the report's exit code follows the
#: worst verdict present.
_SEVERITY = ("pass", "improved", "drift", "regression")


@dataclass(frozen=True)
class DiffPolicy:
    """Tolerance bands and significance thresholds for the gate."""

    #: Relative tolerance band around the baseline mean.
    tolerance: float = 0.05
    #: Rank-test significance level for promoting drift to regression.
    alpha: float = 0.05
    #: Hard cap: worse than ``tolerance * fail_factor`` is a regression
    #: even without statistical significance (see module docstring).
    fail_factor: float = 3.0


@dataclass(frozen=True)
class CellVerdict:
    """One judged cell (or structural finding)."""

    artifact: str
    group: str
    x: str
    verdict: str
    base_mean: "Optional[float]" = None
    cur_mean: "Optional[float]" = None
    rel_delta: "Optional[float]" = None
    p_value: "Optional[float]" = None
    note: str = ""


@dataclass
class DiffReport:
    """All verdicts from one baseline comparison."""

    policy: DiffPolicy
    verdicts: "list[CellVerdict]" = field(default_factory=list)

    def counts(self) -> "dict[str, int]":
        out = {v: 0 for v in _SEVERITY}
        for verdict in self.verdicts:
            out[verdict.verdict] += 1
        return out

    @property
    def worst(self) -> str:
        worst = "pass"
        for verdict in self.verdicts:
            if _SEVERITY.index(verdict.verdict) > _SEVERITY.index(worst):
                worst = verdict.verdict
        return worst

    @property
    def exit_code(self) -> int:
        worst = self.worst
        if worst == "regression":
            return EXIT_REGRESSION
        if worst == "drift":
            return EXIT_DRIFT
        return EXIT_PASS

    def to_dict(self) -> dict:
        return {
            "policy": asdict(self.policy),
            "counts": self.counts(),
            "worst": self.worst,
            "exit_code": self.exit_code,
            "verdicts": [asdict(v) for v in self.verdicts],
        }

    def render_text(self) -> str:
        """Human-readable verdict listing (worst cells first)."""
        order = {v: i for i, v in enumerate(_SEVERITY)}
        lines = []
        interesting = sorted(
            (v for v in self.verdicts if v.verdict != "pass"),
            key=lambda v: (-order[v.verdict], v.artifact, v.group, v.x),
        )
        for v in interesting:
            detail = v.note
            if v.rel_delta is not None:
                detail = f"{v.rel_delta:+.1%} vs baseline"
                if v.p_value is not None:
                    detail += f", p={v.p_value:.3g}"
            lines.append(
                f"  {v.verdict.upper():<10} {v.artifact}/{v.group} @ {v.x}"
                f"  ({detail})"
            )
        counts = self.counts()
        summary = ", ".join(f"{counts[k]} {k}" for k in _SEVERITY)
        lines.append(f"verdict: {self.worst.upper()} ({summary})")
        return "\n".join(lines)


def _judge_cell(
    artifact: str,
    base_cell: Mapping,
    cur_cell: Mapping,
    policy: DiffPolicy,
) -> CellVerdict:
    base_mean = float(base_cell["summary"]["mean"])
    cur_mean = float(cur_cell["summary"]["mean"])
    if abs(base_mean) < 1e-12:
        rel = 0.0 if abs(cur_mean) < 1e-12 else float("inf")
    else:
        rel = (cur_mean - base_mean) / abs(base_mean)
    common = {
        "artifact": artifact,
        "group": str(base_cell["group"]),
        "x": str(base_cell["x"]),
        "base_mean": base_mean,
        "cur_mean": cur_mean,
        "rel_delta": rel,
    }
    if abs(rel) <= policy.tolerance:
        return CellVerdict(verdict="pass", **common)
    if rel < 0.0:
        return CellVerdict(verdict="improved", **common)
    p: "Optional[float]" = None
    base_samples = [float(v) for v in base_cell.get("samples", [])]
    cur_samples = [float(v) for v in cur_cell.get("samples", [])]
    if len(base_samples) > 1 and len(cur_samples) > 1:
        p = mann_whitney_u(base_samples, cur_samples).p_value
    significant = p is not None and p < policy.alpha
    if significant or rel > policy.tolerance * policy.fail_factor:
        return CellVerdict(verdict="regression", p_value=p, **common)
    return CellVerdict(verdict="drift", p_value=p, **common)


def compare_payloads(
    baseline: Mapping,
    current: Mapping,
    policy: "Optional[DiffPolicy]" = None,
) -> DiffReport:
    """Judge ``current`` against ``baseline`` (both payload dicts, see
    :meth:`~repro.analysis.report.experiment_results.ExperimentResults.payload`).

    Raises :class:`ValueError` on payload-format mismatch — that is a
    usage error, not a verdict.
    """
    policy = policy or DiffPolicy()
    fmt_base = baseline.get("format")
    fmt_cur = current.get("format")
    if fmt_base != fmt_cur:
        raise ValueError(
            f"payload format mismatch: baseline {fmt_base!r} vs "
            f"current {fmt_cur!r}"
        )
    report = DiffReport(policy=policy)
    if baseline.get("scale") != current.get("scale") or list(
        baseline.get("seeds", [])
    ) != list(current.get("seeds", [])):
        report.verdicts.append(CellVerdict(
            artifact="(meta)", group="-", x="-", verdict="drift",
            note=(
                f"baseline is scale={baseline.get('scale')!r} "
                f"seeds={list(baseline.get('seeds', []))}, current is "
                f"scale={current.get('scale')!r} "
                f"seeds={list(current.get('seeds', []))} — means are "
                "compared across different replication sets"
            ),
        ))
    base_arts = baseline.get("artifacts", {})
    cur_arts = current.get("artifacts", {})
    for name, base_art in base_arts.items():
        cur_art = cur_arts.get(name)
        if cur_art is None:
            report.verdicts.append(CellVerdict(
                artifact=name, group="-", x="-", verdict="regression",
                note="artifact missing from current payload",
            ))
            continue
        cur_cells = {
            (str(c["group"]), str(c["x"])): c for c in cur_art["cells"]
        }
        for base_cell in base_art["cells"]:
            key = (str(base_cell["group"]), str(base_cell["x"]))
            cur_cell = cur_cells.pop(key, None)
            if cur_cell is None:
                report.verdicts.append(CellVerdict(
                    artifact=name, group=key[0], x=key[1],
                    verdict="regression",
                    note="cell missing from current payload",
                ))
                continue
            report.verdicts.append(
                _judge_cell(name, base_cell, cur_cell, policy)
            )
        for key in cur_cells:
            report.verdicts.append(CellVerdict(
                artifact=name, group=key[0], x=key[1], verdict="drift",
                note="cell absent from baseline (new coverage)",
            ))
    for name in cur_arts:
        if name not in base_arts:
            report.verdicts.append(CellVerdict(
                artifact=name, group="-", x="-", verdict="drift",
                note="artifact absent from baseline (new coverage)",
            ))
    emit_ambient("report-diff", verdict=report.worst)
    return report


def _judgeable(cell: object) -> bool:
    """Whether the gate can judge ``cell``: an object with a ``group``,
    an ``x`` and a numeric ``summary.mean``."""
    if not isinstance(cell, dict) or "group" not in cell or "x" not in cell:
        return False
    summary = cell.get("summary")
    mean = summary.get("mean") if isinstance(summary, dict) else None
    return isinstance(mean, (int, float)) and not isinstance(mean, bool)


def load_payload(path: str) -> dict:
    """Read a payload file and check the shape the gate walks, so a
    hand-edited or truncated file is a usage error, not a traceback."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read payload {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise HarnessError(f"payload {path!r} is not a JSON object")
    artifacts = data.get("artifacts")
    if not isinstance(artifacts, dict):
        raise HarnessError(f"payload {path!r}: 'artifacts' is not an object")
    for name, art in artifacts.items():
        cells = art.get("cells") if isinstance(art, dict) else None
        if not isinstance(cells, list) or not all(map(_judgeable, cells)):
            raise HarnessError(
                f"payload {path!r}: artifact {name!r} needs a 'cells' list "
                "of objects with group, x and a numeric summary.mean"
            )
    return data


def restrict(payload: dict, names: "Sequence[str]") -> dict:
    """``payload`` with only the named artifacts."""
    arts = payload.get("artifacts", {})
    return {
        **payload,
        "artifacts": {n: arts[n] for n in names if n in arts},
    }
