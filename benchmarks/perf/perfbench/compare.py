"""``run.py --compare A.json B.json``: is B worse than A?

For every workload x end-to-end metric the verdict is

- ``same``       B is within the metric's bound of A;
- ``worse`` / ``better``  B differs by more than the bound, in that direction;
- ``unresolved`` the difference exceeds the bound but so does the spread
  of either run's own reps (quartile distance over median), and the two
  runs' reps overlap — the box was too noisy to tell.

Only wall-clock metrics have rep samples; the others are judged by the
difference alone.  Output hashes and exact per-layer counts are compared
too and reported as ``changed`` (not a failure: a correctness change may
move them on purpose).  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Optional

from perfbench.spec import END_TO_END, PER_LAYER

__all__ = ["verdict", "compare_artifacts", "render", "main"]

#: End-to-end metrics derived from the reps' walls.
WALL_METRICS = ("wall_s_min", "units_per_s")


def _spread(samples: "list[float]") -> float:
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def verdict(
    a: float, b: float, better: str, bound: float,
    a_reps: "Optional[list[float]]" = None, b_reps: "Optional[list[float]]" = None,
) -> "tuple[str, float]":
    """``(verdict, worsening)`` where ``worsening`` is B's change against
    A as a share of A, positive when B is worse."""
    change = (b - a) / a if a else 0.0
    worsening = change if better == "lower" else -change
    if abs(worsening) <= bound:
        return "same", worsening
    if a_reps and b_reps and max(_spread(a_reps), _spread(b_reps)) > bound:
        # Rep walls are lower-is-better whatever the metric's direction.
        apart = max(b_reps) < min(a_reps) or min(b_reps) > max(a_reps)
        if not apart:
            return "unresolved", worsening
    return ("worse" if worsening > 0 else "better"), worsening


def compare_artifacts(a: dict, b: dict) -> "list[dict]":
    """One row per workload x end-to-end metric present in both, plus
    one ``exact`` row per workload for hashes and counts."""
    rows = []
    exact = [m.name for m in PER_LAYER if m.kind in ("count", "sim_s")]
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for spec in END_TO_END:
            if spec.name not in wa["end_to_end"] or spec.name not in wb["end_to_end"]:
                continue
            va = wa["end_to_end"][spec.name]["value"]
            vb = wb["end_to_end"][spec.name]["value"]
            reps = spec.name in WALL_METRICS
            v, worsening = verdict(
                va, vb, spec.better, spec.bound,
                wa["reps"]["rep_wall_s"] if reps else None,
                wb["reps"]["rep_wall_s"] if reps else None,
            )
            rows.append({
                "workload": name, "metric": spec.name, "unit": spec.unit,
                "a": va, "b": vb, "worsening": worsening, "bound": spec.bound,
                "verdict": v,
            })
        changed = [
            m for m in exact
            if wa["per_layer"].get(m, {}).get("value") != wb["per_layer"].get(m, {}).get("value")
        ]
        if wa.get("output_hash") != wb.get("output_hash"):
            changed.insert(0, "output_hash")
        rows.append({
            "workload": name, "metric": "exact", "changed": changed,
            "verdict": "changed" if changed else "same",
        })
    return rows


def render(rows: "list[dict]") -> str:
    lines = [
        f"{'workload':<20} {'metric':<12} {'A':>12} {'B':>12} "
        f"{'B worse by':>11} {'bound':>6}  verdict"
    ]
    for r in rows:
        if r["metric"] == "exact":
            what = ", ".join(r["changed"]) if r["changed"] else "hash and counts equal"
            lines.append(f"{r['workload']:<20} {'exact':<12} {what}  {r['verdict']}")
            continue
        lines.append(
            f"{r['workload']:<20} {r['metric']:<12} {r['a']:>12.4f} {r['b']:>12.4f} "
            f"{100 * r['worsening']:>+10.1f}% {100 * r['bound']:>5.0f}%  {r['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    if a["provenance"]["seed"] != b["provenance"]["seed"]:
        print("note: the two runs used different seeds; hashes and counts will differ")
    rows = compare_artifacts(a, b)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0
