"""``repro-trace`` — summarize an exported trace directory.

Usage::

    repro-trace DIR              # manifest, per-phase timings, histograms
    repro-trace DIR --histogram swap_roundtrip_s

Renders per-phase breakdowns and latency histograms (Table 2 / Table 4
style numbers) from ``manifest.json`` and ``events.jsonl`` alone: the
histogram is folded from the event log
(:func:`~repro.obs.metrics.merged_histogram`), so ``metrics.json`` is
never read.  Tables go through the same :mod:`repro.analysis.reporting`
helpers the experiments use.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.analysis.reporting import render_kv, render_table
from repro.errors import HarnessError
from repro.obs.export import read_events_jsonl, read_manifest
from repro.obs.metrics import Histogram, merged_histogram

__all__ = ["main", "build_parser", "summarize"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarize a trace directory written by repro-bench --trace.",
    )
    parser.add_argument("directory", help="trace directory (manifest.json, ...)")
    parser.add_argument(
        "--histogram",
        default="pagefault_latency_s",
        help="histogram metric to render (default: pagefault_latency_s)",
    )
    return parser


def _render_histogram(name: str, hist: Optional[Histogram]) -> str:
    if hist is None:
        return f"histogram {name!r}: no observations"
    bounds = ["<= %g" % b for b in hist.buckets] + ["> %g" % hist.buckets[-1]]
    peak = max(hist.bucket_counts) or 1
    rows = [
        (label, count, "#" * round(30 * count / peak))
        for label, count in zip(bounds, hist.bucket_counts)
    ]
    # Histograms are in seconds unless their name says bytes.
    scale, unit = (1, "B") if name.endswith("_bytes") else (1e3, "ms")
    return render_table(
        ["bucket", "count", ""],
        rows,
        title=f"{name} — {hist.count} observations, "
        f"mean {hist.mean * scale:.3f} {unit}, "
        f"min {hist.min * scale:.3f} {unit}, "
        f"max {hist.max * scale:.3f} {unit}",
    )


def _phase_table(events) -> str:
    spans: dict[str, list[float]] = {}
    order: list[str] = []
    for event in events:
        if event.kind != "span":
            continue
        name = event.detail
        if name not in spans:
            spans[name] = []
            order.append(name)
        spans[name].append(event.fields.get("duration_s", 0.0))
    if not spans:
        return "no span events recorded"
    rows = []
    for name in order:
        durations = spans[name]
        rows.append(
            (
                name,
                len(durations),
                sum(durations),
                sum(durations) / len(durations),
            )
        )
    return render_table(
        ["phase", "runs", "total [s]", "mean [s]"],
        rows,
        title="per-phase timings (virtual seconds, across all runs)",
    )


def _reported_fault_cost(manifest: dict) -> str:
    faults = sum(r.get("faults", 0) for r in manifest.get("runs", []))
    fault_time = sum(r.get("fault_time_s", 0.0) for r in manifest.get("runs", []))
    if not faults:
        return "runs reported no pagefaults"
    return (
        f"runs reported {faults} faults, "
        f"mean {fault_time / faults * 1e3:.3f} ms each"
    )


def summarize(directory, histogram: str = "pagefault_latency_s") -> str:
    """The full text report for one trace directory."""
    directory = Path(directory)
    manifest = read_manifest(directory / "manifest.json")
    events = read_events_jsonl(directory / "events.jsonl")
    parts = [
        render_kv(
            {
                "experiments": ", ".join(manifest.get("experiments", [])) or "?",
                "scale": manifest.get("scale", "?"),
                "seed": manifest.get("seed", "?"),
                "runs": manifest.get("n_runs", len(manifest.get("runs", []))),
                "events": manifest.get("n_events", len(events)),
                "wall time [s]": manifest.get("wall_time_s", "?"),
            },
            title=f"trace {directory}",
        ),
        _phase_table(events),
        _render_histogram(histogram, merged_histogram(histogram, events)),
        _reported_fault_cost(manifest),
    ]
    return "\n\n".join(parts)


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    directory = Path(args.directory)
    for required in ("manifest.json", "events.jsonl"):
        if not (directory / required).exists():
            print(f"not a trace directory: missing {directory / required}", file=sys.stderr)
            return 2
    try:
        text = summarize(directory, args.histogram)
    except HarnessError as exc:  # events.jsonl the fold rejects
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
