"""``repro-report`` command-line entry point.

Usage::

    repro-report                           # render at small scale, 3 seeds
    repro-report --scale tiny --seeds 3 --store .repro-store --out reports
    repro-report --only fig4,policy        # a subset of the artifacts
    repro-report --diff BASELINE_report.json --scale tiny
    repro-report --diff BASE.json --current NEW.json --json verdicts.json

Render mode writes ``report.md``, ``report.html``, and ``report.json``
(the machine-readable payload, which doubles as the diff baseline) into
``--out``.  Reports are pure functions of ``(scale, seeds)``: rendering
twice — or from a warm ``--store`` that executes nothing — produces
byte-identical files.

Diff mode compares a payload against a committed baseline and exits
with a machine-readable code: 0 pass/improved, 3 tolerated drift,
4 significant regression (2 for usage errors such as mismatched payload
formats).  CI treats 3 as a soft warning and 4 as a failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from contextlib import nullcontext
from typing import ContextManager, Optional

from repro.analysis.report.diff import DiffPolicy, compare_payloads
from repro.analysis.report.experiment_results import (
    DEFAULT_N_SEEDS,
    ExperimentResults,
    default_seeds,
)
from repro.analysis.report.rendering import render_html, render_markdown
from repro.errors import HarnessError
from repro.harness.scales import SCALES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Regenerate the paper's figures and tables across "
        "multiple workload seeds with bootstrap confidence intervals, "
        "or gate a payload against a committed baseline.",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="workload scale (default: small)",
    )
    parser.add_argument(
        "--seeds",
        default=str(DEFAULT_N_SEEDS),
        metavar="N|LIST",
        help="replication seeds: a count N (the scale's base seed "
        f"onward, default: {DEFAULT_N_SEEDS}) or an explicit comma list "
        "such as 42,43,44",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="execute scenario grids with N worker processes",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist/reuse scenario results in a content-addressed "
        "store at <DIR>; a warm store renders without executing",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="reports",
        help="output directory for report.md / report.html / "
        "report.json (default: reports)",
    )
    parser.add_argument(
        "--only",
        metavar="LIST",
        default=None,
        help="comma list restricting the artifacts "
        f"({', '.join(ExperimentResults.ARTIFACTS)}; opt-in extras: "
        f"{', '.join(ExperimentResults.EXTRA_ARTIFACTS)})",
    )
    parser.add_argument(
        "--diff",
        metavar="BASELINE",
        default=None,
        help="diff mode: compare against this baseline payload instead "
        "of rendering",
    )
    parser.add_argument(
        "--current",
        metavar="FILE",
        default=None,
        help="with --diff: use this payload file as the current side "
        "instead of computing one",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="with --diff: also write the verdicts as JSON to <FILE>",
    )
    return parser


def _parse_seeds(spec: str, scale: str) -> "tuple[int, ...]":
    spec = spec.strip()
    try:
        if "," in spec:
            return tuple(int(s) for s in spec.split(","))
        return default_seeds(scale, int(spec))
    except ValueError as exc:
        raise HarnessError(
            f"bad --seeds {spec!r}: expected a count or a comma list "
            "of integers"
        ) from exc


def _store_session(store_dir: "Optional[str]") -> "ContextManager":
    if store_dir is None:
        return nullcontext()
    from repro.runtime import result_store_session

    return result_store_session(store_dir)


def _load_payload(path: str) -> dict:
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read payload {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise HarnessError(f"payload {path!r} is not a JSON object")
    return data


def _restrict(payload: dict, names: "list[str]") -> dict:
    """``payload`` with only the named artifacts."""
    arts = payload.get("artifacts", {})
    return {
        **payload,
        "artifacts": {n: arts[n] for n in names if n in arts},
    }


def _run_diff(args: argparse.Namespace, seeds: "tuple[int, ...]") -> int:
    baseline = _load_payload(args.diff)
    only = args.only.split(",") if args.only else None
    if args.current is not None:
        current = _load_payload(args.current)
    else:
        with _store_session(args.store):
            results = ExperimentResults(args.scale, seeds, jobs=args.jobs)
            current = results.payload(only)
            acct = results.accounting()
        print(
            f"[current payload computed: {acct['cached']} cached / "
            f"{acct['executed']} executed scenario runs]"
        )
    if only is not None:
        # Both sides: an artifact left out on purpose is not "missing".
        names = ExperimentResults.names(only)
        baseline = _restrict(baseline, names)
        current = _restrict(current, names)
    try:
        report = compare_payloads(baseline, current, DiffPolicy())
    except ValueError as exc:
        print(f"repro-report: {exc}", file=sys.stderr)
        return 2
    print(report.render_text())
    if args.json is not None:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"[diff verdicts written to {out}]")
    return report.exit_code


def _run_render(args: argparse.Namespace, seeds: "tuple[int, ...]") -> int:
    with _store_session(args.store) as store:
        results = ExperimentResults(args.scale, seeds, jobs=args.jobs)
        only = args.only.split(",") if args.only else None
        artifacts = results.artifacts(only)
        payload = results.payload(only)
        acct = results.accounting()
        markdown = render_markdown(args.scale, seeds, artifacts)
        html = render_html(args.scale, seeds, artifacts)
        store_stats = store.stats() if store is not None else None
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.md").write_text(markdown)
    (out / "report.html").write_text(html)
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    n_cells = sum(len(a.cells) for a in artifacts.values())
    for name, art in artifacts.items():
        print(
            f"  {name:8s} {art.exp_id:4s} {len(art.cells):3d} cells, "
            f"{len(art.comparisons)} rank tests"
        )
    print(
        f"[report: {len(artifacts)} artifacts, {n_cells} cells from "
        f"{len(seeds)} seed(s); sweeps resolved {acct['cached']} cached / "
        f"{acct['executed']} executed]"
    )
    if store_stats is not None:
        print(
            f"[result store {store_stats['path']}: {store_stats['hits']} "
            f"hits, {store_stats['misses']} misses, "
            f"{store_stats['writes']} writes, "
            f"{store_stats['entries']} entries]"
        )
    print(f"[report written to {out}/report.{{md,html,json}}]")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        seeds = _parse_seeds(args.seeds, args.scale)
        if args.diff is not None:
            return _run_diff(args, seeds)
        if args.current is not None or args.json is not None:
            print(
                "repro-report: --current/--json require --diff",
                file=sys.stderr,
            )
            return 2
        return _run_render(args, seeds)
    except HarnessError as exc:
        print(f"repro-report: {exc}", file=sys.stderr)
        return 2
    finally:
        from repro.harness.sweep import shutdown_pools

        shutdown_pools()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
