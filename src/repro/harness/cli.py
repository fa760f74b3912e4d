"""``repro-bench``: the one command-line entry point.

Usage::

    repro-bench run fig4                 # one experiment at the small scale
    repro-bench run all --scale full     # every experiment, paper-like layout
    repro-bench run all --jobs 4         # run scenarios in 4 local processes
    repro-bench run all --store DIR      # persist results in DIR and reuse them
    repro-bench run fig4 --trace DIR     # full telemetry of every run into DIR
    repro-bench list                     # experiments, then named scenarios
    repro-bench store DIR                # the store's counters and entry sizes
    repro-bench gc DIR                   # drop orphaned temp files + unreadable entries
    repro-bench report --scale tiny --seeds 3 --store DIR --out reports
    repro-bench diff BASELINE_report.json reports/report.json
    repro-bench trace DIR                # phase timings and a latency histogram

``run`` prints the same rows/series the paper's table or figure
reports, at the selected workload scale.  ``--jobs``/``--store`` only
change *how* scenarios are executed (a local process pool, the
persistent result store): every output is byte-identical either way.

``report`` writes ``report.md``, ``report.html`` and ``report.json``
(the machine-readable payload, which doubles as the diff baseline) into
``--out``; reports are pure functions of ``(scale, seeds)``.  ``diff``
compares two payload files, a committed baseline and a current report,
and exits with a machine-readable code: 0 pass/improved, 3 tolerated drift,
4 significant regression, 2 usage error (such as mismatched payload
formats).  CI treats 3 as a soft warning and 4 as a failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, ContextManager, Optional

from repro.errors import HarnessError
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES

__all__ = ["main", "build_parser"]


def int_at_least(lowest: int) -> "Callable[[str], int]":
    """An argparse type: an integer >= ``lowest``, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    executing = argparse.ArgumentParser(add_help=False)
    executing.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="workload scale (default: small)",
    )
    executing.add_argument(
        "--jobs",
        type=int_at_least(1),
        default=1,
        metavar="N",
        help="execute scenario grids in N local processes "
        "(default: 1, in-process); outputs are byte-identical either way",
    )
    executing.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist every scenario result in a content-addressed store "
        "at <DIR> and reuse whatever is already there",
    )
    selecting = argparse.ArgumentParser(add_help=False)
    selecting.add_argument(
        "--only",
        metavar="LIST",
        default=None,
        help="comma list restricting the artifacts (report's default: "
        "every core artifact; 'churn' is opt-in)",
    )

    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of the IPPS 2000 "
        "remote-memory data-mining paper on the simulated cluster.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, handler, help, *parents):
        # No abbreviations: ``report --seed`` must not parse as --seeds.
        sub = commands.add_parser(
            name, help=help, parents=list(parents), allow_abbrev=False
        )
        sub.set_defaults(handler=handler)
        return sub

    run = command("run", _run, "run experiments and print them", executing)
    run.add_argument(
        "experiment", help=f"experiment id: {', '.join(ALL_SWEEPS)} or 'all'"
    )
    run.add_argument(
        "--seed",
        type=int_at_least(0),
        default=None,
        metavar="N",
        help="override the scale's workload seed (an independent "
        "replication of the synthetic database; the axis report "
        "aggregates over)",
    )
    run.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write <DIR>/<experiment>.json with the raw data",
    )
    run.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="collect full telemetry (events, metrics, Chrome trace, "
        "manifest) for every run into <DIR>; summarize with 'trace'",
    )

    command("list", _list, "list the experiments and the named run scenarios")
    command(
        "store", _store,
        "print a result store's counters and per-entry sizes as JSON",
    ).add_argument("directory", help="an existing result store")
    command(
        "gc", _gc,
        "garbage-collect a result store: drop temp files older than an "
        "hour and unreadable entries; prints the JSON summary",
    ).add_argument("directory", help="an existing result store")

    report = command(
        "report", _report,
        "render the figures and tables across seeds with bootstrap "
        "confidence intervals",
        executing, selecting,
    )
    report.add_argument(
        "--seeds",
        default=None,
        metavar="N|LIST",
        help="replication seeds: a count N (the scale's base seed "
        "onward) or an explicit comma list such as 42,43,44 "
        "(default: three seeds)",
    )
    report.add_argument(
        "--out",
        metavar="DIR",
        default="reports",
        help="output directory for report.md / report.html / "
        "report.json (default: reports)",
    )

    diff = command(
        "diff", _diff,
        "gate a report payload against a committed baseline "
        "(exit 0 pass, 3 drift, 4 regression, 2 usage error)",
        selecting,
    )
    diff.add_argument("baseline", help="the baseline payload (report.json)")
    diff.add_argument("current", help="the payload to judge (report.json)")
    diff.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the verdicts as JSON to <FILE>",
    )

    trace = command(
        "trace", _trace, "summarize a trace directory written by 'run --trace'"
    )
    trace.add_argument("directory", help="trace directory (manifest.json, ...)")
    trace.add_argument(
        "--histogram",
        default="pagefault_latency_s",
        help="histogram metric to render (default: pagefault_latency_s)",
    )
    return parser


def _list(args: argparse.Namespace) -> int:
    from repro.runtime import list_scenarios

    print("available experiments:")
    for name in ALL_SWEEPS:
        print(f"  {name}")
    print("or 'all'")
    print()
    print("named scenarios:")
    print(
        f"  {'name':20s} {'drv':4s} {'placement':15s} {'repl':7s} "
        f"{'churn':10s} description"
    )
    for s in list_scenarios():
        churn = s.churn.partition(":")[0]
        if s.failures:
            churn = f"{churn}+fail" if churn != "none" else "fail"
        print(
            f"  {s.name:20s} {s.driver:4s} {s.placement:15s} "
            f"{s.replacement:7s} {churn:10s} {s.description}"
        )
    return 0


def _existing_store(directory: str):
    """The result store at ``directory``; inspecting must not create one."""
    from repro.runtime import ResultStore

    if not pathlib.Path(directory).is_dir():
        raise HarnessError(f"no result store at {directory}")
    return ResultStore(directory)


def _store(args: argparse.Namespace) -> int:
    store = _existing_store(args.directory)
    print(json.dumps(
        {"stats": store.stats(), "entry_stats": store.entry_stats()},
        indent=2,
        sort_keys=True,
    ))
    return 0


def _gc(args: argparse.Namespace) -> int:
    store = _existing_store(args.directory)
    summary = store.gc(time.time())
    summary["store"] = str(store.path)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _print_store_line(stats: "Optional[dict]") -> None:
    if stats is not None:
        print(
            f"[result store {stats['path']}: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['writes']} writes, "
            f"{stats['entries']} entries]"
        )


def _run(args: argparse.Namespace) -> int:
    names = list(ALL_SWEEPS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_SWEEPS]
    if unknown:
        raise HarnessError(f"unknown experiment(s): {', '.join(unknown)}")
    if args.trace is not None and args.jobs > 1:
        raise HarnessError(
            "--trace records the runs this process executes; with --jobs > 1 "
            "pool workers execute them and their events never reach the trace"
        )
    if args.trace is not None and args.store is not None:
        raise HarnessError(
            "--trace records the runs this process executes; with --store "
            "stored cells are read back instead of run, so the trace misses them"
        )

    from contextlib import nullcontext

    from repro.harness.sweep import run_sweep_outcome
    from repro.runtime import result_store_session

    telemetry = None
    session: "ContextManager" = nullcontext()
    if args.trace is not None:
        from repro.obs import Telemetry, telemetry_session
        from repro.runtime import clear_cache

        # Cached runs would leave the trace empty; force real executions.
        clear_cache()
        telemetry = Telemetry()
        session = telemetry_session(telemetry)

    wall_start = time.perf_counter()
    with session, result_store_session(args.store) as store:
        for name in names:
            start = time.perf_counter()
            outcome = run_sweep_outcome(
                ALL_SWEEPS[name], args.scale, jobs=args.jobs, seed=args.seed,
            )
            elapsed = time.perf_counter() - start
            print(outcome.report)
            print(
                f"[{name} completed in {elapsed:.1f}s wall; "
                f"{outcome.n_cached} cached / "
                f"{outcome.n_executed} executed]"
            )
            print()
            if args.json is not None:
                out = pathlib.Path(args.json)
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{name}.json").write_text(outcome.report.to_json())
    _print_store_line(store.stats() if store is not None else None)
    if telemetry is not None:
        import platform

        import numpy

        import repro
        from repro.obs.export import write_trace_dir

        manifest = {
            "experiments": names,
            "scale": args.scale,
            "seed": SCALES[args.scale].seed if args.seed is None else args.seed,
            "versions": {
                "repro": getattr(repro, "__version__", "unknown"),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "wall_time_s": time.perf_counter() - wall_start,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        paths = write_trace_dir(args.trace, telemetry, manifest)
        print(f"[trace written to {args.trace}: " +
              ", ".join(sorted(p.name for p in paths.values())) + "]")
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.analysis.report.experiment_results import (
        ExperimentResults,
        parse_seeds,
    )
    from repro.analysis.report.rendering import render_html, render_markdown
    from repro.runtime import result_store_session

    seeds = parse_seeds(args.seeds, args.scale)
    only = args.only.split(",") if args.only else None
    with result_store_session(args.store) as store:
        results = ExperimentResults(args.scale, seeds, jobs=args.jobs)
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
    _print_store_line(store_stats)
    print(f"[report written to {out}/report.{{md,html,json}}]")
    return 0


def _diff(args: argparse.Namespace) -> int:
    from repro.analysis.report.diff import compare_payloads, load_payload, restrict
    from repro.analysis.report.experiment_results import ExperimentResults

    baseline = load_payload(args.baseline)
    current = load_payload(args.current)
    if args.only:
        # Both sides: an artifact left out on purpose is not "missing".
        names = ExperimentResults.names(args.only.split(","))
        baseline = restrict(baseline, names)
        current = restrict(current, names)
    try:
        report = compare_payloads(baseline, current)
    except ValueError as exc:
        raise HarnessError(str(exc)) from exc
    print(report.render_text())
    if args.json is not None:
        out = pathlib.Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"[diff verdicts written to {out}]")
    return report.exit_code


def _trace(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize

    print(summarize(args.directory, args.histogram))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = getattr(args, "handler", _list)
    try:
        return handler(args)
    except HarnessError as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return 2
    finally:
        from repro.harness.sweep import shutdown_pools

        shutdown_pools()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
