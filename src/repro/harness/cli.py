"""``repro-bench`` command-line entry point.

Usage::

    repro-bench fig4                 # one experiment at the small scale
    repro-bench all --scale full     # every experiment, paper-like layout
    repro-bench all --jobs 4         # run scenarios in 4 local processes
    repro-bench all --store DIR      # persist results in DIR and reuse them
    repro-bench --store-gc --store DIR   # drop orphaned temp files + old-format entries
    repro-bench --list

Each experiment prints the same rows/series the paper's table or figure
reports, at the selected workload scale.  ``--jobs``/``--store`` only
change *how* scenarios are executed (a local process pool, the
persistent result store) — the printed reports are byte-identical
either way.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES

__all__ = ["main", "build_parser", "int_at_least"]


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
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the tables and figures of the IPPS 2000 "
        "remote-memory data-mining paper on the simulated cluster.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help=f"experiment id: {', '.join(ALL_SWEEPS)} or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="workload scale (default: small)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the named run scenarios in the runtime catalogue",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write <DIR>/<experiment>.json with the raw data",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="collect full telemetry (events, metrics, Chrome trace, "
        "manifest) for every run into <DIR>; summarize with repro-trace",
    )
    parser.add_argument(
        "--jobs",
        type=int_at_least(1),
        default=1,
        metavar="N",
        help="execute scenario grids in N local processes "
        "(default: 1, in-process); reports are byte-identical either way",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist every scenario result in a content-addressed store "
        "at <DIR> and reuse whatever is already there",
    )
    parser.add_argument(
        "--seed",
        type=int_at_least(0),
        default=None,
        metavar="N",
        help="override the scale's workload seed (an independent "
        "replication of the synthetic database; the multi-seed axis "
        "repro-report aggregates over)",
    )
    parser.add_argument(
        "--store-stats",
        action="store_true",
        help="print the result store's hit/miss/write counters and "
        "per-entry sizes as JSON on stdout (requires --store; "
        "with no experiment, just inspects the store)",
    )
    parser.add_argument(
        "--store-gc",
        action="store_true",
        dest="gc",
        help="garbage-collect the result store: drop temp files older "
        "than an hour and old-format entries; prints the JSON summary "
        "(requires --store)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.gc:
        if args.store is None:
            print(
                "repro-bench: --store-gc needs a store (--store)",
                file=sys.stderr,
            )
            return 2
        import json

        from repro.runtime import ResultStore

        store = ResultStore(args.store)
        summary = store.gc(time.time())
        summary["store"] = str(store.path)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.list_scenarios:
        from repro.runtime import list_scenarios

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
    if args.store_stats and args.store is None:
        print(
            "repro-bench: --store-stats needs a store (--store)",
            file=sys.stderr,
        )
        return 2
    if args.store_stats and args.experiment is None:
        # Pure inspection: report on the store as it sits on disk.
        import json

        from repro.runtime import ResultStore

        store = ResultStore(args.store)
        print(json.dumps(
            {"stats": store.stats(), "entry_stats": store.entry_stats()},
            indent=2,
            sort_keys=True,
        ))
        return 0
    if args.list or args.experiment is None:
        print("available experiments:")
        for name in ALL_SWEEPS:
            print(f"  {name}")
        print("or 'all'")
        return 0

    names = list(ALL_SWEEPS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in ALL_SWEEPS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    from contextlib import nullcontext

    telemetry = None
    if args.trace is not None:
        from repro.obs import Telemetry, telemetry_session
        from repro.runtime import clear_cache

        # Cached runs would leave the trace empty; force real executions.
        clear_cache()
        telemetry = Telemetry()
        session = telemetry_session(telemetry)
    else:
        session = nullcontext()

    store = None
    if args.store is not None:
        from repro.runtime import ResultStore, result_store_session

        store = ResultStore(args.store)
        store_session = result_store_session(store)
    else:
        store_session = nullcontext()

    from repro.harness.sweep import run_sweep_outcome, shutdown_pools

    wall_start = time.perf_counter()
    try:
        with session, store_session:
            for name in names:
                start = time.perf_counter()
                outcome = run_sweep_outcome(
                    ALL_SWEEPS[name], args.scale, jobs=args.jobs,
                    seed=args.seed,
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
                    import pathlib

                    out = pathlib.Path(args.json)
                    out.mkdir(parents=True, exist_ok=True)
                    (out / f"{name}.json").write_text(outcome.report.to_json())
    finally:
        shutdown_pools()

    if store is not None:
        stats = store.stats()
        print(
            f"[result store {stats['path']}: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['writes']} writes, "
            f"{stats['entries']} entries]"
        )
        if args.store_stats:
            import json

            print(json.dumps(
                {"stats": stats, "entry_stats": store.entry_stats()},
                indent=2,
                sort_keys=True,
            ))
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
