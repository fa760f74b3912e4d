"""``repro-lint`` — the domain static-analysis suite's entry point.

Usage::

    repro-lint src tests                 # lint the tree, human output
    repro-lint src --json                # machine-readable findings
    repro-lint src tests --output r.json # also write the JSON report
    repro-lint --list-codes              # the error-code catalogue
    repro-lint src --select RPL101       # run a subset of rules

Exit codes: 0 clean, 1 findings (or unparseable files), 2 usage error.
The JSON report is deterministic (sorted findings, sorted keys) so CI can
diff or archive it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.analysis.lint.contracts import EventKindChecker, MetricNameChecker
from repro.analysis.lint.determinism import (
    SetIterationChecker,
    UnseededRandomChecker,
)
from repro.analysis.lint.floats import FloatEqualityChecker
from repro.analysis.lint.framework import Checker, lint_paths
from repro.analysis.lint.frozen import FrozenConfigChecker
from repro.analysis.lint.hostclock import HostClockChecker

__all__ = ["ALL_CHECKERS", "build_checkers", "build_parser", "main"]

#: Checker classes in catalogue order.
ALL_CHECKERS: "tuple[type[Checker], ...]" = (
    HostClockChecker,
    UnseededRandomChecker,
    SetIterationChecker,
    EventKindChecker,
    MetricNameChecker,
    FrozenConfigChecker,
    FloatEqualityChecker,
)


def build_checkers() -> list[Checker]:
    """Fresh instances of every registered checker."""
    return [cls() for cls in ALL_CHECKERS]


def catalogue() -> "list[tuple[str, str, str]]":
    """(code, name, hint) rows for every rule, in code order."""
    rows: "list[tuple[str, str, str]]" = []
    for checker in build_checkers():
        rows.extend(checker.catalogue())
    return sorted(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain static analysis: determinism, sim/host time "
        "separation, and telemetry contracts for the remote-memory "
        "mining reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (directories are walked; "
        "lint_fixtures dirs are skipped unless named explicitly)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the findings as a JSON report instead of text",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--select", metavar="CODES", default=None,
        help="comma-separated error codes to run (default: all)",
    )
    parser.add_argument(
        "--list-codes", action="store_true",
        help="print the error-code catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_codes:
        for code, name, hint in catalogue():
            print(f"{code}  {name}")
            print(f"       {hint}")
        return 0
    if not args.paths:
        print("repro-lint: no paths given (try: repro-lint src tests)",
              file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
        known = {code for code, _, _ in catalogue()}
        unknown = sorted(set(select) - known)
        if unknown:
            print(f"repro-lint: unknown code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    report = lint_paths(args.paths, build_checkers(), select=select)
    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n")
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
