"""``repro-lint`` — the domain static-analysis suite's entry point.

Usage::

    repro-lint src tests                 # lint the tree, human output
    repro-lint src --json                # machine-readable findings
    repro-lint src tests --output r.json # also write the JSON report
    repro-lint --list-codes              # the error-code catalogue
    repro-lint src --select RPL101       # run a subset of rules

Exit codes: 0 clean, 1 findings (or unparseable files), 2 usage error.
The JSON report is deterministic (sorted findings, sorted keys).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.analysis.lint.framework import Checker, lint_paths
from repro.analysis.lint.rules import ALL_CHECKERS

__all__ = ["ALL_CHECKERS", "build_checkers", "main"]


def build_checkers() -> list[Checker]:
    """Fresh instances of every registered checker."""
    return [cls() for cls in ALL_CHECKERS]


def catalogue() -> "list[tuple[str, str, str]]":
    """(code, name, hint) rows for every rule, in code order."""
    return sorted(row for c in build_checkers() for row in c.catalogue())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain static analysis: sim/host time separation, "
        "determinism and layering for the remote-memory mining reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (directories are walked; "
        "lint_fixtures dirs are skipped unless named explicitly)",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the findings as a JSON report instead of text")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="also write the JSON report to FILE (CI artifact)")
    parser.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated error codes to run (default: all)")
    parser.add_argument("--list-codes", action="store_true",
                        help="print the error-code catalogue and exit")
    args = parser.parse_args(argv)
    if args.list_codes:
        for code, name, hint in catalogue():
            print(f"{code}  {name}\n       {hint}")
        return 0
    if not args.paths:
        print("repro-lint: no paths given (try: repro-lint src tests)",
              file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
        unknown = sorted(set(select) - {code for code, _, _ in catalogue()})
        if unknown:
            print(f"repro-lint: unknown code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    report = lint_paths(args.paths, build_checkers(), select=select)
    if args.output is not None:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n")
    print(report.to_json() if args.json else report.render())
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
