"""Core machinery of ``repro-lint``: findings, checkers, the file runner.

The reproduction's guarantees — bit-identical kernel results, byte-identical
serial/parallel/resumed sweep reports, content-addressed result storage —
are *domain* invariants that generic linters cannot see.  One stray
``time.perf_counter()`` inside the simulation layer, one iteration over an
unordered ``set`` feeding a message stream, or one typo'd telemetry event
name silently breaks them.  This module is the AST-level framework those
domain rules plug into; the rules themselves live in the sibling checker
modules and are catalogued in :data:`ALL_CHECKERS`.

Design points:

- **One parse per file.**  Every checker receives the same
  :class:`LintContext` (source, AST, derived ``repro.*`` module name) and
  returns :class:`Finding` records; the runner merges, filters suppressed
  findings, and sorts deterministically.
- **Layer awareness.**  A checker declares which modules it binds via
  :meth:`Checker.applies_to`; the runner derives the dotted module name
  from the file path (the first ``repro`` path component anchors the
  package), so rules like "no host clocks outside ``repro.harness``" need
  no configuration.
- **Suppressions are explicit and scoped.**  ``# repro-lint: disable=CODE``
  on the offending line silences exactly that code there;
  ``# repro-lint: disable-file=CODE`` anywhere in the file silences it for
  the whole file.  There is no blanket off-switch.
- **Fixture hygiene.**  Directory walks skip ``lint_fixtures`` directories
  (they hold deliberately-violating self-test inputs), but a fixture passed
  as an explicit file argument is always linted — which is how the test
  suite pins each checker's exact codes and line numbers.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Finding",
    "LintContext",
    "Checker",
    "LintReport",
    "lint_file",
    "lint_paths",
    "collect_files",
    "module_name_for",
]

#: Directories never entered during a lint walk.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "lint_fixtures"}

#: ``# repro-lint: disable=RPL101,RPL202`` (line) /
#: ``# repro-lint: disable-file=RPL101`` (whole file).
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Z0-9, ]+)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintContext:
    """Everything a checker may inspect about one file (parsed once)."""

    path: Path
    source: str
    tree: ast.Module
    #: Dotted module name when the file belongs to the ``repro`` package
    #: (derived from the path), else ``None`` (tests, examples, scripts).
    module: Optional[str]

    @property
    def in_repro(self) -> bool:
        return self.module is not None

    def module_startswith(self, *prefixes: str) -> bool:
        """True when the file's module matches any dotted ``prefixes``
        (a prefix matches itself and its submodules)."""
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )


class Checker:
    """Base class for one domain rule (or a small family sharing state).

    Subclasses set :attr:`code` (the primary error code), :attr:`name`,
    and :attr:`hint`, and implement :meth:`check`.  A checker may emit
    several distinct codes (list them in :attr:`codes`); the CLI's
    ``--list-codes`` catalogue is assembled from these attributes.
    """

    #: Primary error code, e.g. ``"RPL101"``.
    code: str = ""
    #: Short kebab-case rule name for the catalogue.
    name: str = ""
    #: One-line fix-it hint attached to every finding.
    hint: str = ""
    #: Every code this checker can emit (defaults to ``[code]``).
    codes: Sequence[tuple[str, str, str]] = ()

    def catalogue(self) -> list[tuple[str, str, str]]:
        """(code, name, hint) rows this checker contributes."""
        return list(self.codes) if self.codes else [
            (self.code, self.name, self.hint)
        ]

    def applies_to(self, ctx: LintContext) -> bool:
        """Whether this checker binds the given file at all."""
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers shared by the concrete checkers ---------------------------

    def finding(
        self,
        ctx: LintContext,
        node: ast.AST,
        message: str,
        code: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code or self.code,
            message=message,
            hint=self.hint if hint is None else hint,
        )


def module_name_for(path: Path) -> Optional[str]:
    """Dotted ``repro.*`` module name of ``path``, or ``None``.

    The first ``repro`` component in the path anchors the package — this
    resolves both the real tree (``src/repro/mining/hpa.py``) and the
    self-test fixtures (``tests/analysis/lint_fixtures/repro/sim/x.py``),
    which deliberately mirror package paths so layer-scoped rules bind.
    """
    parts = path.parts
    if "repro" not in parts:
        return None
    idx = parts.index("repro")
    dotted = list(parts[idx:-1])
    stem = path.stem
    if stem != "__init__":
        dotted.append(stem)
    return ".".join(dotted)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> imported dotted origin, for every import in the file.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Only
    module-level resolution is attempted — good enough for clock/RNG/
    registry calls, which are always reached through imports.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted name of a call target, through import
    aliases (``np.random.default_rng`` -> ``numpy.random.default_rng``)."""
    name = dotted_name(node.func)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    origin = aliases.get(root)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


# ---------------------------------------------------------------------------
# Suppression pragmas
# ---------------------------------------------------------------------------

def _suppressions(
    source: str, tree: Optional[ast.Module] = None
) -> tuple[set[str], dict[int, set[str]]]:
    """(file-wide codes, line -> codes) from ``# repro-lint:`` pragmas."""
    file_wide: set[str] = set()
    by_line: dict[int, set[str]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = _PRAGMA.search(text)
        if not m:
            continue
        codes = {c.strip() for c in m.group("codes").split(",") if c.strip()}
        if m.group("scope") == "disable-file":
            file_wide |= codes
        else:
            by_line.setdefault(i, set()).update(codes)
    if tree is not None and by_line:
        _alias_decorator_pragmas(tree, by_line)
    return file_wide, by_line


def _alias_decorator_pragmas(
    tree: ast.Module, by_line: dict[int, set[str]]
) -> None:
    """Bind decorator-line pragmas to the decorated ``def``/``class``.

    Checkers report a decorated definition at its ``def`` line, but the
    pragma naturally lands on the construct's visual top — the first
    decorator line.  Without this aliasing the suppression silently
    missed (the historical bug this pins): the pragma sat on
    ``@property`` while the finding pointed three lines down.
    """
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        start = min(d.lineno for d in node.decorator_list)
        aliased: set[str] = set()
        for line in range(start, node.lineno):
            aliased |= by_line.get(line, set())
        if aliased:
            by_line.setdefault(node.lineno, set()).update(aliased)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass
class LintReport:
    """Outcome of one lint run: findings plus accounting."""

    findings: list[Finding]
    n_files: int
    parse_errors: list[str]

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.parse_errors) else 0

    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return {
            "version": 1,
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "counts_by_code": dict(sorted(counts.items())),
            "parse_errors": self.parse_errors,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"parse error: {e}" for e in self.parse_errors)
        hinted = sorted({(f.code, f.hint) for f in self.findings})
        if hinted:
            lines.append("")
            for code, hint in hinted:
                lines.append(f"  {code}: {hint}")
        lines.append(
            f"{len(self.findings)} finding(s) in {self.n_files} file(s)"
        )
        return "\n".join(lines)


def collect_files(paths: Iterable["str | Path"]) -> list[Path]:
    """Expand paths to a sorted list of ``.py`` files.

    Directories are walked recursively (skipping caches, VCS internals,
    and ``lint_fixtures`` self-test inputs); explicit file arguments are
    taken verbatim, fixtures included.
    """
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in f.parts):
                    out.add(f)
        else:
            out.add(p)
    return sorted(out)


def lint_file(
    path: "str | Path", checkers: Sequence[Checker]
) -> "tuple[list[Finding], Optional[str]]":
    """Run ``checkers`` over one file; returns (findings, parse-error)."""
    path = Path(path)
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as exc:
        return [], f"{path}: {exc}"
    ctx = LintContext(
        path=path, source=source, tree=tree, module=module_name_for(path)
    )
    file_wide, by_line = _suppressions(source, tree)
    findings: set[Finding] = set()
    for checker in checkers:
        if not checker.applies_to(ctx):
            continue
        for f in checker.check(ctx):
            if f.code in file_wide or f.code in by_line.get(f.line, ()):
                continue
            findings.add(f)
    return sorted(findings), None


def lint_paths(
    paths: Iterable["str | Path"],
    checkers: Sequence[Checker],
    select: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every file under ``paths`` with ``checkers``.

    ``select`` restricts the run to the given error codes (a checker runs
    if any of its codes is selected; off-code findings are dropped).
    """
    wanted = set(select) if select is not None else None
    active = [
        c for c in checkers
        if wanted is None
        or any(code in wanted for code, _, _ in c.catalogue())
    ]
    files = collect_files(paths)
    findings: list[Finding] = []
    errors: list[str] = []
    for f in files:
        found, err = lint_file(f, active)
        if err is not None:
            errors.append(err)
        if wanted is not None:
            found = [x for x in found if x.code in wanted]
        findings.extend(found)
    return LintReport(
        findings=sorted(findings), n_files=len(files), parse_errors=errors
    )
