"""Core machinery of ``repro-lint``: findings, checkers, the file runner.

Every file is parsed once; each :class:`Checker` that binds the file's
derived ``repro.*`` module name (the first ``repro`` path component
anchors the package, so the self-test fixtures under
``tests/analysis/lint_fixtures/repro/...`` bind like the real tree)
yields :class:`Finding` records, and the runner sorts them.  Directory
walks skip ``lint_fixtures``; a fixture named as an explicit file is
always linted, which is how the self-tests pin each rule's lines.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Checker", "Finding", "LintContext", "LintReport", "collect_files",
    "import_aliases", "lint_file", "lint_paths", "module_name_for", "resolve_call",
]

#: Directories never entered during a lint walk.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "lint_fixtures"}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintContext:
    """One parsed file; ``module`` is its dotted ``repro.*`` name, or
    ``None`` outside the package (tests, examples, scripts)."""

    path: Path
    tree: ast.Module
    module: Optional[str]

    def module_startswith(self, *prefixes: str) -> bool:
        """True when the module is one of ``prefixes`` or inside one."""
        return self.module is not None and any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


class Checker:
    """One domain rule: :attr:`code`, :attr:`name` and :attr:`hint` feed
    ``--list-codes``; a checker emitting several codes lists them as
    ``(code, name, hint)`` rows in :attr:`codes`."""

    code: str = ""
    name: str = ""
    hint: str = ""
    codes: Sequence[tuple[str, str, str]] = ()
    #: Module prefixes the rule binds (default: all of ``repro``).
    scope: tuple[str, ...] = ("repro",)

    def catalogue(self) -> list[tuple[str, str, str]]:
        return list(self.codes) or [(self.code, self.name, self.hint)]

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: LintContext, node: ast.AST, message: str,
        code: Optional[str] = None, hint: Optional[str] = None,
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
    """Dotted ``repro.*`` module name of ``path``, or ``None``."""
    parts = path.parts
    if "repro" not in parts:
        return None
    dotted = list(parts[parts.index("repro"):-1])
    if path.stem != "__init__":
        dotted.append(path.stem)
    return ".".join(dotted)


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> imported dotted origin for every absolute import
    (``import numpy as np``: ``np -> numpy``; ``from time import
    perf_counter as pc``: ``pc -> time.perf_counter``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                aliases[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> Optional[str]:
    """Dotted name of a call target through the file's import aliases
    (``np.random.rand`` -> ``numpy.random.rand``), else ``None``."""
    parts: list[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(aliases.get(func.id, func.id))
    return ".".join(reversed(parts))


@dataclass
class LintReport:
    """Outcome of one lint run: findings plus accounting."""

    findings: list[Finding]
    n_files: int
    parse_errors: list[str]

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.parse_errors) else 0

    def to_json(self) -> str:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return json.dumps({
            "version": 1,
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "counts_by_code": counts,
            "parse_errors": self.parse_errors,
            "findings": [vars(f) for f in self.findings],
        }, indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.extend(f"parse error: {e}" for e in self.parse_errors)
        hinted = sorted({(f.code, f.hint) for f in self.findings})
        if hinted:
            lines.append("")
            lines.extend(f"  {code}: {hint}" for code, hint in hinted)
        lines.append(f"{len(self.findings)} finding(s) in {self.n_files} file(s)")
        return "\n".join(lines)


def collect_files(paths: Iterable["str | Path"]) -> list[Path]:
    """Sorted ``.py`` files under ``paths``: directories are walked
    (skipping caches, VCS internals and ``lint_fixtures``), explicit
    files are taken verbatim."""
    out: set[Path] = set()
    for p in map(Path, paths):
        if p.is_dir():
            out.update(
                f for f in p.rglob("*.py")
                if not _SKIP_DIRS.intersection(f.parts)
            )
        else:
            out.add(p)
    return sorted(out)


def lint_file(
    path: "str | Path", checkers: Sequence[Checker]
) -> "tuple[list[Finding], Optional[str]]":
    """Run ``checkers`` over one file; returns (findings, parse-error)."""
    path = Path(path)
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except (OSError, SyntaxError) as exc:
        return [], f"{path}: {exc}"
    ctx = LintContext(path=path, tree=tree, module=module_name_for(path))
    findings = {
        f for c in checkers if ctx.module_startswith(*c.scope) for f in c.check(ctx)
    }
    return sorted(findings), None


def lint_paths(
    paths: Iterable["str | Path"],
    checkers: Sequence[Checker],
    select: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every file under ``paths``; ``select`` restricts the run to
    the given codes (off-code findings are dropped)."""
    wanted = set(select) if select is not None else None
    if wanted is not None:
        checkers = [
            c for c in checkers if any(row[0] in wanted for row in c.catalogue())
        ]
    files = collect_files(paths)
    findings: list[Finding] = []
    errors: list[str] = []
    for f in files:
        found, err = lint_file(f, checkers)
        if err is not None:
            errors.append(err)
        findings.extend(x for x in found if wanted is None or x.code in wanted)
    return LintReport(sorted(findings), len(files), errors)
