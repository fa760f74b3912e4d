"""Self-tests for ``repro-lint``: every checker fires on its seeded
fixture at exactly the pinned (code, line) pairs, every clean twin is
silent, and the framework plumbing (suppressions, fixture skipping,
select, exit codes) behaves."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.lint.cli import ALL_CHECKERS, build_checkers, main
from repro.analysis.lint.framework import (
    collect_files,
    import_aliases,
    lint_paths,
    module_name_for,
    resolve_call,
)
from repro.analysis.lint.hostclock import (
    HARNESS_HOSTCLOCK_ALLOWLIST,
    HOST_CLOCK_CALLS,
)

FIXTURES = Path(__file__).parent / "lint_fixtures" / "repro"

#: fixture file -> exact sorted (code, line) pairs repro-lint must report.
VIOLATION_FIXTURES = {
    "sim/fx_hostclock_violation.py": [
        ("RPL101", 13), ("RPL101", 16), ("RPL101", 21),
    ],
    "core/fx_random_violation.py": [
        ("RPL201", 15), ("RPL201", 20), ("RPL201", 24), ("RPL201", 25),
    ],
    "core/fx_setiter_violation.py": [
        ("RPL202", 10), ("RPL202", 16), ("RPL202", 22),
    ],
    "core/fx_layer_violation.py": [
        ("RPL601", 7), ("RPL601", 8), ("RPL601", 9), ("RPL601", 14),
    ],
    "obs/fx_contract_violation.py": [
        ("RPL301", 11), ("RPL302", 13), ("RPL302", 14), ("RPL302", 24),
    ],
    "runtime/fx_frozen_violation.py": [
        ("RPL401", 9), ("RPL401", 14), ("RPL401", 15), ("RPL401", 20),
    ],
    "runtime/fx_float_violation.py": [
        ("RPL501", 9), ("RPL501", 15),
    ],
    "harness/fx_hostclock_harness_violation.py": [
        ("RPL102", 10), ("RPL102", 11),
    ],
}

CLEAN_FIXTURES = [
    "sim/fx_hostclock_clean.py",
    "harness/wallclock.py",
    "core/fx_random_clean.py",
    "core/fx_setiter_clean.py",
    "core/fx_layer_clean.py",
    "obs/fx_contract_clean.py",
    "runtime/fx_frozen_clean.py",
    "runtime/fx_float_clean.py",
]


def run_cli_json(paths, *extra):
    """Invoke the console entry point, return (exit_code, parsed report)."""
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--json", *extra, *[str(p) for p in paths]])
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("rel", sorted(VIOLATION_FIXTURES))
def test_checker_fires_at_pinned_lines(rel):
    expected = VIOLATION_FIXTURES[rel]
    code, report = run_cli_json([FIXTURES / rel])
    assert code == 1
    assert report["parse_errors"] == []
    got = sorted((f["code"], f["line"]) for f in report["findings"])
    assert got == sorted(expected)


@pytest.mark.parametrize("rel", CLEAN_FIXTURES)
def test_clean_twin_is_silent(rel):
    code, report = run_cli_json([FIXTURES / rel])
    assert code == 0
    assert report["n_findings"] == 0
    assert report["parse_errors"] == []


def test_findings_carry_hints_and_stable_order():
    _, report = run_cli_json(sorted(FIXTURES.rglob("fx_*.py")))
    assert report["n_findings"] == sum(
        len(v) for v in VIOLATION_FIXTURES.values()
    )
    for f in report["findings"]:
        assert f["hint"], f"finding without a fix-it hint: {f}"
    keys = [(f["path"], f["line"], f["col"], f["code"])
            for f in report["findings"]]
    assert keys == sorted(keys)


def test_every_code_has_exactly_one_checker():
    seen = {}
    for checker in build_checkers():
        for code, name, hint in checker.catalogue():
            assert code not in seen, f"{code} claimed twice"
            assert name and hint
            seen[code] = name
    assert sorted(seen) == [
        "RPL101", "RPL102", "RPL201", "RPL202", "RPL301", "RPL302",
        "RPL401", "RPL501", "RPL601",
    ]
    assert len(ALL_CHECKERS) == 8


@pytest.mark.parametrize("module", sorted(HARNESS_HOSTCLOCK_ALLOWLIST))
def test_hostclock_allowlist_entries_are_live(module):
    """An allowlist entry whose module is gone, or no longer reads a host
    clock, is a standing exemption nobody audits: drop it."""
    src = Path(__file__).parents[2] / "src"
    path = src.joinpath(*module.split(".")).with_suffix(".py")
    assert path.is_file(), f"allowlisted module {module} does not exist"
    tree = ast.parse(path.read_text())
    aliases = import_aliases(tree)
    assert any(
        isinstance(node, ast.Call)
        and resolve_call(node, aliases) in HOST_CLOCK_CALLS
        for node in ast.walk(tree)
    ), f"allowlisted module {module} reads no host clock"


def test_line_pragma_suppresses_exactly_that_code(tmp_path):
    target = tmp_path / "repro" / "sim" / "fx_pragma.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import time\n"
        "\n"
        "def a():\n"
        "    return time.time()  # repro-lint: disable=RPL101\n"
        "\n"
        "def b():\n"
        "    return time.time()\n"
    )
    code, report = run_cli_json([target])
    assert code == 1
    assert [(f["code"], f["line"]) for f in report["findings"]] == [
        ("RPL101", 7)
    ]


def test_file_pragma_suppresses_whole_file(tmp_path):
    target = tmp_path / "repro" / "sim" / "fx_pragma_file.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "# repro-lint: disable-file=RPL101\n"
        "import time\n"
        "\n"
        "def a():\n"
        "    return time.time()\n"
    )
    code, report = run_cli_json([target])
    assert code == 0
    assert report["n_findings"] == 0


def test_walk_skips_fixture_dirs_but_explicit_files_lint():
    walked = collect_files([Path(__file__).parent])
    assert not any("lint_fixtures" in f.parts for f in walked)
    explicit = collect_files(
        [FIXTURES / "sim" / "fx_hostclock_violation.py"]
    )
    assert len(explicit) == 1


def test_module_name_derivation():
    assert module_name_for(Path("src/repro/mining/hpa.py")) == (
        "repro.mining.hpa"
    )
    assert module_name_for(
        Path("tests/analysis/lint_fixtures/repro/sim/fx.py")
    ) == "repro.sim.fx"
    assert module_name_for(Path("src/repro/obs/__init__.py")) == "repro.obs"
    assert module_name_for(Path("tests/obs/test_bus.py")) is None


def test_select_restricts_codes():
    code, report = run_cli_json(
        [FIXTURES / "obs" / "fx_contract_violation.py"],
        "--select", "RPL301",
    )
    assert code == 1
    assert {f["code"] for f in report["findings"]} == {"RPL301"}


def test_cli_usage_errors_and_catalogue(capsys):
    assert main([]) == 2
    assert main(["--select", "RPL999", "src"]) == 2
    capsys.readouterr()
    assert main(["--list-codes"]) == 0
    out = capsys.readouterr().out
    for code in ("RPL101", "RPL102", "RPL201", "RPL202", "RPL301",
                 "RPL302", "RPL401", "RPL501"):
        assert code in out


def test_parse_error_fails_the_run(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = lint_paths([bad], build_checkers())
    assert report.exit_code == 1
    assert len(report.parse_errors) == 1


def test_output_writes_report_artifact(tmp_path):
    out = tmp_path / "artifacts" / "repro-lint.json"
    code, _ = run_cli_json(
        [FIXTURES / "sim" / "fx_hostclock_clean.py"], "--output", str(out)
    )
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk["n_findings"] == 0
