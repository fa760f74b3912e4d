"""Every callable the benchmark's traced pass wraps must still exist
where ``benchmarks/perf/perfbench/layers.py`` says it does.

``Tracer.patch_method`` replaces ``cls.__dict__[attr]`` (the class that
*defines* the method) and ``patch_function`` starts from
``getattr(module, attr)``; a rename or a hoist into a base class breaks
the traced pass only, which tier-1 does not run.  The target tables are
read from the source with ``ast`` — the benchmark is not imported.
"""

import ast
import importlib
import re
from pathlib import Path

LAYERS = Path(__file__).parents[2] / "benchmarks" / "perf" / "perfbench" / "layers.py"


def _targets():
    tables = {}
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("METHOD_TARGETS", "FUNCTION_TARGETS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_every_traced_target_resolves():
    tables = _targets()
    assert len(tables["METHOD_TARGETS"]) >= 30 and len(tables["FUNCTION_TARGETS"]) >= 10
    missing = []
    for module, cls_name, attr, _span in tables["METHOD_TARGETS"]:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{module}.{cls_name}.{attr}")
    for module, attr, _span in tables["FUNCTION_TARGETS"]:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    assert not missing, f"benchmark targets no longer defined there: {missing}"


#: Wrapped callables nothing under ``src/`` calls any more.  They stay
#: only because ``layers.py`` (which a non-``[benchmark]`` PR may not
#: edit) names them: the next ``[benchmark]`` PR drops exactly these
#: rows together with their functions.
DEAD_BUT_PINNED = {
    "count_resident_batch",
    "count_candidates",
    # Orphaned when counts moved to ``counts[code]``: nothing is deferred
    # any more, and drivers call ``SwapManager.count_span_codes`` directly.
    "flush_span_counts",
    "count_resident_span",
    # Public and kept as a batch of one, but the report folds every CI
    # through ``summarize_batch``: the next ``[benchmark]`` PR traces
    # that instead and drops this row (the function stays).
    "bootstrap_ci",
}


#: Mailbox stat keys that read a constant and stay only because
#: ``layers.py`` reads them: no put waits on an unbounded mailbox, so
#: ``blocked_puts`` is always 0.  The ``[benchmark]`` PR that stops
#: reading a key deletes it from ``Mailbox.stats()`` in the same change.
CONSTANT_BUT_PINNED = {"blocked_puts"}


def _mailbox_stat_keys():
    """The keys ``layers.py`` subscripts off each value of
    ``transport.stats()`` (its ``for mbox in ...stats().values()`` loops)."""
    keys = set()
    for loop in ast.walk(ast.parse(LAYERS.read_text())):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)):
            continue
        if "transport.stats().values()" not in ast.unparse(loop.iter):
            continue
        keys |= {
            node.slice.value
            for node in ast.walk(loop)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == loop.target.id
            and isinstance(node.slice, ast.Constant)
        }
    return keys


def test_mailbox_stats_carry_the_keys_the_benchmark_reads():
    from repro.cluster import Cluster
    from repro.sim import Environment

    keys = _mailbox_stat_keys()
    assert {"peak_depth", "blocked_puts"} <= keys
    env = Environment()
    cluster = Cluster(env, 2)
    env.process(cluster.transport.send(0, 1, "probe", None, 64))
    env.run()
    stats = cluster.transport.stats()
    assert stats and all(keys <= set(mbox) for mbox in stats.values())


def test_constant_stat_keys_are_still_read_and_still_zero():
    from repro.datagen import generate
    from repro.mining.hpa import HPAConfig, HPARun

    assert CONSTANT_BUT_PINNED <= _mailbox_stat_keys()
    run = HPARun(
        generate("T8.I3.D300", n_items=60, seed=3),
        HPAConfig(
            minsup=0.02, n_app_nodes=4, n_memory_nodes=2, pager="remote",
            memory_limit_bytes=16384, total_lines=128, seed=1,
        ),
    )
    run.run()
    stats = run.cluster.transport.stats()
    assert all(
        mbox[key] == 0 for mbox in stats.values() for key in CONSTANT_BUT_PINNED
    )


def test_every_traced_target_is_called_from_src():
    """A wrapped callable with no call site left is dead code the
    benchmark keeps alive; the set of those must not grow unnoticed."""
    tables = _targets()
    names = {attr for _m, _c, attr, _s in tables["METHOD_TARGETS"]}
    names |= {attr for _m, attr, _s in tables["FUNCTION_TARGETS"]}
    names = {n for n in names if not n.startswith("__")}
    source = "\n".join(
        path.read_text() for path in sorted((LAYERS.parents[3] / "src").rglob("*.py"))
    )
    uncalled = {
        name for name in names
        if not re.search(rf"(?<!def )\b{name}\(", source)
    }
    assert uncalled == DEAD_BUT_PINNED


def test_benchmarks_holds_no_second_test_tree():
    """``benchmarks/`` is the measuring harness under ``perf/`` and
    nothing else: the paper's claims are tier-1 tests
    (``test_paper_claims.py``), not wrappers outside ``testpaths`` that
    need a plugin and that no job runs."""
    root = LAYERS.parents[3]
    stray = [
        str(path.relative_to(root))
        for pattern in ("bench_*.py", "conftest.py")
        for path in (root / "benchmarks").rglob(pattern)
        if path.relative_to(root / "benchmarks").parts[0] != "perf"
    ]
    assert not stray
    assert 'python_files = ["test_*.py"]' in (root / "pyproject.toml").read_text()
    plugin = re.compile("pytest[-_]benchmark")
    users = [
        str(path.relative_to(root))
        for tree in ("tests", "src", "examples")
        for path in sorted((root / tree).rglob("*.py"))
        if plugin.search(path.read_text())
    ]
    assert not users
