"""Smoke tests: every shipped example must run cleanly end to end.

Two layers:

- a parametrised in-process test importing each example and calling its
  ``main(fast=True)`` at tiny scale — cheap enough for every CI run;
- the full subprocess run at default scale with a generous timeout
  (``paper_scale.py`` takes minutes at its default, so its subprocess
  run is ``--fast`` too).

Failures here mean the public API drifted under the documentation.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
EXAMPLES = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
#: Examples whose default scale is too long for the suite.
FAST_ONLY = {"paper_scale.py"}


def load_example(script: str):
    """Import an example script as a throwaway module."""
    path = ROOT / "examples" / script
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_examples_discovered():
    assert len(EXAMPLES) >= 8
    assert "quickstart.py" in EXAMPLES
    assert "custom_scenario.py" in EXAMPLES
    assert FAST_ONLY <= set(EXAMPLES)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_main_is_fast_parametrisable(script):
    """Every example exposes ``main(fast: bool = False)``."""
    module = load_example(script)
    assert callable(getattr(module, "main", None)), f"{script} has no main()"
    import inspect

    params = inspect.signature(module.main).parameters
    assert "fast" in params, f"{script} main() lacks the fast= parameter"
    assert params["fast"].default is False


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_tiny_scale(script, capsys):
    """Import-and-main at tiny scale: the documented code paths work."""
    module = load_example(script)
    module.main(fast=True)
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output in fast mode"


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)]
        + (["--fast"] if script in FAST_ONLY else []),
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr[-2000:]}"
    assert proc.stdout.strip(), f"{script} produced no output"
