"""The campaign benchmark reaches into mnkbench by name: its tracer wraps
the functions in ``spans.TRACED`` and its checks import program names.  A
deleted or renamed one makes a benchmark round fail, so it fails here first.
So does a change its names alone do not show: a signature that its checks'
direct calls no longer bind, or a run function the tracer no longer sees.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "campaign_bench"


def _traced():
    spec = importlib.util.spec_from_file_location("campaign_bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [
        (module, name) for module, names in spans.TRACED.items() for name in names
    ]


def _checks_imports():
    tree = ast.parse((BENCH / "checks.py").read_text(encoding="utf-8"))
    return [
        (node.module.removeprefix("mnkbench").lstrip("."), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mnkbench")
        for alias in node.names
    ]


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"mnkbench.{module}"), name, None))


def test_checks_import_existing_names():
    imports = _checks_imports()
    assert imports
    for module, name in imports:
        target = importlib.import_module(f"mnkbench.{module}" if module else "mnkbench")
        assert hasattr(target, name), f"mnkbench.{module} has no {name}"


def test_benchmark_selfcheck_passes():
    # a tiny campaign through the CLI, checked, corrupted and traced; it
    # writes only under the git-ignored .campaign_bench/selfcheck/
    result = subprocess.run(
        [sys.executable, str(BENCH / "selfcheck.py")],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
