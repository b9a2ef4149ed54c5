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

from mnkbench.experiment import ExperimentConfig, cmd_all

BENCH = Path(__file__).resolve().parents[1] / "campaign_bench"


def _spans():
    spec = importlib.util.spec_from_file_location("campaign_bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced():
    return [
        (module, name) for module, names in _spans().TRACED.items() for name in names
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


def test_tracer_sees_instance_and_pareto_io_under_the_commands(tmp_path, monkeypatch):
    # the per-layer load and generation times come from these spans; a name
    # the store held in a table or a default argument would hide them
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("mnkbench"):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)  # undone after the test
    tracer = _spans().Tracer()
    tracer.install()
    config = ExperimentConfig(
        master_seed=9, n_vars=8, k_values=(2, 4), m_values=(2, 3), landscapes_per_cell=1,
        runs_per_instance=3, epsilon=0.4, t_max=64, pop_size=12, pgm_size=6, sample_size=24,
        max_parents=2, output_dir=str(tmp_path / "out"),
    )
    cmd_all(config)
    spans = tracer.spans

    def under_a_command(index):
        while index >= 0 and not spans[index][0].startswith("experiment.cmd_"):
            index = spans[index][3]
        return index >= 0

    for name in (
        "landscape.load_instance", "enumeration.load_pareto_json", "landscape.generate_instance"
    ):
        found = [i for i, span in enumerate(spans) if span[0] == name]
        assert found, f"no {name} span"
        assert all(under_a_command(spans[i][3]) for i in found), f"{name} outside experiment.cmd_*"
