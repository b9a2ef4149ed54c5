"""The campaign store: atomic writes, the temp-file sweep, and a campaign
killed at seeded moments that resumes to the bytes of an uninterrupted one."""

import contextlib
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import mnkbench
from mnkbench import store
from mnkbench.experiment import ExperimentConfig, cmd_all, cmd_gen

SRC = Path(mnkbench.__file__).resolve().parents[1]


def _config(root: Path) -> ExperimentConfig:
    return ExperimentConfig(
        master_seed=11,
        n_vars=12,
        k_values=(2, 4),
        m_values=(2, 3),
        landscapes_per_cell=2,
        runs_per_instance=6,
        epsilon=0.3,
        t_max=150,
        pop_size=16,
        pgm_size=8,
        sample_size=32,
        max_parents=2,
        output_dir=str(root),
    )


def _files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def _digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in _files(root):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait(timeout=30)
    return child.pid


def test_atomic_write_that_raises_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out" / "file.json"

    def write(tmp):
        tmp.write_bytes(b"half a file")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        store._atomic(target, write)
    assert list(target.parent.iterdir()) == []


def test_commands_sweep_only_dead_writers_temp_files(tmp_path):
    config = _config(tmp_path / "out")
    root = Path(config.output_dir)
    dead, live = _dead_pid(), os.getpid()
    planted = {
        directory: (root / directory / f"x.json.tmp{dead}", root / directory / f"x.json.tmp{live}")
        for directory in ("instances", "pareto", "runs/mboa/x", "features", "reports/pmf_view")
    }
    not_ours = root / "pareto" / "notes.tmp12a"
    for path in [not_ours, *(p for pair in planted.values() for p in pair)]:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")

    cmd_gen(config)  # sweeps instances/ alone
    assert not planted["instances"][0].exists()
    assert all(stale.exists() for stale, _ in list(planted.values())[1:])

    cmd_all(config)
    for stale, in_flight in planted.values():
        assert not stale.exists(), stale
        assert in_flight.exists(), in_flight
    assert not_ours.exists()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    config = _config(tmp_path_factory.mktemp("uninterrupted"))
    cmd_all(config)
    root = Path(config.output_dir)
    return config, len(_files(root)), _digest(root)


def _launch(cfg_path: Path, jobs: int) -> subprocess.Popen:
    argv = ["-m", "mnkbench.cli", "--config", str(cfg_path), "--jobs", str(jobs), "all"]
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # its own process group, workers included
    )


def _gone(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("jobs", [1, 2])
def test_killed_campaign_resumes_to_the_bytes_of_an_uninterrupted_one(
    uninterrupted, tmp_path, jobs
):
    reference, total, expected = uninterrupted
    config = replace(reference, output_dir=str(tmp_path / "killed"))
    root = Path(config.output_dir)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    rng = random.Random(jobs)
    codes, groups = [], []
    for _ in range(3):
        # the kill comes once a seeded number of new files is on disk, plus
        # a seeded few milliseconds, so it lands inside the campaign's work
        target = sum(".tmp" not in p.name for p in _files(root)) + rng.randint(1, 40)
        child = _launch(cfg_path, jobs)
        deadline = time.monotonic() + 60
        while child.poll() is None and time.monotonic() < deadline:
            if sum(".tmp" not in p.name for p in _files(root)) >= target:
                break
            time.sleep(0.005)
        time.sleep(rng.uniform(0.0, 0.02))
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        codes.append(child.wait(timeout=60))
        groups.append(child.pid)
    assert -signal.SIGKILL in codes
    # a killed worker's pid stays live, and its temp file with it, until the
    # orphan is reaped; the resume starts once every killed process is gone
    deadline = time.monotonic() + 60
    while not all(map(_gone, groups)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _launch(cfg_path, jobs).wait(timeout=120) == 0
    assert len(_files(root)) == total
    assert _digest(root) == expected
