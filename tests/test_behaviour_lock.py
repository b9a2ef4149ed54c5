"""Behaviour lock: SHA-256 digests of outputs that refactors must not change.

Each test hashes a canonical byte serialization of results the program
produces and compares it with a digest recorded from the code as it stood
before the refactor it guards: the optimizer loop's unification for the
runs, the campaign and the hypervolume, and the spanning-tree connectivity
for the offline stage.  A refactor or speed-up that keeps
these digests has kept every locked byte; one that changes them has changed
behaviour, and the new digest needs a stated reason, not a silent update.

Locked:

* ``RunResult`` fields (success, evaluations, generations, final front bits
  and objectives, model structure and CPTs) and every ``on_generation``
  call, for both optimizers under both success cadences, on runs that
  succeed at generation 0, succeed inside a later batch, succeed exactly at
  a batch boundary, and are censored with a truncated last batch;
* every file (instances, Pareto sets, run records, models, reports) of the
  criterion-10 campaign run with ``cmd_all``;
* ``monte_carlo_hypervolume`` on one fixed M=5 front;
* the offline stage at N=18, where enumeration runs several chunks: the
  ``enumerate_pareto`` bytes and (avgd, maxd, nconnec, lconnec, kconnec)
  of three fronts of 129 to 1,475 points.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mnkbench.enumeration import enumerate_pareto
from mnkbench.experiment import ExperimentConfig, cmd_all
from mnkbench.features import connectivity, monte_carlo_hypervolume, pareto_distances
from mnkbench.landscape import generate_instance
from mnkbench.optimizers import RunParams, mboa_run, nsga3_run


def _feed_array(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def _feed_result(digest, result) -> None:
    digest.update(repr((result.success, result.evaluations, result.generations)).encode())
    _feed_array(digest, result.front_bits)
    _feed_array(digest, result.front_objectives)
    if result.model is None:
        digest.update(b"no model")
        return
    structure, cpts = result.model
    digest.update(repr((structure.ordering, structure.parents)).encode())
    for table in cpts.tables:
        _feed_array(digest, table)


# (m, k, epsilon, run seed, t_max) on generate_instance(5, 10, m, k), run with
# pop_size 16, pgm_size 8, sample_size 32, max_parents 2
RUN_CASES = {
    # both optimizers succeed inside the initial population
    "generation-0": (
        (2, 4, 0.2, 0, 600),
        "8b661e0ad94335392ab3f4105df35e0de026255453b3b3b791f91dd5d7606b87",
    ),
    # success inside a later batch, prefix shorter than the batch
    "mid-batch": (
        (3, 2, 0.3, 0, 600),
        "22e3e7a54212f39d199152ac49593c662c35a86a25b0760533a0c933b141a8e8",
    ),
    "mid-batch-late": (
        (2, 4, 0.2, 3, 600),
        "8e769cc99ffb399c82da0e9b12d1e5ff0fa50618f89cdf66569ea2d52d7d66b3",
    ),
    # NSGA-III needs its whole batch: per_evaluation charges the boundary
    "batch-boundary": (
        (3, 2, 0.3, 1, 600),
        "f2d888d5b687045b9dad9c7f7bc8bbcd40ece3c3a50558c780ffc6a6e5949953",
    ),
    # every run censored; the last batch is cut from 32 (or 16) to 6
    "censored-truncated": (
        (2, 4, 0.1, 0, 150),
        "023fdff18eaa85b92012520044e6b7b4029d9ee0519ba85f729ccbba8d13466e",
    ),
}


def _run_case_digest(m: int, k: int, epsilon: float, seed: int, t_max: int) -> str:
    instance = generate_instance(5, 10, m, k)
    exact = enumerate_pareto(instance)
    digest = hashlib.sha256()

    def hook(generation, bits, objs):
        digest.update(repr(generation).encode())
        _feed_array(digest, bits)
        _feed_array(digest, objs)

    for cadence in ("per_evaluation", "per_batch"):
        params = RunParams(
            pop_size=16,
            pgm_size=8,
            sample_size=32,
            t_max=t_max,
            epsilon=epsilon,
            seed=seed,
            max_parents=2,
            success_cadence=cadence,
        )
        for run in (mboa_run, nsga3_run):
            digest.update(f"{cadence} {run.__name__}".encode())
            _feed_result(digest, run(instance, exact, params, on_generation=hook))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_results_locked(case):
    args, expected = RUN_CASES[case]
    assert _run_case_digest(*args) == expected


CAMPAIGN_DIGEST = (
    "8a36bbcf7792a4764a1010c99f6acddc09d632a1db16b58846f4486a81ab7238"
)


def test_criterion_10_campaign_files_locked(tmp_path):
    config = ExperimentConfig(
        master_seed=31,
        n_vars=10,
        k_values=(2, 4),
        m_values=(2, 3),
        landscapes_per_cell=3,
        runs_per_instance=3,
        epsilon=0.3,
        t_max=150,
        pop_size=16,
        pgm_size=8,
        sample_size=32,
        max_parents=2,
        output_dir=str(tmp_path / "campaign"),
    )
    cmd_all(config, jobs=1)
    root = Path(config.output_dir)
    digest = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    assert any(p.name.endswith(".model.json") for p in files)
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == CAMPAIGN_DIGEST


def test_monte_carlo_hypervolume_locked():
    front = enumerate_pareto(generate_instance(4, 10, 5, 2)).objectives
    estimate, stderr = monte_carlo_hypervolume(front, np.zeros(5), samples=500_000, seed=3)
    assert (estimate.hex(), stderr.hex()) == (
        "0x1.832e13277e3a1p-3",
        "0x1.500a1bd685ed9p-13",
    )


# (M, K) on generate_instance(7, 18, M, K): fronts of 129, 1,475 and 1,455
# points with 45, 66 and 456 distance-1 components and kconnec 5, 3 and 4
OFFLINE_CASES = {
    (3, 4): "23e0c1d975c6ab1526790026d50a1b17dd073c8aead22adfe84f5e917413d7b5",
    (5, 4): "a3c7603a525404f5f3723755d61a48bb44d36261efc979daa8e741bda2947d63",
    (5, 8): "9102fa0bfaa9c56d7ef9b6156d1076e76346eb6bba62e0586b461ebb261a1e54",
}


@pytest.mark.parametrize("m, k", sorted(OFFLINE_CASES))
def test_offline_stage_locked(m, k):
    pareto = enumerate_pareto(generate_instance(7, 18, m, k))
    digest = hashlib.sha256()
    digest.update(pareto.instance_id.encode())
    _feed_array(digest, pareto.solutions)
    _feed_array(digest, pareto.objectives)
    avgd, maxd = pareto_distances(pareto)
    nconnec, lconnec, kconnec = connectivity(pareto)
    digest.update(repr((avgd.hex(), maxd.hex(), nconnec, lconnec.hex(), kconnec)).encode())
    assert digest.hexdigest() == OFFLINE_CASES[(m, k)]
