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
  call, for both optimizers, on runs that succeed at generation 0, succeed
  inside a later batch, succeed exactly at a batch boundary, and are
  censored with a truncated last batch;
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
        "733eab1215f336b4f80bc6b7ad42874a8085f9e38007c19808b3323c5c6a6336",
    ),
    # success inside a later batch, prefix shorter than the batch
    "mid-batch": (
        (3, 2, 0.3, 0, 600),
        "afa02c3d6ce073233de56ba57950ccb5361bfe04a4d0d417991b6fdfa4a7093d",
    ),
    "mid-batch-late": (
        (2, 4, 0.2, 3, 600),
        "cd8f72698159733f5f3498f38af53570f5bb1e71b6335fc5c30026b2af5b44c0",
    ),
    # NSGA-III needs its whole batch, so the charge is the batch boundary
    "batch-boundary": (
        (3, 2, 0.3, 1, 600),
        "4ebd8d3a9e29e34bdf90dfb61664e6522cd6fe51cee87fc68c4c181c00704e47",
    ),
    # every run censored; the last batch is cut from 32 (or 16) to 6
    "censored-truncated": (
        (2, 4, 0.1, 0, 150),
        "7d8cdb8404a64df862d1ee56bb2f0e1719b4137144780ebc6ecc354a4a58af0a",
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

    params = RunParams(
        pop_size=16,
        pgm_size=8,
        sample_size=32,
        t_max=t_max,
        epsilon=epsilon,
        seed=seed,
        max_parents=2,
    )
    for run in (mboa_run, nsga3_run):
        digest.update(run.__name__.encode())
        _feed_result(digest, run(instance, exact, params, on_generation=hook))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_results_locked(case):
    args, expected = RUN_CASES[case]
    assert _run_case_digest(*args) == expected


CAMPAIGN_DIGEST = (
    "7cadd4520dab4e34d3c15a67410a3f9a4588e4984bf7c1a5dc41b51ead1662ec"
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
