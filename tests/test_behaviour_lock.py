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
* both optimizers at the default population sizes (100, 50 parents, 1,000
  samples) at M=2, 5 and 8, where the EDA ranks pools of 1,100 rows;
* NSGA-III alone at M=5 and M=8 with populations of 40 to 100, where the
  reference-direction survival keeps a generation of whole fronts, keeps
  whole fronts ahead of a niched split front, and picks from niches that
  already hold members;
* every file of the criterion-10 campaign run with ``cmd_all``, under two
  digests: one over the files outside ``features/`` (instances, Pareto sets,
  run records, models, reports), which predates the per-instance feature
  files and so shows that adding them changed no other byte, and one over
  ``features/``;
* ``monte_carlo_hypervolume`` on one fixed M=5 front;
* ``k2_learn`` alone on 60 seeded 50x18 datasets (the default ``pgm_size``
  by N) with ``max_parents`` 3 and random orderings, among them datasets
  with duplicated and noisy copied columns, so greedy steps add up to three
  parents and break score ties;
* ``evaluate_batch`` on seeded random batches of 0 to 20,000 rows, which
  cross every row-block edge, as uint8, bool and int64 arrays, at K=0,
  K=N-1, M=1 and M=8;
* the offline stage at N=18, where enumeration runs several chunks: the
  ``enumerate_pareto`` bytes and (avgd, maxd, nconnec, lconnec, kconnec)
  of three fronts of 129 to 1,475 points;
* ``enumerate_pareto`` at N=17, M=8, K=10, whose two chunks reduce to a
  front of 12,344 points;
* ``enumerate_pareto`` alone at N from 1 to 18 (either side of 11 and of
  16 bits), with K=0, K=N-1 and M=1 among the cases, and at N=10 with
  ``_CHUNK`` cut to 64 so sixteen chunks run;
* ``regression_report`` bytes, as ``regression.json`` writes them, on
  seeded feature and ert tables: a grid where every feature varies (the
  multiple model and its elimination ladder), a single-K grid, and a
  single-M grid of 8 instances (leave-one-out CV), each under both censored
  modes, with an algorithm that never succeeds under ``impute_tmax``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mnkbench import enumeration
from mnkbench.analysis import estimate_ert, regression_report
from mnkbench.bayesnet import k2_learn
from mnkbench.enumeration import enumerate_pareto
from mnkbench.experiment import ExperimentConfig, cmd_all
from mnkbench.features import (
    FeatureVector,
    connectivity,
    monte_carlo_hypervolume,
    pareto_distances,
)
from mnkbench.landscape import evaluate_batch, generate_instance
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


def _runs_digest(instance, params: RunParams, runs) -> str:
    """Digest of each run's ``on_generation`` calls and result, in turn."""
    exact = enumerate_pareto(instance)
    digest = hashlib.sha256()

    def hook(generation, bits, objs):
        digest.update(repr(generation).encode())
        _feed_array(digest, bits)
        _feed_array(digest, objs)

    for run in runs:
        digest.update(run.__name__.encode())
        _feed_result(digest, run(instance, exact, params, on_generation=hook))
    return digest.hexdigest()


def _run_case_digest(m: int, k: int, epsilon: float, seed: int, t_max: int) -> str:
    params = RunParams(
        pop_size=16,
        pgm_size=8,
        sample_size=32,
        t_max=t_max,
        epsilon=epsilon,
        seed=seed,
        max_parents=2,
    )
    return _runs_digest(generate_instance(5, 10, m, k), params, (mboa_run, nsga3_run))


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_results_locked(case):
    args, expected = RUN_CASES[case]
    assert _run_case_digest(*args) == expected


# (instance seed, n, m, k, pop_size, t_max, run seed) run by nsga3_run alone at
# epsilon 0, so every run is censored and its last batch truncated.  At M=8
# the first front outgrows the population in every generation.
NSGA3_CASES = {
    # one generation keeps exactly pop_size members of whole fronts
    "m5-whole-fronts": (
        (0, 12, 5, 2, 40, 470, 3),
        "2538e629ab4d304daf63714ad390abd0dab332e2a30557207692dcdd8d5eb106",
    ),
    # two generations keep whole fronts ahead of the niched split front
    "m5-fronts-then-niche": (
        (5, 10, 5, 2, 100, 970, 0),
        "659f8c73111db7a45ef64d2cba72bdd1eaa4a5d852585111d1b1b3bc47d67b6e",
    ),
    "m8-niche": (
        (5, 10, 8, 2, 60, 590, 0),
        "8f1433fd125ac6019aaf88df2f5aa9b08b0e5d61d59f68ff065cf00b5e1becb1",
    ),
}


@pytest.mark.parametrize("case", sorted(NSGA3_CASES))
def test_nsga3_survival_locked(case):
    (instance_seed, n, m, k, pop_size, t_max, seed), expected = NSGA3_CASES[case]
    params = RunParams(
        pop_size=pop_size, pgm_size=1, sample_size=1, t_max=t_max, epsilon=0.0, seed=seed
    )
    instance = generate_instance(instance_seed, n, m, k)
    assert _runs_digest(instance, params, (nsga3_run,)) == expected


# M -> digest of mboa_run and nsga3_run on generate_instance(11, 12, M, 3) at
# the default population sizes, censored at epsilon 0: the EDA's merged pools
# of 1,100 rows span several 128-row blocks of the non-dominated sort
DEFAULT_SIZE_CASES = {
    2: "ec19e37097dd3812042edc3c8cc776539d622ed1084fcb8c828e989f23f21c5e",
    5: "23392d1749531ce240a32a127cb6b08bc0a6983ae9ae2431b83fc4cc009134db",
    8: "64ea0c7bf28d477d1829442cffd711ec97cf8ef2c6ee83744a04e54d05142c27",
}


@pytest.mark.parametrize("m", sorted(DEFAULT_SIZE_CASES))
def test_default_size_runs_locked(m):
    params = RunParams(
        pop_size=100, pgm_size=50, sample_size=1000, t_max=4000, epsilon=0.0, seed=1
    )
    instance = generate_instance(11, 12, m, 3)
    digest = _runs_digest(instance, params, (mboa_run, nsga3_run))
    assert digest == DEFAULT_SIZE_CASES[m]


# moved once on purpose: the intercept-only rows of nsga3 in regression.json
# ("none" and the last elimination step) report r 0.0, not 1.27e-16
CAMPAIGN_DIGEST = (
    "a9ef27846ba2392b23fb0b078fa383f0eda5d7cf11ffdf817c89c0b87dfdc8da"
)
FEATURES_DIGEST = (
    "3b5ccbb7bcede39d884ef52035425b63d84e17b0e7b0fe238742528c81dd237e"
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
    files = sorted(p for p in root.rglob("*") if p.is_file())
    assert any(p.name.endswith(".model.json") for p in files)
    # every file falls under exactly one of the two digests
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    for path in files:
        relative = path.relative_to(root)
        digest = digests[relative.parts[0] == "features"]
        digest.update(relative.as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    assert digests[False].hexdigest() == CAMPAIGN_DIGEST
    assert digests[True].hexdigest() == FEATURES_DIGEST


def test_monte_carlo_hypervolume_locked():
    front = enumerate_pareto(generate_instance(4, 10, 5, 2)).objectives
    estimate, stderr = monte_carlo_hypervolume(front, np.zeros(5), samples=500_000, seed=3)
    assert (estimate.hex(), stderr.hex()) == (
        "0x1.832e13277e3a1p-3",
        "0x1.500a1bd685ed9p-13",
    )


K2_DIGEST = "739590ac91d6468e11202b0fe7113ff047bad1e620c58d553d66ef7aaa2e7de3"


def _k2_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A 50x18 dataset and an ordering; every third copies columns exactly,
    every third copies them with one flip in ten."""
    rng = np.random.default_rng([seed, 50, 18])
    data = rng.integers(0, 2, size=(50, 18), dtype=np.uint8)
    if seed % 3:
        sources = rng.integers(0, 18, size=6)
        targets = rng.integers(0, 18, size=6)
        flips = (rng.random((50, 6)) < 0.1) if seed % 3 == 2 else np.zeros((50, 6), bool)
        data[:, targets] = data[:, sources] ^ flips
    return data, rng.permutation(18)


def test_k2_structures_locked():
    digest = hashlib.sha256()
    for seed in range(60):
        structure = k2_learn(*_k2_dataset(seed), 3)
        digest.update(repr((structure.ordering, structure.parents)).encode())
    assert digest.hexdigest() == K2_DIGEST


# (instance seed, N, M, K) -> digest of evaluate_batch on random batches of
# every size in EVALUATE_SIZES, each given as uint8, bool and int64
EVALUATE_SIZES = (0, 1, 8_191, 8_192, 8_193, 20_000)
EVALUATE_CASES = {
    "n18-m2-k2": (
        (7, 18, 2, 2),
        "88be11a4dba6e454856cda1e61385e69c8d9fbf15bea4abf2d023c1e3fe7aa7b",
    ),
    "n18-m5-k8": (
        (7, 18, 5, 8),
        "b34aea5924bf87e4b5bbc57da74b7178d90f9646a85e12b5e98dcab86a6e0b9d",
    ),
    "n10-m1-k0": (
        (3, 10, 1, 0),
        "553a986661d4c25f79809b7589c5208d5da50d57048938c9d5110d4affe9adad",
    ),
    "n10-m8-k9": (
        (4, 10, 8, 9),
        "e65c245885a36f0eaf895be6dd37cbd3d94648e64f7be239cc033c3d8149edec",
    ),
    "n14-m3-k13": (
        (5, 14, 3, 13),
        "4707f48c825dfea34b4f9a96916a8c741529df8dd15405e786818be0823d9c29",
    ),
}


def _evaluate_digest(seed: int, n: int, m: int, k: int) -> str:
    instance = generate_instance(seed, n, m, k)
    rng = np.random.default_rng([seed, n, m, k])
    digest = hashlib.sha256()
    for size in EVALUATE_SIZES:
        bits = rng.integers(0, 2, size=(size, n), dtype=np.uint8)
        for dtype in (np.uint8, np.bool_, np.int64):
            _feed_array(digest, evaluate_batch(instance, bits.astype(dtype)))
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(EVALUATE_CASES))
def test_evaluate_batch_locked(case):
    args, expected = EVALUATE_CASES[case]
    assert _evaluate_digest(*args) == expected


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


def test_m8_enumeration_locked():
    # two 65,536-row chunks and a 12,344-point front: the Pareto filter on
    # rows past the screen sizes and across many sort blocks
    pareto = enumerate_pareto(generate_instance(7, 17, 8, 10))
    digest = hashlib.sha256()
    digest.update(pareto.instance_id.encode())
    _feed_array(digest, pareto.solutions)
    _feed_array(digest, pareto.objectives)
    assert pareto.size == 12344
    assert digest.hexdigest() == "f6b47a80baadf59daa9f148c2407cf2866a0fa5a60a8d71a116237f1cacb9966"


# (instance seed, N, M, K, chunk) -> digest of enumerate_pareto's instance id,
# solutions and objectives; a chunk of None keeps enumeration._CHUNK.  The
# cases cover K=0, K=N-1, M=1, N from 1 to 18 on both sides of 11 and 16,
# and sixteen 64-code chunks at N=10
ENUMERATE_CASES = {
    "n1-m2-k0": (
        (2, 1, 2, 0, None),
        "e6524da97d7c3daccccde75278638d09e97c18a4442976db9ff857a01acd8e37",
    ),
    "n5-m2-k0": (
        (2, 5, 2, 0, None),
        "a5da33db50723ec32260f007bd3f3afd6b8a5c4ad65200ad2456bac049dce04b",
    ),
    "n5-m3-k4": (
        (3, 5, 3, 4, None),
        "d98239426a37256cfd57ab757054cba734346940ca9aff4a33793db014dcf1bd",
    ),
    "n10-m3-k3-chunk64": (
        (5, 10, 3, 3, 64),
        "9003bd99cb9bbf71b5ec37d7fd4064f0fd046a99de3940ea87bee22d4b656ea9",
    ),
    "n11-m1-k10": (
        (4, 11, 1, 10, None),
        "574fecd5c773ded68ec359eccbdf5e7d2e8b3cdc737bd68b735def1bd6208fc7",
    ),
    "n11-m4-k3": (
        (4, 11, 4, 3, None),
        "b792d4c23f374bbc6cbf9371cedf4b91f41d1ca464c2e7f04872561125fb8176",
    ),
    "n12-m2-k11": (
        (6, 12, 2, 11, None),
        "fbbe9ab4a41f0d07e08ebc07860870396a91161b2e6aeeb987d573aa834122b8",
    ),
    "n12-m1-k0": (
        (6, 12, 1, 0, None),
        "91a9b61b5bf7720783063ace814bd419c08f02da1fe50fb5facaeff7eaadbcb2",
    ),
    "n16-m5-k5": (
        (8, 16, 5, 5, None),
        "aba89bd3cb13aa75963ec82e8fcf7fe3deec5bc242afb9ca263181bb4ad02045",
    ),
    "n18-m2-k2": (
        (7, 18, 2, 2, None),
        "0cf71f38910de05403bc0675e4ab58055db70e8c22ee015d55dd156ad0863441",
    ),
    "n18-m3-k10": (
        (7, 18, 3, 10, None),
        "0a69df3143758dada192fb78ddeb9fe0de368f6ae84da90029166fa823dfd08b",
    ),
}


@pytest.mark.parametrize("case", sorted(ENUMERATE_CASES))
def test_enumerate_pareto_locked(monkeypatch, case):
    (seed, n, m, k, chunk), expected = ENUMERATE_CASES[case]
    if chunk is not None:
        monkeypatch.setattr(enumeration, "_CHUNK", chunk)
    pareto = enumerate_pareto(generate_instance(seed, n, m, k))
    digest = hashlib.sha256()
    digest.update(pareto.instance_id.encode())
    _feed_array(digest, pareto.solutions)
    _feed_array(digest, pareto.objectives)
    assert digest.hexdigest() == expected


# grid -> (seed, instances, K values, M values) of the seeded feature tables
REGRESSION_GRIDS = {
    # every feature varies: the multiple model and its elimination ladder
    "multi": (1, 40, (2, 4, 6, 8, 10), (2, 3, 5, 8)),
    # log(k) is constant, so the multiple model is skipped
    "single-k": (2, 24, (4,), (2, 3, 5, 8)),
    # log(m) is constant and 8 instances make the 10-fold CV leave-one-out
    "single-m-loo": (3, 8, (2, 6, 10), (3,)),
}


def _regression_tables(seed, count, k_values, m_values):
    """Seeded features and ert records for "mboa" (ert unrelated to the
    features), "nsga3" (ert growing with K) and "flat" (never solved)."""
    rng = np.random.default_rng([seed, count])
    features, records = {}, []
    for i in range(count):
        iid = f"g{seed}-i{i:03d}"
        k = int(rng.choice(k_values))
        features[iid] = FeatureVector(
            m=int(rng.choice(m_values)),
            k=k,
            npo=int(rng.integers(2, 2000)),
            hv=float(rng.random()),
            avgd=float(rng.random() * 5),
            maxd=float(rng.random() * 5 + 5),
            nconnec=int(rng.integers(1, 40)),
            lconnec=float(rng.random() * 0.9 + 0.1),
            kconnec=int(rng.integers(1, 8)),
        )
        for algorithm, scale in (("mboa", 1), ("nsga3", k), ("flat", 0)):
            successes = int(rng.integers(0, 6)) if scale else 0
            runs = [
                SimpleNamespace(success=True, evaluations=int(rng.integers(20, 100)) * scale)
                for _ in range(successes)
            ]
            runs += [SimpleNamespace(success=False, evaluations=0)] * (5 - successes)
            records.append(estimate_ert(runs, 2000, iid, algorithm))
    return features, records


# moved once on purpose from 75bbaa1e...: every featureless row and every
# row of a constant response reports r 0.0, and a constant feature's row
# equals the "none" row; no other row changed
REGRESSION_DIGEST = "682ecc8322d55181e3e701f8f77f32fcd6036a027f7fecd431f350ac711d9121"


def test_regression_report_locked():
    # every grid under both censored modes; "flat" only under impute_tmax,
    # where each of its responses is log(t_max)
    digest = hashlib.sha256()
    for grid in sorted(REGRESSION_GRIDS):
        features, records = _regression_tables(*REGRESSION_GRIDS[grid])
        for mode in ("exclude", "impute_tmax"):
            used = [r for r in records if mode == "impute_tmax" or r.algorithm != "flat"]
            report = regression_report(features, used, k_folds=10, cv_seed=5, censored_mode=mode)
            digest.update(f"{grid} {mode}\0".encode())
            digest.update((json.dumps(report, indent=1) + "\n").encode())
    assert digest.hexdigest() == REGRESSION_DIGEST
