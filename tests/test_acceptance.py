"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criterion 8 runs two campaigns.  8(b) uses a reduced desk
campaign (N=14, t_max=1638; about three minutes on one core).  8(a) runs at
the full per-run scale (N=18, t_max=26214) on a shrunk grid with two worker
processes (about three minutes).  Criterion 10 executes the full pipeline
twice.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from mnkbench.analysis import estimate_ert, pareto_pmf_view, regression_report
from mnkbench.bayesnet import (
    BNStructure,
    CPTs,
    fit_parameters,
    k2_learn,
    log_joint_pmf,
    sample,
)
from mnkbench.cli import main
from mnkbench.enumeration import (
    enumerate_pareto,
    epsilon_success,
    nondominated_sort,
    pareto_mask,
)
from mnkbench.experiment import (
    ExperimentConfig,
    cmd_all,
    cmd_features,
    cmd_gen,
    cmd_run,
    instance_ids,
    _load_features,
    _load_run_records,
    _parse_instance_id,
)
from mnkbench.features import hypervolume, monte_carlo_hypervolume
from mnkbench.landscape import evaluate_batch, generate_instance
from mnkbench.optimizers import RunParams, binary_tournament

import oracles


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _all_bits(n: int) -> np.ndarray:
    codes = np.arange(1 << n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    return ((codes[:, None] >> shifts) & 1).astype(np.uint8)


# --- 1: smoothed-estimate substitution ------------------------------------------------


def test_criterion_01_parameter_estimates_exact():
    failures = []

    # parentless: 3 ones in 5 rows -> (1+3)/(2+5) = 4/7
    data = np.array([[1], [1], [1], [0], [0]], dtype=np.uint8)
    structure = BNStructure(1, ((),), (0,))
    got = fit_parameters(structure, data).tables[0][0, 1]
    if got != float(Fraction(4, 7)):
        failures.append("parentless 4/7")

    # one parent, hand-counted on six rows: parent=1 in rows {0,1,4},
    # child=1 among those in {0,4} -> theta(1|1) = (1+2)/(2+3) = 3/5
    data = np.array(
        [[1, 1], [1, 0], [0, 1], [0, 0], [1, 1], [0, 0]], dtype=np.uint8
    )
    structure = BNStructure(2, ((), (0,)), (0, 1))
    table = fit_parameters(structure, data).tables[1]
    if table[1, 1] != float(Fraction(3, 5)):
        failures.append("one-parent theta(1|1)")
    if table[0, 1] != float(Fraction(1 + 1, 2 + 3)):
        failures.append("one-parent theta(1|0)")

    # two parents, one combination never observed -> uniform prior 1/2;
    # combination (1,1) observed twice with child 1 once -> (1+1)/(2+2)
    data = np.array(
        [[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=np.uint8
    )
    structure = BNStructure(3, ((), (), (0, 1)), (0, 1, 2))
    table = fit_parameters(structure, data).tables[2]
    if table[0, 1] != float(Fraction(1, 2)):  # parents (0,0) unseen
        failures.append("two-parent unseen combination")
    if table[3, 1] != float(Fraction(2, 4)):
        failures.append("two-parent (1,1) count")

    # full-table cross-check with the rational oracle
    rng = np.random.default_rng(12)
    data = rng.integers(0, 2, size=(25, 3), dtype=np.uint8)
    structure = BNStructure(3, ((), (0,), (0, 1)), (0, 1, 2))
    cpts = fit_parameters(structure, data)
    for var in range(3):
        expected = oracles.cpt_fraction(data, var, structure.parents[var])
        for j, row in enumerate(expected):
            for v in (0, 1):
                if cpts.tables[var][j, v] != float(row[v]):
                    failures.append(f"oracle var {var} row {j}")

    _verdict(1, not failures, f"exact rational substitution ({failures or 'all exact'})")


# --- 2: joint pmf normalization --------------------------------------------------------


def test_criterion_02_pmf_normalization():
    assignments = _all_bits(10)
    worst = 0.0
    for i in range(50):
        inst = generate_instance(5000 + i, 10, 2, (i % 9) + 1)
        rng = np.random.default_rng(900 + i)
        pop = rng.integers(0, 2, size=(50, 10), dtype=np.uint8)
        ranked = nondominated_sort(evaluate_batch(inst, pop), pop)
        selected = binary_tournament(ranked, 25, rng)
        structure = k2_learn(selected, rng.permutation(10), 3)
        cpts = fit_parameters(structure, selected)
        total = float(np.exp(log_joint_pmf(structure, cpts, assignments)).sum())
        worst = max(worst, abs(total - 1.0))
    _verdict(2, worst <= 1e-9, f"max |sum - 1| = {worst:.2e} over 50 learned networks")


# --- 3: sampling fidelity ---------------------------------------------------------------


def test_criterion_03_sampling_fidelity():
    structure = BNStructure(3, ((), (0,), (1,)), (0, 1, 2))
    cpts = CPTs(
        tables=(
            np.array([[0.35, 0.65]]),
            np.array([[0.75, 0.25], [0.15, 0.85]]),
            np.array([[0.6, 0.4], [0.3, 0.7]]),
        )
    )
    draws = sample(structure, cpts, 100_000, 20240)
    codes = draws @ np.array([4, 2, 1])
    empirical = np.bincount(codes, minlength=8) / len(draws)
    exact = np.exp(log_joint_pmf(structure, cpts, _all_bits(3)))
    l1 = float(np.abs(empirical - exact).sum())
    _verdict(3, l1 <= 0.02, f"L1(empirical, exact) = {l1:.4f} at 1e5 samples")


# --- 4: oracle equivalence --------------------------------------------------------------


def test_criterion_04_oracle_equivalence():
    mismatches = []

    rng = np.random.default_rng(77)
    for trial in range(1000):
        size = int(rng.integers(2, 50))
        m = int(rng.integers(2, 6))
        objs = rng.random((size, m))
        if trial % 3 == 0:
            objs = np.round(objs, 1)  # force duplicates and ties
        ranked = nondominated_sort(objs)
        if not np.array_equal(ranked.rank, oracles.peel_fronts(objs)):
            mismatches.append(f"sort trial {trial}")

    for trial in range(20):
        n = 8 + trial % 5  # N in 8..12
        inst = generate_instance(3000 + trial, n, 2 + trial % 2, 1 + trial % 4)
        pareto = enumerate_pareto(inst)
        objs = evaluate_batch(inst, _all_bits(n))
        mask = oracles.pairwise_pareto_mask(objs)
        if not np.array_equal(pareto.solutions, _all_bits(n)[mask]):
            mismatches.append(f"enumeration trial {trial}")

    rng = np.random.default_rng(88)
    for trial in range(20):
        n = 8 + trial % 3  # N in 8..10
        inst = generate_instance(4000 + trial, n, 2, 2)
        pareto = enumerate_pareto(inst)
        candidates = evaluate_batch(
            inst, rng.integers(0, 2, size=(50, n), dtype=np.uint8)
        )
        eps = float(rng.uniform(0.0, 0.4))
        fast = epsilon_success(candidates, pareto, eps)
        slow = oracles.epsilon_success_fullspace(inst, candidates, eps)
        if fast != slow:
            mismatches.append(f"epsilon trial {trial}")

    _verdict(4, not mismatches, f"1040 oracle comparisons ({mismatches or 'no mismatches'})")


# --- 5: hypervolume ---------------------------------------------------------------------


def test_criterion_05_hypervolume():
    rng = np.random.default_rng(55)
    worst2d = 0.0
    for _ in range(200):
        front = rng.random((int(rng.integers(1, 60)), 2))
        expected = oracles.hv_sweepline_2d(front, (0.0, 0.0))
        worst2d = max(worst2d, abs(hypervolume(front, np.zeros(2)) - expected))

    mc_ok = True
    for trial in range(20):
        front = rng.random((int(rng.integers(3, 25)), 3)) * 0.9 + 0.05
        exact = hypervolume(front, np.zeros(3))
        estimate, stderr = monte_carlo_hypervolume(
            front, np.zeros(3), samples=100_000, seed=600 + trial
        )
        if abs(estimate - exact) > 3 * stderr:
            mc_ok = False
    _verdict(
        5,
        worst2d <= 1e-12 and mc_ok,
        f"2-D max error {worst2d:.2e}; MC within 3 stderr: {mc_ok}",
    )


# --- 6: expected runtime -----------------------------------------------------------------


class _Run:
    def __init__(self, success, evaluations):
        self.success = success
        self.evaluations = evaluations


def test_criterion_06_ert_formula():
    half = [_Run(True, 10)] * 50 + [_Run(False, 100)] * 50
    record = estimate_ert(half, t_max=100)
    all_good = estimate_ert([_Run(True, 10)] * 100, t_max=100)
    censored = estimate_ert([_Run(False, 100)] * 100, t_max=100)
    ok = record.ert == 110.0 and all_good.ert == 10.0
    ok = ok and censored.censored and censored.ert is None
    # a censored-only input leaves the regression without usable rows
    with pytest.raises(ValueError, match="at least 3"):
        regression_report({}, [censored])
    _verdict(6, ok, f"ert(50/100)={record.ert}, ert(100/100)={all_good.ert}, censored flagged")


# --- 7: regression ------------------------------------------------------------------------


def test_criterion_07_regression():
    from mnkbench.analysis import backward_eliminate, fit_multiple, fit_simple

    rng = np.random.default_rng(7)
    xs = rng.random((30, 3))
    beta = np.array([1.5, -2.0, 0.75])
    ys = 0.25 + xs @ beta
    model, stats = fit_multiple(xs, ys)
    recovery = np.max(np.abs(np.array(model.coefficients) - [0.25, *beta]))
    ok = recovery <= 1e-9 and stats.r == pytest.approx(1.0)
    ok = ok and stats.mae == pytest.approx(0.0, abs=1e-9)
    ok = ok and stats.rmse == pytest.approx(0.0, abs=1e-9)

    _, none_stats = fit_simple(np.ones(30), ys)
    ok = ok and none_stats.r == 0.0

    steps = backward_eliminate(xs, ys, names=("a", "b", "c"), k_folds=5)
    ok = ok and len(steps) == 3 and steps[-1].remaining == () and steps[-1].fit.r == 0.0
    _verdict(7, ok, f"beta recovery {recovery:.1e}; none-baseline r=0; 3-step ladder")


# --- 8: directional reproduction -------------------------------------------------------


@pytest.fixture(scope="module")
def desk_campaign(tmp_path_factory):
    config = ExperimentConfig(
        master_seed=2718,
        n_vars=14,
        k_values=(2, 6, 10),
        m_values=(2, 3),
        landscapes_per_cell=5,
        runs_per_instance=30,
        epsilon=0.1,
        t_max=1638,
        output_dir=str(tmp_path_factory.mktemp("desk")),
    )
    cmd_all(config, jobs=1)
    return config, _campaign_ert(config)


@pytest.fixture(scope="module")
def full_scale_campaign(tmp_path_factory):
    """The paper's run scale (N=18, t_max = 2^18/10 = 26214, default
    population, model and sample sizes) on a shrunk grid."""
    config = ExperimentConfig(
        master_seed=2718,
        n_vars=18,
        k_values=(2, 6, 10),
        m_values=(2, 3),
        landscapes_per_cell=2,
        runs_per_instance=10,
        output_dir=str(tmp_path_factory.mktemp("full_scale")),
    )
    cmd_gen(config)
    for algorithm in ("mboa", "nsga3"):
        cmd_run(config, algorithm, jobs=2)
    return config, _campaign_ert(config)


def _campaign_ert(config):
    return [
        estimate_ert(
            _load_run_records(config, algorithm, iid),
            config.resolved_t_max,
            instance_id=iid,
            algorithm=algorithm,
        )
        for algorithm in ("mboa", "nsga3")
        for iid in instance_ids(config)
    ]


def _paired_ert(records):
    """Censored counts per algorithm, and both algorithms' mean ert over the
    instances that both solve at least once.

    Averaging each algorithm only over its own solved instances would let an
    algorithm that fails outright on the hardest instances look faster.
    """
    ert = {"mboa": {}, "nsga3": {}}
    censored = {"mboa": 0, "nsga3": 0}
    for record in records:
        if record.censored:
            censored[record.algorithm] += 1
        else:
            ert[record.algorithm][record.instance_id] = record.ert
    shared = sorted(ert["mboa"].keys() & ert["nsga3"].keys())
    means = {
        algorithm: float(np.mean([ert[algorithm][iid] for iid in shared]))
        if shared
        else float("nan")
        for algorithm in ert
    }
    return censored, shared, means


@pytest.mark.slow
def test_criterion_08a_eda_mean_ert_below_baseline(full_scale_campaign):
    config, records = full_scale_campaign
    censored, shared, means = _paired_ert(records)
    ok = censored["mboa"] <= censored["nsga3"] and means["mboa"] < means["nsga3"]
    _verdict(
        8,
        ok,
        f"(a) N={config.n_vars}, t_max={config.resolved_t_max}: censored instances "
        f"eda {censored['mboa']} vs baseline {censored['nsga3']} (<= required); "
        f"mean ert on the {len(shared)} instances both solve: eda "
        f"{means['mboa']:.0f} vs baseline {means['nsga3']:.0f} (< required)",
    )


@pytest.mark.slow
def test_criterion_08b_ruggedness_drives_baseline_runtime(desk_campaign):
    config, records = desk_campaign
    cells: dict = {}
    for record in records:
        if record.algorithm != "nsga3" or record.censored:
            continue
        m, k, _ = _parse_instance_id(record.instance_id)
        cells.setdefault((k, m), []).append(np.log(record.ert))
    ks = [k for (k, m) in sorted(cells)]
    means = [float(np.mean(cells[c])) for c in sorted(cells)]
    rho = float(spearmanr(ks, means).statistic)

    cmd_features(config)
    features = _load_features(config)
    report = regression_report(features, records, k_folds=10, cv_seed=0)
    simple = report["algorithms"]["nsga3"]["simple"]
    best = max((row for row in simple if row["feature"] != "none"),
               key=lambda row: row["fit"]["r"])
    ok = rho > 0.3 and best["feature"] == "log(k)"
    _verdict(
        8,
        ok,
        f"(b) spearman(K, cell mean log ert) = {rho:.2f} (> 0.3 required); "
        f"top single feature = {best['feature']} (r={best['fit']['r']:.2f})",
    )


# --- 9: pmf view ----------------------------------------------------------------------------


def test_criterion_09_pmf_view_sanity():
    inst = generate_instance(71, 8, 2, 2)
    pareto = enumerate_pareto(inst)
    structure = BNStructure(8, ((),) * 8, tuple(range(8)))
    cpts = fit_parameters(structure, np.empty((0, 8), dtype=np.uint8))
    entries = pareto_pmf_view([(structure, cpts)], pareto)

    uniform_ok = all(e.mean_pmf == pytest.approx(2.0**-8, rel=1e-12) for e in entries)
    ideal = pareto.objectives.max(axis=0)
    dist_ok = all(
        e.dist_to_ideal
        == pytest.approx(float(np.linalg.norm(np.array(e.objectives) - ideal)), rel=1e-12)
        for e in entries
    )
    dists = [e.dist_to_ideal for e in entries]
    order_ok = dists == sorted(dists) and [e.rank for e in entries] == list(
        range(1, len(entries) + 1)
    )
    _verdict(
        9,
        uniform_ok and dist_ok and order_ok,
        f"uniform pmf 2^-8, ideal = componentwise maxima, ascending sort "
        f"({len(entries)} front points)",
    )


# --- 10: pipeline determinism ------------------------------------------------------------------


def _report_bytes(output_dir: str) -> dict:
    root = Path(output_dir) / "reports"
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_pipeline_determinism(tmp_path):
    import json

    trees = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
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
            output_dir=str(out),
        )
        cfg_path = tmp_path / f"config{jobs}.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        code = main(["--config", str(cfg_path), "--jobs", str(jobs), "all"])
        assert code == 0
        trees[jobs] = _report_bytes(config.output_dir)
    same = trees[1] == trees[8]
    _verdict(
        10,
        same and len(trees[1]) >= 4,
        f"{len(trees[1])} report files byte-identical across --jobs 1 and --jobs 8",
    )
