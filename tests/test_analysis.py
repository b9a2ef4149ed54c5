from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mnkbench.analysis import (
    FEATURE_ORDER,
    backward_eliminate,
    design_matrix,
    estimate_ert,
    feature_label,
    fit_multiple,
    fit_simple,
    kfold_cv,
    pareto_pmf_view,
    regression_report,
)
from mnkbench.bayesnet import BNStructure, CPTs, fit_parameters
from mnkbench.enumeration import ParetoSet
from mnkbench.features import FeatureVector

import oracles


def _runs(successes, total, evals=10):
    runs = [SimpleNamespace(success=True, evaluations=evals) for _ in range(successes)]
    runs += [
        SimpleNamespace(success=False, evaluations=0) for _ in range(total - successes)
    ]
    return runs


# --- ert -----------------------------------------------------------------------


def test_ert_all_successful():
    record = estimate_ert(_runs(100, 100, evals=10), t_max=100)
    assert record.ert == 10.0
    assert record.p_hat == 1.0
    assert not record.censored


def test_ert_half_successful():
    record = estimate_ert(_runs(50, 100, evals=10), t_max=100)
    assert record.ert == pytest.approx(110.0)


def test_ert_censored():
    record = estimate_ert(_runs(0, 100), t_max=100)
    assert record.censored
    assert record.ert is None
    assert record.p_hat == 0.0


def test_ert_empty_input():
    with pytest.raises(ValueError):
        estimate_ert([], t_max=100)


def test_ert_monotone_in_success_rate():
    erts = [
        estimate_ert(_runs(s, 100, evals=10), t_max=100).ert for s in range(1, 101)
    ]
    assert erts == sorted(erts, reverse=True)


def test_ert_rejects_time_above_budget():
    with pytest.raises(ValueError):
        estimate_ert(_runs(1, 1, evals=200), t_max=100)


# --- simple regression ------------------------------------------------------------


def test_exact_line_recovery():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ys = 2 * xs + 1
    model, stats = fit_simple(xs, ys)
    assert model.coefficients == pytest.approx((1.0, 2.0), abs=1e-12)
    assert stats.r == pytest.approx(1.0)
    assert stats.mae == pytest.approx(0.0, abs=1e-12)
    assert stats.rmse == pytest.approx(0.0, abs=1e-12)


def test_constant_predictor_is_the_none_baseline():
    ys = np.array([1.0, 3.0, 5.0, 7.0])
    model, stats = fit_simple(np.ones(4), ys)
    assert stats.r == 0.0
    assert model.coefficients[1] == 0.0
    assert model.coefficients[0] == pytest.approx(ys.mean())
    assert stats.mae == pytest.approx(np.abs(ys - ys.mean()).mean())


def test_five_hand_points_match_closed_form():
    xs = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
    ys = np.array([0.5, 1.1, 2.3, 3.0, 5.6])
    model, _ = fit_simple(xs, ys)
    intercept, slope = oracles.two_var_ols(xs, ys)
    assert model.coefficients[0] == pytest.approx(intercept, rel=1e-12)
    assert model.coefficients[1] == pytest.approx(slope, rel=1e-12)


# --- multiple regression -------------------------------------------------------------


def test_exact_linear_combination_recovered():
    rng = np.random.default_rng(0)
    xs = rng.random((30, 3))
    beta = np.array([0.7, -1.2, 2.5])
    ys = 3.0 + xs @ beta
    model, stats = fit_multiple(xs, ys)
    assert np.allclose(model.coefficients, [3.0, *beta], atol=1e-9)
    assert stats.r == pytest.approx(1.0)
    assert stats.mae == pytest.approx(0.0, abs=1e-9)


def test_duplicate_column_raises_named_error():
    rng = np.random.default_rng(1)
    xs = rng.random((20, 2))
    xs = np.hstack([xs, xs[:, :1]])
    ys = rng.random(20)
    with pytest.raises(ValueError, match="third"):
        fit_multiple(xs, ys, names=("first", "second", "third"))


def test_two_feature_fit_matches_normal_equations():
    rng = np.random.default_rng(2)
    xs = rng.random((12, 2))
    ys = rng.random(12)
    model, _ = fit_multiple(xs, ys)
    expected = oracles.normal_equations(xs, ys)
    assert np.allclose(model.coefficients, expected, atol=1e-10)


def test_underdetermined_fit_rejected():
    with pytest.raises(ValueError, match="rows"):
        fit_multiple(np.random.default_rng(0).random((3, 5)), np.zeros(3))


def test_rmse_at_least_mae_on_random_fits():
    rng = np.random.default_rng(3)
    for _ in range(20):
        xs = rng.random((25, 3))
        ys = rng.random(25)
        _, stats = fit_multiple(xs, ys)
        assert stats.rmse >= stats.mae >= 0.0


# --- cross validation ----------------------------------------------------------------


def test_cv_exact_linear():
    rng = np.random.default_rng(4)
    xs = rng.random((40, 2))
    ys = 1.0 + xs @ np.array([2.0, -1.0])
    stats = kfold_cv(xs, ys, k=10, seed=0)
    assert stats.r == pytest.approx(1.0)
    assert stats.mae == pytest.approx(0.0, abs=1e-9)


def test_cv_never_beats_in_sample_on_exact_data():
    rng = np.random.default_rng(5)
    xs = rng.random((30, 2))
    ys = 0.5 + xs @ np.array([1.0, 1.0])
    _, fit_stats = fit_multiple(xs, ys)
    cv_stats = kfold_cv(xs, ys, k=5, seed=1)
    assert cv_stats.mae >= fit_stats.mae - 1e-12


def test_leave_one_out_matches_manual_refits():
    xs = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
    ys = np.array([0.5, 1.1, 2.3, 3.0, 5.6])
    stats = kfold_cv(xs, ys, k=5, seed=9)
    perm = np.random.default_rng(9).permutation(5)
    pooled = np.empty(5)
    for fold in np.array_split(perm, 5):
        train = np.setdiff1d(perm, fold)
        intercept, slope = oracles.two_var_ols(xs[train], ys[train])
        pooled[fold] = intercept + slope * xs[fold]
    resid = pooled - ys
    assert stats.mae == pytest.approx(np.abs(resid).mean(), rel=1e-12)
    assert stats.rmse == pytest.approx(np.sqrt((resid**2).mean()), rel=1e-12)


def test_cv_fold_arithmetic():
    # 120 rows in 10 folds: every fold holds exactly 12 rows and the folds
    # partition the index set
    perm = np.random.default_rng(3).permutation(120)
    folds = np.array_split(perm, 10)
    assert all(len(f) == 12 for f in folds)
    assert sorted(np.concatenate(folds).tolist()) == list(range(120))
    rng = np.random.default_rng(6)
    xs = rng.random((120, 2))
    ys = rng.random(120)
    assert kfold_cv(xs, ys, 10, seed=3) == kfold_cv(xs, ys, 10, seed=3)


def test_cv_rejects_more_folds_than_rows():
    with pytest.raises(ValueError):
        kfold_cv(np.random.default_rng(0).random((4, 1)), np.zeros(4), k=5, seed=0)


# --- backward elimination --------------------------------------------------------------


def test_noise_feature_removed_first():
    rng = np.random.default_rng(7)
    xs = rng.random((60, 3))
    ys = 2.0 * xs[:, 0] - 1.5 * xs[:, 1] + rng.normal(0, 1e-4, 60)
    steps = backward_eliminate(xs, ys, names=("signal_a", "signal_b", "noise"), k_folds=5)
    assert steps[0].removed == "noise"
    assert steps[0].remaining == ("signal_a", "signal_b")


def test_elimination_runs_p_steps_to_intercept_only():
    rng = np.random.default_rng(8)
    xs = rng.random((40, 4))
    ys = rng.random(40)
    steps = backward_eliminate(xs, ys, names=("a", "b", "c", "d"), k_folds=5)
    assert len(steps) == 4
    assert steps[-1].remaining == ()
    assert steps[-1].fit.r == 0.0
    assert steps[-1].cv.r == 0.0


def test_elimination_requires_two_features():
    with pytest.raises(ValueError):
        backward_eliminate(np.zeros((10, 1)), np.zeros(10), names=("only",))


# --- pmf view -----------------------------------------------------------------------


def _uniform_model(n):
    structure = BNStructure(n_vars=n, parents=((),) * n, ordering=tuple(range(n)))
    cpts = fit_parameters(structure, np.empty((0, n), dtype=np.uint8))
    return structure, cpts


def _toy_pareto(n=3):
    return ParetoSet(
        instance_id="toy",
        solutions=np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8),
        objectives=np.array([[0.9, 0.2], [0.6, 0.6], [0.2, 0.9]]),
    )


def test_uniform_model_gives_constant_pmf():
    entries = pareto_pmf_view([_uniform_model(3)], _toy_pareto())
    for entry in entries:
        assert entry.mean_pmf == pytest.approx(2.0**-3, rel=1e-12)


def test_ideal_point_distance_and_sort():
    entries = pareto_pmf_view([_uniform_model(3)], _toy_pareto())
    # ideal point is the componentwise maximum (0.9, 0.9)
    expected = {
        "011": np.hypot(0.0, 0.7),
        "101": np.hypot(0.3, 0.3),
        "110": np.hypot(0.7, 0.0),
    }
    for entry in entries:
        assert entry.dist_to_ideal == pytest.approx(expected[entry.bitstring], rel=1e-12)
    dists = [e.dist_to_ideal for e in entries]
    assert dists == sorted(dists)
    assert [e.rank for e in entries] == [1, 2, 3]
    assert entries[0].bitstring == "101"  # the knee point sits nearest


def test_hand_built_chain_pmf_view():
    structure = BNStructure(n_vars=3, parents=((), (0,), (1,)), ordering=(0, 1, 2))
    cpts = CPTs(
        tables=(
            np.array([[0.3, 0.7]]),
            np.array([[0.8, 0.2], [0.1, 0.9]]),
            np.array([[0.6, 0.4], [0.5, 0.5]]),
        )
    )
    entries = pareto_pmf_view([(structure, cpts)], _toy_pareto())
    by_bits = {e.bitstring: e.mean_pmf for e in entries}
    assert by_bits["011"] == pytest.approx(0.3 * 0.2 * 0.5, rel=1e-12)
    assert by_bits["101"] == pytest.approx(0.7 * 0.1 * 0.4, rel=1e-12)
    assert by_bits["110"] == pytest.approx(0.7 * 0.9 * 0.5, rel=1e-12)


def test_pmf_view_averages_across_models():
    structure, cpts = _uniform_model(3)
    biased = CPTs(
        tables=(
            np.array([[0.1, 0.9]]),
            np.array([[0.1, 0.9]]),
            np.array([[0.1, 0.9]]),
        )
    )
    entries = pareto_pmf_view([(structure, cpts), (structure, biased)], _toy_pareto())
    by_bits = {e.bitstring: e.mean_pmf for e in entries}
    assert by_bits["011"] == pytest.approx((0.125 + 0.1 * 0.9 * 0.9) / 2, rel=1e-12)


def test_pmf_view_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        pareto_pmf_view([_uniform_model(4)], _toy_pareto())


def test_distance_zero_requires_attaining_all_maxima():
    import numpy as np

    # a front member achieving every per-objective maximum sits at the
    # ideal point itself; in a mutually non-dominated set such a member can
    # only coexist with objective-duplicates of itself
    single = ParetoSet(
        instance_id="toy",
        solutions=np.array([[0, 0], [1, 1]], dtype=np.uint8),
        objectives=np.array([[0.9, 0.9], [0.9, 0.9]]),
    )
    entries = pareto_pmf_view([_uniform_model(2)], single)
    assert all(e.dist_to_ideal == 0.0 for e in entries)
    # maxima attained by different members: no one reaches the ideal point
    entries = pareto_pmf_view([_uniform_model(3)], _toy_pareto())
    assert min(e.dist_to_ideal for e in entries) > 0.0


def test_pmf_values_are_probabilities_and_models_normalize():
    # mean pmf entries are genuine probabilities, and each contributing
    # model is a normalized distribution over the full space
    import numpy as np

    from mnkbench.bayesnet import fit_parameters, k2_learn, log_joint_pmf
    from mnkbench.enumeration import enumerate_pareto
    from mnkbench.landscape import generate_instance

    rng = np.random.default_rng(3)
    inst = generate_instance(51, 8, 2, 2)
    pareto = enumerate_pareto(inst)
    models = []
    for _ in range(3):
        data = rng.integers(0, 2, size=(40, 8), dtype=np.uint8)
        structure = k2_learn(data, rng.permutation(8), 2)
        models.append((structure, fit_parameters(structure, data)))
    entries = pareto_pmf_view(models, pareto)
    assert all(0.0 < e.mean_pmf < 1.0 for e in entries)
    codes = np.arange(256, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(7, -1, -1)) & 1).astype(np.uint8)
    for structure, cpts in models:
        assert np.exp(log_joint_pmf(structure, cpts, bits)).sum() == pytest.approx(
            1.0, abs=1e-12
        )


# --- report assembly --------------------------------------------------------------------


def _fake_features(count, seed=0):
    rng = np.random.default_rng(seed)
    features = {}
    for i in range(count):
        features[f"inst-{i:02d}"] = FeatureVector(
            m=int(rng.integers(2, 6)),
            k=int(rng.integers(1, 10)),
            npo=int(rng.integers(1, 500)),
            hv=float(rng.random()),
            avgd=float(rng.random() * 5),
            maxd=float(rng.random() * 5 + 5),
            nconnec=int(rng.integers(1, 20)),
            lconnec=float(rng.random() * 0.9 + 0.1),
            kconnec=int(rng.integers(0, 8)),
        )
    return features


def test_regression_report_structure():
    features = _fake_features(40)
    records = []
    rng = np.random.default_rng(1)
    for iid in features:
        for algorithm in ("mboa", "nsga3"):
            successes = int(rng.integers(1, 10))
            records.append(
                estimate_ert(
                    _runs(successes, 10, evals=int(rng.integers(10, 100))),
                    t_max=100,
                    instance_id=iid,
                    algorithm=algorithm,
                )
            )
    report = regression_report(features, records, k_folds=10, cv_seed=0)
    for algorithm in ("mboa", "nsga3"):
        section = report["algorithms"][algorithm]
        assert len(section["simple"]) == 10  # "none" + nine features
        assert section["simple"][0]["feature"] == "none"
        assert section["simple"][0]["fit"]["r"] == 0.0
        ladder = section["multiple"]["elimination"]
        assert len(ladder) == 9
        assert ladder[-1]["remaining"] == []
        assert ladder[-1]["fit"]["r"] == 0.0
        labels = {row["feature"] for row in section["simple"][1:]}
        assert labels == {feature_label(name) for name in FEATURE_ORDER}


def test_regression_report_excludes_censored():
    features = _fake_features(10)
    ids = sorted(features)
    records = [
        estimate_ert(
            _runs(0 if i < 2 else 5, 10, evals=20),
            t_max=100,
            instance_id=iid,
            algorithm="mboa",
        )
        for i, iid in enumerate(ids)
    ]
    report = regression_report(features, records, k_folds=4, cv_seed=0)
    section = report["algorithms"]["mboa"]
    assert section["censored"] == ids[:2]
    assert set(section["instances"]) == set(ids[2:])


def test_regression_report_insufficient_data():
    features = _fake_features(4)
    records = [
        estimate_ert(_runs(0, 5), t_max=100, instance_id=iid, algorithm="mboa")
        for iid in sorted(features)
    ][:3] + [
        estimate_ert(_runs(2, 5, evals=9), t_max=100, instance_id="inst-03", algorithm="mboa")
    ]
    with pytest.raises(ValueError, match="at least 3"):
        regression_report(features, records)


def test_design_matrix_transforms():
    fv = FeatureVector(
        m=2, k=4, npo=10, hv=0.5, avgd=3.0, maxd=6.0, nconnec=2, lconnec=0.5, kconnec=3
    )
    xs, labels = design_matrix([fv])
    expected = [
        np.log(2), np.log(4), np.log(10), 0.5, 3.0, 6.0, np.log(2), np.log(0.5), 3.0,
    ]
    assert np.allclose(xs[0], expected)
    assert labels[0] == "log(m)" and labels[3] == "hv" and labels[-1] == "kconnec"


def _report_rows(section):
    """Every (row name, stats) pair of one algorithm's report section."""
    rows = [(row["feature"], row[part]) for row in section["simple"] for part in ("fit", "cv")]
    multiple = section["multiple"]
    if "all" in multiple:
        rows += [("all", multiple["all"][part]) for part in ("fit", "cv")]
        rows += [
            (step["removed"], step[part]) for step in multiple["elimination"] for part in ("fit", "cv")
        ]
    return rows


def _mboa_records(features, seed):
    """One "mboa" record per instance: 1 to 9 successes in 10 runs."""
    rng = np.random.default_rng(seed)
    return [
        estimate_ert(
            _runs(int(rng.integers(1, 10)), 10, evals=int(rng.integers(10, 100))),
            t_max=100,
            instance_id=iid,
            algorithm="mboa",
        )
        for iid in sorted(features)
    ]


def test_constant_feature_row_equals_the_none_row():
    # a single-K grid: log(k) is featureless, in sample and in every CV fold
    features = {
        iid: replace(fv, k=4) for iid, fv in _fake_features(30, seed=4).items()
    }
    report = regression_report(features, _mboa_records(features, 4), k_folds=10, cv_seed=2)
    rows = {row["feature"]: row for row in report["algorithms"]["mboa"]["simple"]}
    assert {**rows["log(k)"], "feature": "none"} == rows["none"]
    assert rows["none"]["cv"]["r"] == 0.0


def test_constant_feature_under_leave_one_out_has_zero_r():
    # 8 instances make the CV leave-one-out, where a constant feature's
    # out-of-fold predictions are the fold means
    features = {
        iid: replace(fv, m=3) for iid, fv in _fake_features(8, seed=5).items()
    }
    report = regression_report(features, _mboa_records(features, 5), k_folds=10, cv_seed=0)
    rows = {row["feature"]: row for row in report["algorithms"]["mboa"]["simple"]}
    assert rows["log(m)"]["fit"]["r"] == 0.0
    assert rows["log(m)"]["cv"]["r"] == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_featureless_r_is_exactly_zero(seed):
    # at 34 rows, equal predictions often have a standard deviation of a
    # rounding residue above 0
    features = _fake_features(34, seed=seed)
    report = regression_report(features, _mboa_records(features, seed), cv_seed=seed)
    section = report["algorithms"]["mboa"]
    none = section["simple"][0]
    last = section["multiple"]["elimination"][-1]
    assert (none["feature"], last["remaining"]) == ("none", [])
    assert [none["fit"]["r"], none["cv"]["r"], last["fit"]["r"], last["cv"]["r"]] == [0.0] * 4


def test_constant_response_gives_zero_r_in_every_row():
    features = _fake_features(34, seed=6)
    records = [
        estimate_ert(_runs(5, 10, evals=10), t_max=100, instance_id=iid, algorithm="mboa")
        for iid in sorted(features)
    ]
    report = regression_report(features, records, cv_seed=1)
    rows = _report_rows(report["algorithms"]["mboa"])
    assert len(rows) == 2 * (10 + 1 + 9)
    assert {name: stats["r"] for name, stats in rows if stats["r"] != 0.0} == {}


def test_zero_k_is_named_before_fitting():
    features = _fake_features(10, seed=7)
    features["inst-03"] = replace(features["inst-03"], k=0)
    with pytest.raises(ValueError, match=r"log\(k\).*inst-03"):
        regression_report(features, _mboa_records(features, 7))
