"""Runtime estimation, regression cost models, and the probabilistic
Pareto-front view.

The expected runtime of an algorithm on an instance combines its success
rate and the mean evaluation count of its successful runs:
``ert = (1 - p) / p * t_max + mean(success times)``.  Instances with zero
successes leave the estimate undefined; they are marked censored and, by
default, excluded from regression (an imputation mode is available).

Cost models are ordinary least squares on the landscape features, with the
response log(ert) and log-transformed m, k, npo, nconnec and lconnec.
Model quality is summarized by the absolute Pearson correlation between
predicted and observed values, the mean absolute error, and the root mean
squared error, both in-sample and under seeded k-fold cross validation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bayesnet import BNStructure, CPTs, log_joint_pmf
from .enumeration import ParetoSet
from .features import FeatureVector
from .landscape import bits_to_string

__all__ = [
    "ErtRecord",
    "ModelStats",
    "RegressionModel",
    "EliminationStep",
    "PmfViewEntry",
    "estimate_ert",
    "fit_simple",
    "fit_multiple",
    "kfold_cv",
    "backward_eliminate",
    "pareto_pmf_view",
    "regression_report",
    "FEATURE_ORDER",
    "LOG_FEATURES",
    "feature_label",
    "design_matrix",
]

logger = logging.getLogger(__name__)

FEATURE_ORDER = ("m", "k", "npo", "hv", "avgd", "maxd", "nconnec", "lconnec", "kconnec")
LOG_FEATURES = frozenset({"m", "k", "npo", "nconnec", "lconnec"})


def feature_label(name: str) -> str:
    return f"log({name})" if name in LOG_FEATURES else name


@dataclass(frozen=True)
class ErtRecord:
    """Expected-runtime estimate for one (instance, algorithm) pair."""

    instance_id: str
    algorithm: str
    runs: int
    successes: int
    success_times: tuple[int, ...]
    t_max: int
    p_hat: float
    ert: float | None
    censored: bool


@dataclass(frozen=True)
class ModelStats:
    """Fit quality: absolute Pearson r, mean absolute error, RMS error."""

    r: float
    mae: float
    rmse: float


@dataclass(frozen=True)
class RegressionModel:
    """A fitted linear model: intercept first, then one slope per feature."""

    feature_names: tuple[str, ...]
    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class EliminationStep:
    """One backward-elimination step: the feature dropped and the stats of
    the model on the remaining features."""

    removed: str
    remaining: tuple[str, ...]
    fit: ModelStats
    cv: ModelStats


@dataclass(frozen=True)
class PmfViewEntry:
    """One Pareto-optimal solution in the probabilistic front view."""

    bitstring: str
    objectives: tuple[float, ...]
    mean_pmf: float
    dist_to_ideal: float
    rank: int


def estimate_ert(
    results: Sequence, t_max: int, instance_id: str = "", algorithm: str = ""
) -> ErtRecord:
    """Expected runtime from a batch of runs (objects with ``.success`` and
    ``.evaluations``); zero successes yield a censored record."""
    if not results:
        raise ValueError("at least one run result is required")
    times = tuple(int(r.evaluations) for r in results if r.success)
    for t in times:
        if t > t_max:
            raise ValueError(f"success time {t} exceeds t_max={t_max}")
    runs = len(results)
    successes = len(times)
    p_hat = successes / runs
    if successes == 0:
        ert = None
    else:
        ert = (1.0 - p_hat) / p_hat * t_max + sum(times) / successes
    return ErtRecord(
        instance_id=instance_id,
        algorithm=algorithm,
        runs=runs,
        successes=successes,
        success_times=times,
        t_max=t_max,
        p_hat=p_hat,
        ert=ert,
        censored=successes == 0,
    )


def _stats(y: np.ndarray, predicted: np.ndarray) -> ModelStats:
    resid = predicted - y
    mae = float(np.abs(resid).mean())
    rmse = float(np.sqrt((resid**2).mean()))
    if np.std(predicted) <= 0.0 or np.std(y) <= 0.0:
        r = 0.0
    else:
        r = float(abs(np.corrcoef(predicted, y)[0, 1]))
    return ModelStats(r=r, mae=mae, rmse=rmse)


def _design(xs: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((xs.shape[0], 1)), xs])


def _ols_predict(train_x, train_y, test_x) -> np.ndarray:
    """Least-squares predictions; rank deficiency falls back to the
    minimum-norm solution, whose predictions are still well-defined."""
    beta, *_ = np.linalg.lstsq(_design(train_x), train_y, rcond=None)
    return _design(test_x) @ beta


def fit_simple(
    xs: np.ndarray,
    ys: np.ndarray,
    name: str = "x",
) -> tuple[RegressionModel, ModelStats]:
    """Single-feature OLS.  A zero-variance predictor degrades to the
    intercept-only baseline: slope 0, intercept mean(y), r defined as 0."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have equal length")
    if len(ys) < 3:
        raise ValueError("at least 3 observations are required")
    if np.ptp(xs) == 0.0:
        beta = np.array([ys.mean(), 0.0])
    else:
        beta, *_ = np.linalg.lstsq(_design(xs[:, None]), ys, rcond=None)
    predicted = _design(xs[:, None]) @ beta
    model = RegressionModel(
        feature_names=(name,), coefficients=tuple(float(b) for b in beta)
    )
    return model, _stats(ys, predicted)


def fit_multiple(
    xs: np.ndarray,
    ys: np.ndarray,
    names: Sequence[str] | None = None,
) -> tuple[RegressionModel, ModelStats]:
    """OLS with intercept over a feature matrix.

    Raises on a rank-deficient design matrix, naming the columns that are
    linearly dependent on their predecessors (or on the intercept).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.ndim != 2 or xs.shape[0] != len(ys):
        raise ValueError("xs must be (rows, features) matching ys")
    n, p = xs.shape
    if names is None:
        names = tuple(f"x{i}" for i in range(p))
    if n < p + 1:
        raise ValueError(f"need at least {p + 1} rows to fit {p} features, got {n}")
    design = _design(xs)
    if np.linalg.matrix_rank(design) < p + 1:
        collinear = []
        base = design[:, :1]
        for col in range(p):
            candidate = np.hstack([base, design[:, col + 1 : col + 2]])
            if np.linalg.matrix_rank(candidate) == base.shape[1]:
                collinear.append(names[col])
            else:
                base = candidate
        raise ValueError(
            "design matrix is rank-deficient; collinear columns: "
            + ", ".join(collinear)
        )
    beta, *_ = np.linalg.lstsq(design, ys, rcond=None)
    predicted = design @ beta
    model = RegressionModel(
        feature_names=tuple(names), coefficients=tuple(float(b) for b in beta)
    )
    return model, _stats(ys, predicted)


def kfold_cv(xs: np.ndarray, ys: np.ndarray, k: int, seed: int) -> ModelStats:
    """Seeded k-fold cross validation of the OLS model.

    Shuffles once, splits into k near-equal folds, pools the out-of-fold
    predictions, and scores the pooled predictions against the responses.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    ys = np.asarray(ys, dtype=np.float64).ravel()
    n = len(ys)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    permutation = np.random.default_rng(seed).permutation(n)
    pooled = np.empty(n, dtype=np.float64)
    for fold in np.array_split(permutation, k):
        train = np.setdiff1d(permutation, fold, assume_unique=True)
        pooled[fold] = _ols_predict(xs[train], ys[train], xs[fold])
    return _stats(ys, pooled)


def _intercept_only_stats(ys: np.ndarray) -> ModelStats:
    predicted = np.full(len(ys), ys.mean())
    return _stats(ys, predicted)


def _intercept_only_cv(ys: np.ndarray, k: int, seed: int) -> ModelStats:
    # out-of-fold means vary slightly by fold, which would show up as a
    # spurious correlation; a featureless model has r = 0 by definition
    stats = kfold_cv(np.empty((len(ys), 0)), ys, k, seed)
    return ModelStats(r=0.0, mae=stats.mae, rmse=stats.rmse)


def backward_eliminate(
    xs: np.ndarray,
    ys: np.ndarray,
    names: Sequence[str],
    k_folds: int = 10,
    seed: int = 0,
) -> list[EliminationStep]:
    """Iteratively drop the least-impact feature until none remain.

    At each step the removed feature is the one whose removal maximizes the
    remaining model's in-sample r (ties fall to the lexicographically
    smallest name); the last step leaves the intercept-only model.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64).ravel()
    names = list(names)
    if xs.ndim != 2 or xs.shape[1] != len(names):
        raise ValueError("one name per feature column is required")
    if len(names) < 2:
        raise ValueError("backward elimination needs at least 2 features")

    def in_sample_r(cols: list[int]) -> float:
        if not cols:
            return 0.0
        predicted = _ols_predict(xs[:, cols], ys, xs[:, cols])
        return _stats(ys, predicted).r

    remaining = list(range(len(names)))
    steps: list[EliminationStep] = []
    while remaining:
        best_name, best_r, best_cols = None, -1.0, None
        for col in sorted(remaining, key=lambda c: names[c]):
            trial = [c for c in remaining if c != col]
            r = in_sample_r(trial)
            if r > best_r:
                best_name, best_r, best_cols = names[col], r, trial
        remaining = best_cols
        if remaining:
            predicted = _ols_predict(xs[:, remaining], ys, xs[:, remaining])
            fit_stats = _stats(ys, predicted)
            cv_stats = kfold_cv(xs[:, remaining], ys, k_folds, seed)
        else:
            fit_stats = _intercept_only_stats(ys)
            cv_stats = _intercept_only_cv(ys, k_folds, seed)
        steps.append(
            EliminationStep(
                removed=best_name,
                remaining=tuple(names[c] for c in remaining),
                fit=fit_stats,
                cv=cv_stats,
            )
        )
    return steps


def pareto_pmf_view(
    models: Sequence[tuple[BNStructure, CPTs]], pareto: ParetoSet
) -> list[PmfViewEntry]:
    """Mean model probability of each Pareto-optimal solution, with its
    Euclidean distance to the ideal point (the componentwise objective
    maxima over the front), sorted from nearest to farthest."""
    if not models:
        raise ValueError("at least one model is required")
    n = pareto.solutions.shape[1]
    for structure, _ in models:
        if structure.n_vars != n:
            raise ValueError(
                f"model over {structure.n_vars} variables cannot score length-{n} solutions"
            )
    pmf = np.zeros(pareto.size, dtype=np.float64)
    for structure, cpts in models:
        pmf += np.exp(log_joint_pmf(structure, cpts, pareto.solutions))
    pmf /= len(models)
    ideal = pareto.objectives.max(axis=0)
    dist = np.sqrt(((pareto.objectives - ideal) ** 2).sum(axis=1))
    order = np.lexsort((pareto.codes, dist))
    return [
        PmfViewEntry(
            bitstring=bits_to_string(pareto.solutions[i]),
            objectives=tuple(float(v) for v in pareto.objectives[i]),
            mean_pmf=float(pmf[i]),
            dist_to_ideal=float(dist[i]),
            rank=position + 1,
        )
        for position, i in enumerate(order)
    ]


def design_matrix(feature_vectors: Sequence[FeatureVector]) -> tuple[np.ndarray, list[str]]:
    """Transformed design matrix over ``FEATURE_ORDER`` plus its labels."""
    rows = []
    for fv in feature_vectors:
        row = []
        for name in FEATURE_ORDER:
            value = float(getattr(fv, name))
            row.append(math.log(value) if name in LOG_FEATURES else value)
        rows.append(row)
    labels = [feature_label(name) for name in FEATURE_ORDER]
    return np.array(rows, dtype=np.float64), labels


def _stats_dict(stats: ModelStats) -> dict:
    return {"r": stats.r, "mae": stats.mae, "rmse": stats.rmse}


def regression_report(
    features: dict[str, FeatureVector],
    ert_records: Iterable[ErtRecord],
    k_folds: int = 10,
    cv_seed: int = 0,
    censored_mode: str = "exclude",
) -> dict:
    """Simple-model rows plus the full elimination ladder, per algorithm.

    ``censored_mode`` is "exclude" (drop zero-success instances, the
    default) or "impute_tmax" (stand in t_max for their undefined ert).
    Requires at least 3 usable instances per algorithm.
    """
    if censored_mode not in ("exclude", "impute_tmax"):
        raise ValueError(f"unknown censored_mode {censored_mode!r}")
    by_algorithm: dict[str, list[ErtRecord]] = {}
    for record in ert_records:
        by_algorithm.setdefault(record.algorithm, []).append(record)

    report: dict = {"response": "log(ert)", "k_folds": k_folds, "algorithms": {}}
    for algorithm in sorted(by_algorithm):
        records = by_algorithm[algorithm]
        used: list[tuple[str, float]] = []
        censored_ids: list[str] = []
        for record in sorted(records, key=lambda rec: rec.instance_id):
            if record.censored:
                censored_ids.append(record.instance_id)
                if censored_mode == "impute_tmax":
                    used.append((record.instance_id, float(record.t_max)))
            else:
                used.append((record.instance_id, record.ert))
        if censored_ids and censored_mode == "exclude":
            logger.warning(
                "%s: excluding %d censored instance(s) from the regression: %s",
                algorithm,
                len(censored_ids),
                ", ".join(censored_ids),
            )
        missing = [iid for iid, _ in used if iid not in features]
        if missing:
            raise ValueError(f"no features for instances: {', '.join(missing)}")
        if len(used) < 3:
            raise ValueError(
                f"algorithm {algorithm!r}: regression needs at least 3 uncensored "
                f"instances, got {len(used)} ({len(censored_ids)} censored)"
            )
        ids = [iid for iid, _ in used]
        y = np.log([ert for _, ert in used])
        xs, labels = design_matrix([features[iid] for iid in ids])
        k_eff = min(k_folds, len(ids))

        simple_rows = [
            {
                "feature": "none",
                "fit": _stats_dict(_intercept_only_stats(y)),
                "cv": _stats_dict(_intercept_only_cv(y, k_eff, cv_seed)),
            }
        ]
        feature_rows = []
        for col, label in enumerate(labels):
            _, fit_stats = fit_simple(xs[:, col], y, name=label)
            cv_stats = kfold_cv(xs[:, col : col + 1], y, k_eff, cv_seed)
            feature_rows.append(
                {
                    "feature": label,
                    "fit": _stats_dict(fit_stats),
                    "cv": _stats_dict(cv_stats),
                }
            )
        feature_rows.sort(key=lambda row: (row["fit"]["r"], row["feature"]))
        simple_rows.extend(feature_rows)

        try:
            model, all_stats = fit_multiple(xs, y, names=labels)
        except ValueError as exc:
            # too few instances for 9 regressors, or a structurally constant
            # column (single-K or single-M grids); keep the simple rows
            multiple: dict = {"skipped": str(exc)}
        else:
            ladder = backward_eliminate(xs, y, labels, k_folds=k_eff, seed=cv_seed)
            multiple = {
                "all": {
                    "fit": _stats_dict(all_stats),
                    "cv": _stats_dict(kfold_cv(xs, y, k_eff, cv_seed)),
                    "coefficients": {
                        "intercept": model.coefficients[0],
                        **{
                            label: coef
                            for label, coef in zip(labels, model.coefficients[1:])
                        },
                    },
                },
                "elimination": [
                    {
                        "removed": step.removed,
                        "remaining": list(step.remaining),
                        "fit": _stats_dict(step.fit),
                        "cv": _stats_dict(step.cv),
                    }
                    for step in ladder
                ],
            }
        report["algorithms"][algorithm] = {
            "instances": ids,
            "censored": censored_ids,
            "censored_mode": censored_mode,
            "simple": simple_rows,
            "multiple": multiple,
        }
    return report
