"""Batch orchestration over the campaign directory that ``store`` keeps.

Every random stream is derived from the master seed and the task identity,
so completed work is skipped on resume and the worker schedule never
affects results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

from . import store
from .analysis import ErtRecord, estimate_ert, pareto_pmf_view, regression_report
from .enumeration import ENUMERATION_CAP, enumerate_pareto
from .features import FEATURE_COLUMNS, FeatureVector, extract_features
from .landscape import _read_json_object, generate_instance
from .optimizers import REFERENCE_DIVISIONS, RunParams, mboa_run, nsga3_run
from .optimizers import _require_integer, _require_real
from .seeds import derive_seed

__all__ = [
    "ExperimentConfig",
    "ALGORITHMS",
    "instance_ids",
    "cmd_gen",
    "cmd_enumerate",
    "cmd_run",
    "cmd_features",
    "cmd_ert",
    "cmd_regress",
    "cmd_pmf_view",
    "cmd_report",
    "cmd_all",
]

ALGORITHMS = ("mboa", "nsga3")


@dataclass(frozen=True)
class ExperimentConfig:
    """The full experiment grid and algorithm parameters.

    ``t_max`` defaults to floor(2^n_vars / 10) when left unset.  Every
    field is checked on construction, so a bad config fails before any
    file is written; the run fields are checked as ``RunParams``.
    """

    master_seed: int = 0
    n_vars: int = 18
    k_values: tuple[int, ...] = (2, 4, 6, 8, 10)
    m_values: tuple[int, ...] = (2, 3, 5, 8)
    landscapes_per_cell: int = 30
    runs_per_instance: int = 100
    epsilon: float = 0.1
    t_max: int | None = None
    pop_size: int = 100
    pgm_size: int = 50
    sample_size: int = 1000
    max_parents: int = 3
    crossover_prob: float = 0.8
    mutation_prob: float = 1.0 / 500.0
    output_dir: str = "results"

    def __post_init__(self) -> None:
        # a str or bool seed would derive other streams, a float count fail
        # mid-run, a numpy scalar fail the config echo
        for name in (
            "master_seed", "n_vars", "landscapes_per_cell", "runs_per_instance",
            "pop_size", "pgm_size", "sample_size", "max_parents",
        ):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        if self.t_max is not None:
            object.__setattr__(self, "t_max", _require_integer("t_max", self.t_max))
        for name in ("epsilon", "crossover_prob", "mutation_prob"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))
        for name in ("k_values", "m_values"):
            values = tuple(_require_integer(name, value) for value in getattr(self, name))
            object.__setattr__(self, name, values)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed!r}")
        if not 1 <= self.n_vars <= ENUMERATION_CAP:
            raise ValueError(f"n_vars must lie in [1, {ENUMERATION_CAP}]")
        if self.landscapes_per_cell < 1:
            raise ValueError("landscapes_per_cell must be positive")
        if self.runs_per_instance < 0:
            raise ValueError("runs_per_instance must be non-negative")
        if any(k < 0 or k >= self.n_vars for k in self.k_values):
            raise ValueError("every K must satisfy 0 <= K < n_vars")
        if any(m < 1 for m in self.m_values):
            raise ValueError("every M must be positive")
        self.run_params(0)  # the run parameters' own checks

    @property
    def resolved_t_max(self) -> int:
        if self.t_max is not None:
            return self.t_max
        return (1 << self.n_vars) // 10

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        doc = _read_json_object(Path(path))
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"{path}: unknown config fields: {', '.join(sorted(unknown))}")
        return cls(**doc)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["k_values"] = list(self.k_values)
        doc["m_values"] = list(self.m_values)
        return doc

    def run_params(self, seed: int) -> RunParams:
        return RunParams(
            pop_size=self.pop_size,
            pgm_size=self.pgm_size,
            sample_size=self.sample_size,
            t_max=self.resolved_t_max,
            epsilon=self.epsilon,
            seed=seed,
            max_parents=self.max_parents,
            crossover_prob=self.crossover_prob,
            mutation_prob=self.mutation_prob,
        )


def instance_ids(config: ExperimentConfig) -> list[str]:
    return [
        f"n{config.n_vars}-m{m}-k{k}-i{i:03d}"
        for m in config.m_values
        for k in config.k_values
        for i in range(config.landscapes_per_cell)
    ]


def _parse_instance_id(instance_id: str) -> tuple[int, int, int]:
    parts = instance_id.split("-")
    return int(parts[1][1:]), int(parts[2][1:]), int(parts[3][1:])


def _map_tasks(fn, tasks: list[tuple], jobs: int) -> None:
    if jobs <= 1:
        for task in tasks:
            fn(*task)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for future in [pool.submit(fn, *task) for task in tasks]:
            future.result()


def cmd_gen(config: ExperimentConfig) -> list[Path]:
    """Write every instance of the grid; deterministic and idempotent."""
    store.sweep(config, "instance")
    paths = []
    for instance_id in instance_ids(config):
        m, k, index = _parse_instance_id(instance_id)
        seed = derive_seed(config.master_seed, "instance", m, k, index)
        instance = generate_instance(seed, config.n_vars, m, k, instance_id=instance_id)
        paths.append(store.write_instance(config, instance))
    return paths


def _enumerate_one(config: ExperimentConfig, instance_id: str) -> None:
    pareto = enumerate_pareto(store.read_instance(config, instance_id))
    store.write_pareto(config, instance_id, pareto)


def cmd_enumerate(config: ExperimentConfig, jobs: int = 1) -> list[str]:
    """Enumerate exact Pareto sets for instances that lack one."""
    pending = store.pending(config, "pareto", instance_ids(config))
    store.sweep(config, "pareto")
    _map_tasks(_enumerate_one, [(config, iid) for iid in pending], jobs)
    return pending


def _run_one(config: ExperimentConfig, algorithm: str, instance_id: str, run_index: int) -> None:
    instance = store.read_instance(config, instance_id)
    pareto = store.read_pareto(config, instance_id)
    seed = derive_seed(config.master_seed, instance_id, algorithm, run_index)
    # the names resolve at call time, so a tracer that rebinds them sees the run
    run = {"mboa": mboa_run, "nsga3": nsga3_run}[algorithm]
    result = run(instance, pareto, config.run_params(seed))
    store.write_run(config, algorithm, instance_id, run_index, result)


def cmd_run(config: ExperimentConfig, algorithm: str, jobs: int = 1) -> int:
    """Execute the missing runs of one algorithm; returns how many ran."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (expected one of {ALGORITHMS})")
    cmd_enumerate(config, jobs=jobs)
    pending = store.pending(config, "run", instance_ids(config), algorithm)
    store.sweep(config, "run")
    _map_tasks(_run_one, [(config, algorithm, iid, run) for iid, run in pending], jobs)
    return len(pending)


def _features_one(config: ExperimentConfig, instance_id: str) -> None:
    instance = store.read_instance(config, instance_id)
    features = extract_features(instance, store.read_pareto(config, instance_id))
    store.write_features(config, instance_id, features)


def _load_features(config: ExperimentConfig, jobs: int = 1) -> dict[str, FeatureVector]:
    """Every instance's features in id order, computing only those not on disk."""
    cmd_enumerate(config, jobs=jobs)
    ids = sorted(instance_ids(config))
    pending = store.pending(config, "features", ids)
    store.sweep(config, "features")
    _map_tasks(_features_one, [(config, iid) for iid in pending], jobs)
    return store.read_features(config, ids)


def cmd_features(config: ExperimentConfig, jobs: int = 1) -> Path:
    """Write features.csv, computing the features that are not on disk."""
    store.sweep(config, "report")
    return _write_features_csv(config, _load_features(config, jobs))


def _write_features_csv(config: ExperimentConfig, table: dict[str, FeatureVector]) -> Path:
    rows = [[iid, *astuple(features)] for iid, features in table.items()]
    return store.write_report(config, "features.csv", [FEATURE_COLUMNS, *rows])


def _ert_records(config: ExperimentConfig) -> list[ErtRecord]:
    unrun = store.pending(config, "algorithm", ALGORITHMS)
    records = [
        estimate_ert(runs, config.resolved_t_max, instance_id=iid, algorithm=algorithm)
        for algorithm in ALGORITHMS
        if algorithm not in unrun
        for iid in sorted(instance_ids(config))
        for runs in [store.read_run_records(config, algorithm, iid)]
    ]
    if not records:
        if config.runs_per_instance == 0:
            raise ValueError("the grid has no runs: runs_per_instance is 0")
        raise FileNotFoundError("no run records found; execute 'run mboa' / 'run nsga3' first")
    return records


def cmd_ert(config: ExperimentConfig) -> Path:
    """Write ert.csv over all completed (instance, algorithm) pairs."""
    store.sweep(config, "report")
    return _write_ert_csv(config, _ert_records(config))


def _write_ert_csv(config: ExperimentConfig, records: list[ErtRecord]) -> Path:
    # a censored record's ert is None, an empty cell
    table = [["instance_id", "algorithm", "p_hat", "ert"]] + [
        [rec.instance_id, rec.algorithm, rec.p_hat, rec.ert]
        for rec in sorted(records, key=lambda r: (r.instance_id, r.algorithm))
    ]
    return store.write_report(config, "ert.csv", table)


def cmd_regress(config: ExperimentConfig, censored_mode: str = "exclude", jobs: int = 1) -> Path:
    """Fit the simple and multiple cost models; writes regression.json."""
    store.sweep(config, "report")
    table = _load_features(config, jobs)
    return _write_regression(config, table, _ert_records(config), censored_mode)


def _write_regression(
    config: ExperimentConfig, table: dict[str, FeatureVector], records: list[ErtRecord], mode: str
) -> Path:
    cv_seed = derive_seed(config.master_seed, "kfold-cv")
    report = regression_report(table, records, k_folds=10, cv_seed=cv_seed, censored_mode=mode)
    return store.write_report(config, "regression.json", report)


def cmd_pmf_view(config: ExperimentConfig) -> list[Path]:
    """Probabilistic Pareto-front views, one per instance with a model from a
    successful EDA run (see ``store.read_models``)."""
    store.sweep(config, "report")
    written = []
    for instance_id in sorted(instance_ids(config)):
        models = store.read_models(config, instance_id)
        if not models:
            continue
        pareto = store.read_pareto(config, instance_id)
        z = [f"z_{i + 1}" for i in range(pareto.objectives.shape[1])]
        table = [["bitstring", *z, "mean_pmf", "dist_to_ideal", "rank"]] + [
            [e.bitstring, *e.objectives, e.mean_pmf, e.dist_to_ideal, e.rank]
            for e in pareto_pmf_view(models, pareto)
        ]
        written.append(store.write_report(config, f"pmf_view/{instance_id}.csv", table))
    return written


def cmd_report(
    config: ExperimentConfig, censored_mode: str = "exclude", jobs: int = 1
) -> list[Path]:
    """Assemble every analysis output from the run records on disk."""
    store.sweep(config, "report")
    echo = config.to_dict()
    del echo["output_dir"]  # keeps report bytes identical across locations
    echo["t_max_resolved"] = config.resolved_t_max
    echo["nsga3_reference_divisions"] = {
        str(m): list(REFERENCE_DIVISIONS.get(m, ())) for m in config.m_values
    }
    store.write_report(config, "config.json", echo)
    table = _load_features(config, jobs)
    outputs = [_write_features_csv(config, table)]
    records = _ert_records(config)
    outputs.append(_write_ert_csv(config, records))
    outputs.append(_write_regression(config, table, records, censored_mode))
    outputs.extend(cmd_pmf_view(config))
    return outputs


def cmd_all(config: ExperimentConfig, jobs: int = 1) -> list[Path]:
    """gen -> enumerate -> run both algorithms -> report."""
    cmd_gen(config)
    cmd_enumerate(config, jobs=jobs)
    for algorithm in ALGORITHMS:
        cmd_run(config, algorithm, jobs=jobs)
    return cmd_report(config, jobs=jobs)
