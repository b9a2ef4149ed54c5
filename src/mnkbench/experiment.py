"""Batch orchestration with resumable on-disk state.

A campaign lives under one output directory:

* ``instances/<id>.json``: generated problem instances;
* ``pareto/<id>.json`` and ``<id>.csv``: exact Pareto sets;
* ``runs/<algorithm>/<id>/run-<index>.json``: one record per run, plus
  ``run-<index>.model.json`` for successful EDA runs (the final network);
* ``reports/``: features.csv, ert.csv, regression.json, pmf_view/*.csv,
  and config.json echoing the resolved configuration.

Every output file is written atomically (temp file + rename) and every
random stream is derived from the master seed and the task identity, so
completed (instance, run) pairs can be skipped on resume and the worker
schedule never affects results.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .analysis import ErtRecord, estimate_ert, pareto_pmf_view, regression_report
from .bayesnet import load_network_json, save_network_json
from .enumeration import (
    ENUMERATION_CAP,
    enumerate_pareto,
    load_pareto_json,
    save_pareto_csv,
    save_pareto_json,
)
from .features import FEATURE_COLUMNS, FeatureVector, extract_features
from .landscape import generate_instance, load_instance, save_instance
from .optimizers import REFERENCE_DIVISIONS, RunParams, mboa_run, nsga3_run
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
    file is written.
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
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "m_values", tuple(self.m_values))
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
        for name in ("crossover_prob", "mutation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        self.run_params(0)  # the run parameters' own checks

    @property
    def resolved_t_max(self) -> int:
        if self.t_max is not None:
            return self.t_max
        return (1 << self.n_vars) // 10

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(sorted(unknown))}")
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
        )


# ---------------------------------------------------------------------------
# on-disk layout


def _dir(config: ExperimentConfig, name: str) -> Path:
    return Path(config.output_dir) / name


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


def _instance_path(config: ExperimentConfig, instance_id: str) -> Path:
    return _dir(config, "instances") / f"{instance_id}.json"


def _pareto_path(config: ExperimentConfig, instance_id: str) -> Path:
    return _dir(config, "pareto") / f"{instance_id}.json"


def _run_path(config: ExperimentConfig, algorithm: str, instance_id: str, run: int) -> Path:
    return _dir(config, "runs") / algorithm / instance_id / f"run-{run:04d}.json"


def _atomic(path: Path, write: Callable[[Path], None]) -> None:
    """Write through a temp file in the same directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    write(tmp)
    os.replace(tmp, path)


def _atomic_text(path: Path, text: str) -> None:
    _atomic(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _atomic_json(path: Path, doc) -> None:
    _atomic_text(path, json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# generation and enumeration


def cmd_gen(config: ExperimentConfig) -> list[Path]:
    """Write every instance of the grid; deterministic and idempotent."""
    paths = []
    for instance_id in instance_ids(config):
        m, k, index = _parse_instance_id(instance_id)
        seed = derive_seed(config.master_seed, "instance", m, k, index)
        instance = generate_instance(seed, config.n_vars, m, k, instance_id=instance_id)
        path = _instance_path(config, instance_id)
        _atomic(path, lambda tmp: save_instance(instance, tmp))
        paths.append(path)
    return paths


def _require_instances(config: ExperimentConfig, ids: list[str]) -> None:
    missing = [iid for iid in ids if not _instance_path(config, iid).exists()]
    if missing:
        listed = ", ".join(missing[:5]) + ("..." if len(missing) > 5 else "")
        raise FileNotFoundError(f"instances missing (run 'gen' first): {listed}")


def _enumerate_one(config_doc: dict, instance_id: str) -> str:
    config = ExperimentConfig(**config_doc)
    instance = load_instance(_instance_path(config, instance_id))
    pareto = enumerate_pareto(instance)
    json_path = _pareto_path(config, instance_id)
    _atomic(json_path, lambda tmp: save_pareto_json(pareto, tmp))
    _atomic(json_path.with_suffix(".csv"), lambda tmp: save_pareto_csv(pareto, tmp))
    return instance_id


def cmd_enumerate(config: ExperimentConfig, jobs: int = 1) -> list[str]:
    """Enumerate exact Pareto sets for instances that lack one."""
    ids = instance_ids(config)
    pending = [iid for iid in ids if not _pareto_path(config, iid).exists()]
    _require_instances(config, pending)
    _map_tasks(_enumerate_one, [(config.to_dict(), iid) for iid in pending], jobs)
    return pending


# ---------------------------------------------------------------------------
# optimizer campaigns

def _run_one(config_doc: dict, algorithm: str, instance_id: str, run_index: int) -> str:
    config = ExperimentConfig(**config_doc)
    instance = load_instance(_instance_path(config, instance_id))
    pareto = load_pareto_json(_pareto_path(config, instance_id))
    seed = derive_seed(config.master_seed, instance_id, algorithm, run_index)
    params = config.run_params(seed)
    if algorithm == "mboa":
        result = mboa_run(instance, pareto, params)
    elif algorithm == "nsga3":
        result = nsga3_run(
            instance, pareto, params, pc=config.crossover_prob, pm=config.mutation_prob
        )
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    record = {
        "instance_id": instance_id,
        "algorithm": algorithm,
        "run_index": run_index,
        "success": result.success,
        "evaluations": result.evaluations,
        "generations": result.generations,
    }
    path = _run_path(config, algorithm, instance_id, run_index)
    # the model goes first: a record on disk marks the run complete, so a
    # crash in between must leave the run to be redone, not a bare record
    if algorithm == "mboa" and result.success and result.model is not None:
        structure, cpts = result.model
        model_path = path.with_suffix(".model.json")
        _atomic(model_path, lambda tmp: save_network_json(structure, cpts, tmp))
    _atomic_json(path, record)
    return f"{algorithm}/{instance_id}/{run_index}"


def _map_tasks(fn, tasks: list[tuple], jobs: int) -> None:
    if jobs <= 1:
        for task in tasks:
            fn(*task)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for future in [pool.submit(fn, *task) for task in tasks]:
            future.result()


def cmd_run(config: ExperimentConfig, algorithm: str, jobs: int = 1) -> int:
    """Execute all missing runs of one algorithm; resumable from disk.

    Returns the number of runs actually executed.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r} (expected one of {ALGORITHMS})")
    ids = instance_ids(config)
    _require_instances(config, ids)
    cmd_enumerate(config, jobs=jobs)
    tasks = [
        (config.to_dict(), algorithm, iid, run)
        for iid in ids
        for run in range(config.runs_per_instance)
        if not _run_path(config, algorithm, iid, run).exists()
    ]
    _map_tasks(_run_one, tasks, jobs)
    return len(tasks)


# ---------------------------------------------------------------------------
# reports


class _RunRecord(NamedTuple):
    success: bool
    evaluations: int


def _load_run_records(
    config: ExperimentConfig, algorithm: str, instance_id: str
) -> list[_RunRecord]:
    records = []
    for run in range(config.runs_per_instance):
        path = _run_path(config, algorithm, instance_id, run)
        if not path.exists():
            raise FileNotFoundError(
                f"missing run record {path}; complete the campaign with 'run {algorithm}'"
            )
        doc = json.loads(path.read_text(encoding="utf-8"))
        records.append(_RunRecord(bool(doc["success"]), int(doc["evaluations"])))
    return records


def _float_repr(value) -> str:
    return repr(float(value))


def cmd_features(config: ExperimentConfig) -> Path:
    """Compute the feature table for every instance; writes features.csv."""
    cmd_enumerate(config, jobs=1)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(FEATURE_COLUMNS)
    for instance_id in sorted(instance_ids(config)):
        instance = load_instance(_instance_path(config, instance_id))
        pareto = load_pareto_json(_pareto_path(config, instance_id))
        row = extract_features(instance, pareto).as_row(instance_id)
        writer.writerow(
            [row[0]] + [str(v) if isinstance(v, int) else _float_repr(v) for v in row[1:]]
        )
    out = _dir(config, "reports") / "features.csv"
    _atomic_text(out, buffer.getvalue())
    return out


def _ert_records(config: ExperimentConfig) -> list[ErtRecord]:
    records = []
    for algorithm in ALGORITHMS:
        if not (_dir(config, "runs") / algorithm).exists():
            continue
        for instance_id in sorted(instance_ids(config)):
            runs = _load_run_records(config, algorithm, instance_id)
            records.append(
                estimate_ert(
                    runs,
                    config.resolved_t_max,
                    instance_id=instance_id,
                    algorithm=algorithm,
                )
            )
    if not records:
        raise FileNotFoundError(
            "no run records found; execute 'run mboa' / 'run nsga3' first"
        )
    return records


def cmd_ert(config: ExperimentConfig) -> Path:
    """Write ert.csv over all completed (instance, algorithm) pairs."""
    records = _ert_records(config)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["instance_id", "algorithm", "p_hat", "ert"])
    for rec in sorted(records, key=lambda r: (r.instance_id, r.algorithm)):
        writer.writerow(
            [
                rec.instance_id,
                rec.algorithm,
                _float_repr(rec.p_hat),
                "" if rec.censored else _float_repr(rec.ert),
            ]
        )
    out = _dir(config, "reports") / "ert.csv"
    _atomic_text(out, buffer.getvalue())
    return out


def _load_features(config: ExperimentConfig) -> dict[str, FeatureVector]:
    path = _dir(config, "reports") / "features.csv"
    if not path.exists():
        cmd_features(config)
    table = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            table[row["instance_id"]] = FeatureVector(
                m=int(row["m"]),
                k=int(row["k"]),
                npo=int(row["npo"]),
                hv=float(row["hv"]),
                avgd=float(row["avgd"]),
                maxd=float(row["maxd"]),
                nconnec=int(row["nconnec"]),
                lconnec=float(row["lconnec"]),
                kconnec=int(row["kconnec"]),
            )
    return table


def cmd_regress(config: ExperimentConfig, censored_mode: str = "exclude") -> Path:
    """Fit the simple and multiple cost models; writes regression.json."""
    features = _load_features(config)
    records = _ert_records(config)
    report = regression_report(
        features,
        records,
        k_folds=10,
        cv_seed=derive_seed(config.master_seed, "kfold-cv"),
        censored_mode=censored_mode,
    )
    out = _dir(config, "reports") / "regression.json"
    _atomic_json(out, report)
    return out


def cmd_pmf_view(config: ExperimentConfig) -> list[Path]:
    """Probabilistic Pareto-front views from successful EDA-run models.

    Every successful EDA run that completed a generation must have its
    model on disk; a run that succeeded on its initial population learned
    none and is skipped.
    """
    out_dir = _dir(config, "reports") / "pmf_view"
    written = []
    for instance_id in sorted(instance_ids(config)):
        models = []
        for run in range(config.runs_per_instance):
            record_path = _run_path(config, "mboa", instance_id, run)
            model_path = record_path.with_suffix(".model.json")
            if model_path.exists():
                models.append(load_network_json(model_path))
            elif record_path.exists():
                doc = json.loads(record_path.read_text(encoding="utf-8"))
                if doc["success"] and doc["generations"] > 0:
                    raise FileNotFoundError(
                        f"missing model {model_path} of successful run {record_path}; "
                        "delete the run record and redo it with 'run mboa'"
                    )
        if not models:
            continue
        pareto = load_pareto_json(_pareto_path(config, instance_id))
        entries = pareto_pmf_view(models, pareto)
        m = pareto.objectives.shape[1]
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["bitstring"]
            + [f"z_{i + 1}" for i in range(m)]
            + ["mean_pmf", "dist_to_ideal", "rank"]
        )
        for entry in entries:
            writer.writerow(
                [entry.bitstring]
                + [_float_repr(v) for v in entry.objectives]
                + [
                    _float_repr(entry.mean_pmf),
                    _float_repr(entry.dist_to_ideal),
                    str(entry.rank),
                ]
            )
        path = out_dir / f"{instance_id}.csv"
        _atomic_text(path, buffer.getvalue())
        written.append(path)
    return written


def _write_config_echo(config: ExperimentConfig) -> None:
    doc = config.to_dict()
    del doc["output_dir"]  # keeps report bytes identical across locations
    doc["t_max_resolved"] = config.resolved_t_max
    doc["nsga3_reference_divisions"] = {
        str(m): list(REFERENCE_DIVISIONS.get(m, ())) for m in config.m_values
    }
    _atomic_json(_dir(config, "reports") / "config.json", doc)


def cmd_report(config: ExperimentConfig, censored_mode: str = "exclude") -> list[Path]:
    """Assemble every analysis output from the run records on disk."""
    _write_config_echo(config)
    outputs = [cmd_features(config), cmd_ert(config), cmd_regress(config, censored_mode)]
    outputs.extend(cmd_pmf_view(config))
    return outputs


def cmd_all(config: ExperimentConfig, jobs: int = 1) -> list[Path]:
    """gen -> enumerate -> run both algorithms -> report."""
    cmd_gen(config)
    cmd_enumerate(config, jobs=jobs)
    for algorithm in ALGORITHMS:
        cmd_run(config, algorithm, jobs=jobs)
    return cmd_report(config)
