"""The on-disk state of a campaign: its layout, writers, readers and skip rule.

A campaign lives under one output directory:

* ``instances/<id>.json``: generated problem instances;
* ``pareto/<id>.csv`` and ``<id>.json``: exact Pareto sets;
* ``runs/<algorithm>/<id>/run-<index>.json``: one record per run, plus
  ``run-<index>.model.json`` for successful EDA runs (the final network);
* ``features/<id>.json``: the landscape features of one instance;
* ``reports/``: features.csv, ert.csv, regression.json, pmf_view/*.csv,
  and config.json echoing the resolved configuration.

The JSON file of a Pareto set, the record of a run and the feature file
each mark their work done.  Their writers write them last, so ``pending``,
the one skip rule, tests markers alone.  Every file is written to
``<name>.tmp<pid>`` beside it and renamed into place; ``sweep`` removes
the temp files of killed writers, those whose pid is not a live process,
so commands sharing a directory never delete each other's files in flight.
That assumes every process writing a campaign runs on one host, since a pid
names a process only on its own host.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .bayesnet import load_network_json, save_network_json
from .enumeration import ParetoSet, load_pareto_json, save_pareto_csv, save_pareto_json
from .features import FEATURE_COLUMNS, FeatureVector
from .landscape import MNKInstance, _read_json_object, load_instance, save_instance

if TYPE_CHECKING:
    from .experiment import ExperimentConfig
    from .optimizers import RunResult

# kind -> file under the output directory, formatted with the kind's key
_LAYOUT = {
    "instance": "instances/{}.json",
    "pareto": "pareto/{}.json",
    "features": "features/{}.json",
    "algorithm": "runs/{}",
    "run": "runs/{}/{}/run-{:04d}.json",
    "report": "reports/{}",
}


def path(config: ExperimentConfig, kind: str, *key) -> Path:
    return Path(config.output_dir, _LAYOUT[kind].format(*key))


def pending(config: ExperimentConfig, kind: str, ids: Iterable[str], algorithm: str = "") -> list:
    """The work of ``kind`` whose marker is not on disk, in ``ids`` order:
    ids, or for ``run`` the (id, run index) pairs of ``algorithm``.  A
    pending Pareto set whose instance is missing raises FileNotFoundError;
    every command that reads instances enumerates first."""
    if kind == "run":
        runs = [(iid, run) for iid in ids for run in range(config.runs_per_instance)]
        todo = [key for key in runs if not path(config, kind, algorithm, *key).exists()]
    else:
        todo = [key for key in ids if not path(config, kind, key).exists()]
    missing = pending(config, "instance", todo) if kind == "pareto" else []
    if missing:
        listed = ", ".join(missing[:5]) + ("..." if len(missing) > 5 else "")
        raise FileNotFoundError(f"instances missing (run 'gen' first): {listed}")
    return todo


def sweep(config: ExperimentConfig, kind: str) -> None:
    """Remove the temp files of dead processes under ``kind``'s top directory;
    each command sweeps the directories it writes before any task starts."""
    for tmp in Path(config.output_dir, _LAYOUT[kind].split("/")[0]).rglob("*.tmp[0-9]*"):
        pid = tmp.name.rpartition(".tmp")[2]
        if not pid.isdecimal():
            continue
        try:
            os.kill(int(pid), 0)  # signal 0 only asks whether the process exists
        except (ProcessLookupError, OverflowError):
            tmp.unlink(missing_ok=True)
        except PermissionError:  # it exists, under another user
            pass


def _atomic(path: Path, write: Callable[[Path], None]) -> None:
    """Write through a temp file in the same directory, then rename; a
    write that raises leaves no temp file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_text(path: Path, text: str) -> None:
    _atomic(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _atomic_json(path: Path, doc) -> None:
    _atomic_text(path, json.dumps(doc, indent=1) + "\n")


def write_instance(config: ExperimentConfig, instance: MNKInstance) -> Path:
    out = path(config, "instance", instance.id)
    _atomic(out, lambda tmp: save_instance(instance, tmp))
    return out


def write_pareto(config: ExperimentConfig, instance_id: str, pareto: ParetoSet) -> None:
    marker = path(config, "pareto", instance_id)
    _atomic(marker.with_suffix(".csv"), lambda tmp: save_pareto_csv(pareto, tmp))
    _atomic(marker, lambda tmp: save_pareto_json(pareto, tmp))


def write_run(
    config: ExperimentConfig, algorithm: str, instance_id: str, run_index: int, result: RunResult
) -> None:
    marker = path(config, "run", algorithm, instance_id, run_index)
    if algorithm == "mboa" and result.success and result.model is not None:
        structure, cpts = result.model
        model = marker.with_suffix(".model.json")
        _atomic(model, lambda tmp: save_network_json(structure, cpts, tmp))
    _atomic_json(marker, {
        "instance_id": instance_id, "algorithm": algorithm, "run_index": run_index,
        "success": result.success, "evaluations": result.evaluations,
        "generations": result.generations,
    })


def write_features(config: ExperimentConfig, instance_id: str, features: FeatureVector) -> None:
    _atomic_json(path(config, "features", instance_id), asdict(features))


def _cell(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    return "" if value is None else repr(float(value))


def write_report(config: ExperimentConfig, name: str, doc) -> Path:
    """A JSON report, or for a ``.csv`` name a table given as its rows, the
    header first; a cell is text, None (empty), an int, or another number
    written as the repr of its float."""
    out = path(config, "report", name)
    if out.suffix == ".csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([_cell(value) for value in row] for row in doc)
        _atomic_text(out, buffer.getvalue())
    else:
        _atomic_json(out, doc)
    return out


class RunRecord(NamedTuple):
    success: bool
    evaluations: int


def read_instance(config: ExperimentConfig, instance_id: str) -> MNKInstance:
    return load_instance(path(config, "instance", instance_id))


def read_pareto(config: ExperimentConfig, instance_id: str) -> ParetoSet:
    return load_pareto_json(path(config, "pareto", instance_id))


def _read_run_record(path: Path) -> dict:
    return _read_json_object(path, ("success", "evaluations", "generations"))


def read_run_records(config: ExperimentConfig, algorithm: str, instance_id: str) -> list:
    records = []
    for run in range(config.runs_per_instance):
        record = path(config, "run", algorithm, instance_id, run)
        if not record.exists():
            raise FileNotFoundError(
                f"missing run record {record}; complete the campaign with 'run {algorithm}'"
            )
        doc = _read_run_record(record)
        records.append(RunRecord(bool(doc["success"]), int(doc["evaluations"])))
    return records


def read_models(config: ExperimentConfig, instance_id: str) -> list:
    """The final networks of the instance's successful EDA runs.  Each run
    that completed a generation must have one; a run that succeeded on its
    initial population learned none and is skipped."""
    models = []
    for run in range(config.runs_per_instance):
        record = path(config, "run", "mboa", instance_id, run)
        model = record.with_suffix(".model.json")
        if model.exists():
            models.append(load_network_json(model))
        elif record.exists():
            doc = _read_run_record(record)
            if doc["success"] and doc["generations"] > 0:
                raise FileNotFoundError(
                    f"missing model {model} of successful run {record}; "
                    "delete the run record and redo it with 'run mboa'"
                )
    return models


def _read_features(path: Path) -> FeatureVector:
    names = FEATURE_COLUMNS[1:]
    doc = _read_json_object(path, names)
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"{path}: unknown field(s) {', '.join(unknown)}")
    return FeatureVector(**doc)


def read_features(config: ExperimentConfig, ids: Iterable[str]) -> dict[str, FeatureVector]:
    return {iid: _read_features(path(config, "features", iid)) for iid in ids}
