import csv
import json
import shutil
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from mnkbench import experiment, store
from mnkbench.cli import main
from mnkbench.enumeration import enumerate_pareto, load_pareto_json
from mnkbench.experiment import (
    ExperimentConfig,
    cmd_all,
    cmd_enumerate,
    cmd_ert,
    cmd_features,
    cmd_gen,
    cmd_pmf_view,
    cmd_regress,
    cmd_report,
    cmd_run,
    instance_ids,
)
from mnkbench.features import extract_features
from mnkbench.landscape import load_instance
from mnkbench.optimizers import RunParams, mboa_run, nsga3_run
from mnkbench.seeds import derive_seed


def _tiny_config(tmp_path, **overrides):
    base = dict(
        master_seed=5,
        n_vars=8,
        k_values=(2,),
        m_values=(2,),
        landscapes_per_cell=2,
        runs_per_instance=3,
        epsilon=0.3,
        t_max=64,
        pop_size=12,
        pgm_size=6,
        sample_size=24,
        max_parents=2,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _small_grid(tmp_path, **overrides):
    base = dict(
        master_seed=9,
        n_vars=8,
        k_values=(2, 4),
        m_values=(2, 3),
        landscapes_per_cell=1,
        runs_per_instance=3,
        epsilon=0.4,
        t_max=64,
        pop_size=12,
        pgm_size=6,
        sample_size=24,
        max_parents=2,
        output_dir=str(tmp_path / "grid"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# --- gen ---------------------------------------------------------------------


def test_gen_grid_arithmetic(tmp_path):
    config = _tiny_config(tmp_path, k_values=(1, 2), m_values=(2, 3), landscapes_per_cell=3)
    paths = cmd_gen(config)
    assert len(paths) == 2 * 2 * 3
    assert all(p.exists() for p in paths)


def test_gen_single_cell(tmp_path):
    config = _tiny_config(tmp_path, landscapes_per_cell=1)
    assert len(cmd_gen(config)) == 1


def test_gen_is_idempotent(tmp_path):
    config = _tiny_config(tmp_path)
    first = {p: p.read_bytes() for p in cmd_gen(config)}
    second = {p: p.read_bytes() for p in cmd_gen(config)}
    assert first == second


def test_different_seeds_give_different_instances(tmp_path):
    a = cmd_gen(_tiny_config(tmp_path / "a", master_seed=1))[0].read_bytes()
    b = cmd_gen(_tiny_config(tmp_path / "b", master_seed=2))[0].read_bytes()
    assert a != b


# --- run ---------------------------------------------------------------------


def test_run_requires_instances(tmp_path):
    config = _tiny_config(tmp_path)
    with pytest.raises(FileNotFoundError, match="gen"):
        cmd_run(config, "mboa")


def test_run_auto_enumerates_and_writes_records(tmp_path):
    config = _tiny_config(tmp_path)
    cmd_gen(config)
    executed = cmd_run(config, "mboa")
    assert executed == 2 * 3
    runs_dir = Path(config.output_dir) / "runs" / "mboa"
    records = sorted(runs_dir.rglob("run-*.json"))
    records = [p for p in records if not p.name.endswith(".model.json")]
    assert len(records) == 6
    doc = json.loads(records[0].read_text())
    assert set(doc) == {
        "instance_id",
        "algorithm",
        "run_index",
        "success",
        "evaluations",
        "generations",
    }
    assert (Path(config.output_dir) / "pareto").exists()


def test_run_zero_runs_is_noop(tmp_path):
    config = _tiny_config(tmp_path, runs_per_instance=0)
    cmd_gen(config)
    assert cmd_run(config, "nsga3") == 0


def test_run_is_resumable(tmp_path):
    config = _tiny_config(tmp_path)
    cmd_gen(config)
    cmd_run(config, "nsga3")
    root = Path(config.output_dir)
    before = _tree_bytes(root / "runs")
    # simulate an interrupted campaign: drop some records, then resume
    victims = sorted((root / "runs").rglob("run-0001.json"))
    for victim in victims:
        victim.unlink()
    executed = cmd_run(config, "nsga3")
    assert executed == len(victims)
    assert _tree_bytes(root / "runs") == before


def test_reduced_grid_counts(tmp_path):
    config = _tiny_config(tmp_path, runs_per_instance=5)
    cmd_gen(config)
    for algorithm in ("mboa", "nsga3"):
        cmd_run(config, algorithm)
    records = [
        p
        for p in (Path(config.output_dir) / "runs").rglob("run-*.json")
        if not p.name.endswith(".model.json")
    ]
    assert len(records) == 2 * 5 * 2  # instances x runs x algorithms


def test_run_ignores_earlier_campaign_with_same_instance_ids(tmp_path):
    # Both campaigns name their instances n8-m2-k2-i000 and -i001, but the
    # different master seeds give them different tables and Pareto sets.
    first = _tiny_config(tmp_path, output_dir=str(tmp_path / "first"))
    second = _tiny_config(tmp_path, master_seed=9, output_dir=str(tmp_path / "second"))
    assert instance_ids(first) == instance_ids(second)
    for config in (first, second):
        cmd_gen(config)
        for algorithm in ("mboa", "nsga3"):
            cmd_run(config, algorithm)

    root = Path(second.output_dir)
    for iid in instance_ids(second):
        instance = load_instance(root / "instances" / f"{iid}.json")
        pareto = load_pareto_json(root / "pareto" / f"{iid}.json")
        for run in range(second.runs_per_instance):
            for algorithm in ("mboa", "nsga3"):
                seed = derive_seed(second.master_seed, iid, algorithm, run)
                run_fn = {"mboa": mboa_run, "nsga3": nsga3_run}[algorithm]
                result = run_fn(instance, pareto, second.run_params(seed))
                path = root / "runs" / algorithm / iid / f"run-{run:04d}.json"
                doc = json.loads(path.read_text())
                assert (doc["success"], doc["evaluations"], doc["generations"]) == (
                    result.success,
                    result.evaluations,
                    result.generations,
                ), f"{algorithm}/{iid}/run {run}"


def _successful_model_runs(config):
    """Run-record paths of successful EDA runs that learned a model."""
    paths = []
    for path in sorted((Path(config.output_dir) / "runs" / "mboa").rglob("run-*.json")):
        if path.name.endswith(".model.json"):
            continue
        doc = json.loads(path.read_text())
        if doc["success"] and doc["generations"] > 0:
            paths.append(path)
    return paths


def test_run_crash_while_saving_model_leaves_no_record(tmp_path, monkeypatch):
    config = _tiny_config(tmp_path)
    cmd_gen(config)

    def crash(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(store, "save_network_json", crash)
    with pytest.raises(OSError, match="disk full"):
        cmd_run(config, "mboa")
    assert _successful_model_runs(config) == []
    monkeypatch.undo()
    cmd_run(config, "mboa")  # resume re-runs the interrupted run
    records = _successful_model_runs(config)
    assert records
    for path in records:
        assert path.with_suffix(".model.json").exists()


def test_enumerate_resumes_after_a_failed_pareto_csv_write(tmp_path, monkeypatch):
    # the JSON file marks a Pareto set done, so it must not precede the CSV
    clean = _tiny_config(tmp_path, output_dir=str(tmp_path / "clean"))
    config = _tiny_config(tmp_path)
    for cfg in (clean, config):
        cmd_gen(cfg)
    cmd_enumerate(clean)

    def crash(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(store, "save_pareto_csv", crash)
    with pytest.raises(OSError, match="disk full"):
        cmd_enumerate(config)
    monkeypatch.undo()
    cmd_enumerate(config)
    tree = _tree_bytes(Path(config.output_dir) / "pareto")
    names = sorted(f"{iid}{ext}" for iid in instance_ids(config) for ext in (".csv", ".json"))
    assert sorted(tree) == names
    assert tree == _tree_bytes(Path(clean.output_dir) / "pareto")


def test_pmf_view_rejects_missing_model(tmp_path, capsys):
    config = _tiny_config(tmp_path)
    cfg_path = _write_config(tmp_path, config)
    for command in (["gen"], ["run", "mboa"], ["pmf-view"]):
        assert main(["--config", str(cfg_path), *command]) == 0
    records = _successful_model_runs(config)
    assert len(records) >= 2
    model = records[0].with_suffix(".model.json")
    model.unlink()
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "pmf-view"]) == 1
    assert str(model) in capsys.readouterr().err


# a run that succeeded on its initial population, so it has no model and
# pmf-view reads its record
_RECORD = Path("runs/mboa/n8-m2-k2-i000/run-0000.json")
_FEATURES = Path("features/n8-m2-k2-i000.json")


def _truncated(text):
    return text[: len(text) // 2]


def _without(field):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != field})


def _with(field):
    return lambda text: json.dumps({**json.loads(text), field: 1})


@pytest.fixture(scope="module")
def record_campaign(tmp_path_factory):
    config = _tiny_config(tmp_path_factory.mktemp("records"), master_seed=3)
    cmd_gen(config)
    cmd_run(config, "mboa")
    cmd_features(config)
    root = Path(config.output_dir)
    assert not (root / _RECORD).with_suffix(".model.json").exists()
    return config


@pytest.mark.parametrize(
    "command, target, edit",
    [
        pytest.param("ert", _RECORD, _without("evaluations"), id="ert-no-evaluations"),
        pytest.param("ert", _RECORD, _truncated, id="ert-truncated"),
        pytest.param("pmf-view", _RECORD, _without("success"), id="pmf-view-no-success"),
        pytest.param("pmf-view", _RECORD, _truncated, id="pmf-view-truncated"),
        pytest.param("features", _FEATURES, _truncated, id="features-truncated"),
        pytest.param("features", _FEATURES, _without("hv"), id="features-no-hv"),
        pytest.param("features", _FEATURES, _with("spin"), id="features-unknown-field"),
    ],
)
def test_malformed_file_is_named(record_campaign, tmp_path, capsys, command, target, edit):
    root = tmp_path / "out"
    shutil.copytree(record_campaign.output_dir, root)
    config = _tiny_config(tmp_path, master_seed=3, output_dir=str(root))
    path = root / target
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert main(["--config", str(_write_config(tmp_path, config)), command]) == 1
    assert str(path) in capsys.readouterr().err


def test_unknown_algorithm_rejected(tmp_path):
    config = _tiny_config(tmp_path)
    with pytest.raises(ValueError, match="unknown algorithm"):
        cmd_run(config, "annealer")


# --- reports -------------------------------------------------------------------


@pytest.fixture(scope="module")
def completed_campaign(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("campaign")
    config = _small_grid(tmp_path)
    cmd_all(config, jobs=1)
    return config


def test_features_csv(completed_campaign):
    path = Path(completed_campaign.output_dir) / "reports" / "features.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "instance_id,m,k,npo,hv,avgd,maxd,nconnec,lconnec,kconnec"
    assert len(lines) == 1 + len(instance_ids(completed_campaign))


def test_ert_csv(completed_campaign):
    path = Path(completed_campaign.output_dir) / "reports" / "ert.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "instance_id,algorithm,p_hat,ert"
    assert len(lines) == 1 + 2 * len(instance_ids(completed_campaign))


def test_regression_json(completed_campaign):
    path = Path(completed_campaign.output_dir) / "reports" / "regression.json"
    report = json.loads(path.read_text())
    for algorithm in ("mboa", "nsga3"):
        section = report["algorithms"][algorithm]
        assert len(section["simple"]) == 10
        assert section["simple"][0]["feature"] == "none"


def test_pmf_views_only_for_model_carrying_runs(completed_campaign):
    config = completed_campaign
    out = Path(config.output_dir) / "reports" / "pmf_view"
    model_files = list((Path(config.output_dir) / "runs" / "mboa").rglob("*.model.json"))
    views = sorted(out.glob("*.csv")) if out.exists() else []
    instances_with_models = {p.parent.name for p in model_files}
    assert {v.stem for v in views} == instances_with_models
    if views:
        header = views[0].read_text().splitlines()[0]
        assert header.startswith("bitstring,z_1")
        assert header.endswith("mean_pmf,dist_to_ideal,rank")


def test_config_echo_records_reference_divisions(completed_campaign):
    path = Path(completed_campaign.output_dir) / "reports" / "config.json"
    doc = json.loads(path.read_text())
    assert doc["t_max_resolved"] == 64
    assert doc["nsga3_reference_divisions"]["2"] == [99]
    assert doc["nsga3_reference_divisions"]["3"] == [12]


def test_report_is_deterministic(tmp_path):
    config_a = _small_grid(tmp_path, output_dir=str(tmp_path / "a"))
    config_b = _small_grid(tmp_path, output_dir=str(tmp_path / "b"))
    cmd_all(config_a, jobs=1)
    cmd_all(config_b, jobs=1)
    trees = [
        _tree_bytes(Path(cfg.output_dir) / "reports") for cfg in (config_a, config_b)
    ]
    assert trees[0] == trees[1]


def test_report_reuses_feature_files(tmp_path, monkeypatch):
    calls = []

    def counted(instance, pareto):
        calls.append(instance.id)
        return extract_features(instance, pareto)

    monkeypatch.setattr(experiment, "extract_features", counted)
    config = _small_grid(tmp_path)
    ids = instance_ids(config)
    cmd_all(config, jobs=1)
    assert sorted(calls) == sorted(ids)
    root = Path(config.output_dir)
    table = (root / "reports" / "features.csv").read_bytes()

    calls.clear()
    cmd_report(config)
    assert calls == []

    (root / "features" / f"{ids[0]}.json").unlink()
    cmd_report(config)
    assert calls == [ids[0]]
    assert (root / "reports" / "features.csv").read_bytes() == table


def test_report_reads_each_feature_file_once(tmp_path, monkeypatch):
    config = _small_grid(tmp_path)
    cmd_all(config, jobs=1)
    reports = Path(config.output_dir) / "reports"
    before = _tree_bytes(reports)
    reads = []

    def counted(path):
        reads.append(path)
        return read_features(path)

    read_features = store._read_features
    monkeypatch.setattr(store, "_read_features", counted)
    cmd_report(config)
    assert len(reads) == len(instance_ids(config))
    assert _tree_bytes(reports) == before


def test_report_reads_each_run_record_once(tmp_path, monkeypatch):
    config = _small_grid(tmp_path)
    cmd_all(config, jobs=1)
    root = Path(config.output_dir)
    before = _tree_bytes(root / "reports")
    records = sorted((root / "runs").rglob("run-????.json"))
    # the pmf view also reads each EDA record that has no model beside it
    modelless = [
        path
        for path in records
        if path.parts[-3] == "mboa" and not path.with_suffix(".model.json").exists()
    ]
    assert len(records) == 24 and modelless
    reads = []

    def counted(path):
        reads.append(path)
        return read_run_record(path)

    read_run_record = store._read_run_record
    monkeypatch.setattr(store, "_read_run_record", counted)
    cmd_report(config)
    assert sorted(reads) == sorted(records + modelless)
    assert _tree_bytes(root / "reports") == before


def test_features_independent_of_jobs(tmp_path):
    trees = []
    for jobs in (1, 2):
        config = _small_grid(tmp_path, output_dir=str(tmp_path / f"jobs{jobs}"))
        cmd_gen(config)
        cmd_features(config, jobs=jobs)
        root = Path(config.output_dir)
        trees.append((_tree_bytes(root / "features"), _tree_bytes(root / "reports")))
    assert len(trees[0][0]) == len(instance_ids(config))
    assert trees[0] == trees[1]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: no config fingerprint")
def test_features_follow_a_regenerated_campaign(tmp_path):
    # gen at another master seed rewrites the instances under the same ids,
    # so every feature row must come from the new instance's own Pareto set
    config = _tiny_config(tmp_path)
    cfg_path = _write_config(tmp_path, config)
    for seed in ("1", "2"):
        assert main(["--config", str(cfg_path), "--seed", seed, "gen"]) == 0
        assert main(["--config", str(cfg_path), "--seed", seed, "features"]) == 0
    root = Path(config.output_dir)
    with open(root / "reports" / "features.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [row[0] for row in rows] == sorted(instance_ids(config))
    for row in rows:
        instance = load_instance(root / "instances" / f"{row[0]}.json")
        features = extract_features(instance, enumerate_pareto(instance))
        expected = [str(v) if isinstance(v, int) else repr(float(v)) for v in astuple(features)]
        assert row[1:] == expected, row[0]


def test_regress_insufficient_data(tmp_path):
    config = _tiny_config(tmp_path, epsilon=1e-9)  # essentially unreachable
    cmd_gen(config)
    cmd_run(config, "mboa")
    with pytest.raises(ValueError, match="at least 3"):
        cmd_regress(config)


# --- CLI surface ------------------------------------------------------------------


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


def test_cli_gen_and_report(tmp_path, capsys):
    config = _small_grid(tmp_path)
    cfg_path = _write_config(tmp_path, config)
    assert main(["--config", str(cfg_path), "gen"]) == 0
    assert main(["--config", str(cfg_path), "enumerate"]) == 0
    assert main(["--config", str(cfg_path), "run", "mboa"]) == 0
    assert main(["--config", str(cfg_path), "run", "nsga3"]) == 0
    assert main(["--config", str(cfg_path), "report"]) == 0
    out = capsys.readouterr().out
    assert "report files" in out
    assert (Path(config.output_dir) / "reports" / "ert.csv").exists()


def test_cli_error_paths(tmp_path, capsys):
    config = _tiny_config(tmp_path)
    cfg_path = _write_config(tmp_path, config)
    # running before gen must fail with a diagnostic and nonzero exit
    assert main(["--config", str(cfg_path), "run", "mboa"]) == 1
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing), "gen"]) == 1


def test_all_names_a_grid_without_runs(tmp_path, capsys):
    # runs_per_instance 0 is a valid config; report must say why no ert exists
    config = _tiny_config(tmp_path, runs_per_instance=0, landscapes_per_cell=1)
    cfg_path = _write_config(tmp_path, config)
    assert main(["--config", str(cfg_path), "all"]) == 1
    err = capsys.readouterr().err
    assert "runs_per_instance is 0" in err
    assert "execute" not in err


def test_cli_seed_override(tmp_path):
    config = _tiny_config(tmp_path, landscapes_per_cell=1)
    cfg_path = _write_config(tmp_path, config)
    assert main(["--config", str(cfg_path), "--seed", "123", "gen"]) == 0
    path = next((Path(config.output_dir) / "instances").glob("*.json"))
    overridden = path.read_bytes()
    assert main(["--config", str(cfg_path), "gen"]) == 0
    assert path.read_bytes() != overridden


def test_cli_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_config_round_trip(tmp_path):
    config = _small_grid(tmp_path)
    path = _write_config(tmp_path, config)
    assert ExperimentConfig.from_json(path) == config


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "config.json"
    # a config written for a deleted field must not load with it ignored
    for field, value in (
        ("banana", 2),
        ("success_cadence", "per_batch"),
        ("enumeration_cap", 24),
    ):
        path.write_text(json.dumps({"master_seed": 1, field: value}))
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json(path)


@pytest.mark.parametrize(
    "text", ['{"master_seed": 1, ', "[1, 2]", '{"master_seed": 1, "banana": 2}']
)
def test_cli_names_a_bad_config_file(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["--config", str(path), "gen"]) == 1
    assert str(path) in capsys.readouterr().err


def test_run_params_carry_every_run_field_of_the_config():
    # every RunParams field but the seed comes from the same-named config
    # field (t_max resolved), so a field added to RunParams and left unfilled
    # keeps its default and fails here
    config = ExperimentConfig(
        epsilon=0.25,
        t_max=5000,
        pop_size=40,
        pgm_size=30,
        sample_size=70,
        max_parents=1,
        crossover_prob=0.6,
        mutation_prob=0.01,
    )
    params, default = config.run_params(17), ExperimentConfig().run_params(17)
    assert params.seed == 17
    for field in fields(RunParams):
        if field.name == "seed":
            continue
        value = getattr(params, field.name)
        assert value != getattr(default, field.name), f"{field.name} left at its default"
        source = "resolved_t_max" if field.name == "t_max" else field.name
        assert value == getattr(config, source), field.name


@pytest.mark.parametrize(
    "field, value",
    [
        ("pgm_size", 200),
        ("t_max", 10),
        ("max_parents", -1),
        ("crossover_prob", 1.5),
        ("n_vars", 25),
        # only a non-negative int: the string "7" would derive other streams than 7
        ("master_seed", "7"),
        ("master_seed", 1.5),
        ("master_seed", -1),
        ("master_seed", True),
        # counts are integers: 20.0 would pass the range checks and fail mid-run
        ("pop_size", 20.0),
        ("max_parents", 1.5),
        ("runs_per_instance", 1.0),
        ("sample_size", True),
        # rates are finite reals: true, NaN and inf would load and run, "0.1"
        # would fail in a comparison that names no field
        ("epsilon", True),
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("epsilon", "0.1"),
        ("crossover_prob", "0.8"),
        ("mutation_prob", False),
    ],
)
def test_bad_config_rejected_before_any_work(tmp_path, capsys, field, value):
    doc = _tiny_config(tmp_path).to_dict()
    doc[field] = value
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "gen"]) == 1
    assert field in capsys.readouterr().err
    assert not Path(doc["output_dir"]).exists()


def test_numpy_run_fields_give_the_plain_campaign(tmp_path):
    # numpy scalars are stored as Python numbers, so the config echo can be
    # written and every campaign byte matches the plain config's
    plain = _tiny_config(tmp_path, landscapes_per_cell=3, output_dir=str(tmp_path / "plain"))
    numpy_config = _tiny_config(
        tmp_path,
        landscapes_per_cell=3,
        output_dir=str(tmp_path / "numpy"),
        pop_size=np.int64(12),
        pgm_size=np.int32(6),
        sample_size=np.uint16(24),
        max_parents=np.int64(2),
        t_max=np.int64(64),
        epsilon=np.float64(0.3),
        crossover_prob=np.float64(0.8),
    )
    for name in ("pop_size", "pgm_size", "sample_size", "max_parents", "t_max"):
        assert type(getattr(numpy_config, name)) is int, name
    for name in ("epsilon", "crossover_prob", "mutation_prob"):
        assert type(getattr(numpy_config, name)) is float, name
    cmd_all(plain)
    cmd_all(numpy_config)
    files = {}
    for config in (plain, numpy_config):
        root = Path(config.output_dir)
        files[config.output_dir] = {
            p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()
        }
    assert files[plain.output_dir] == files[numpy_config.output_dir]
