import json
from pathlib import Path

import pytest

from mnkbench import experiment
from mnkbench.cli import main
from mnkbench.enumeration import load_pareto_json
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
from mnkbench.landscape import load_instance
from mnkbench.optimizers import mboa_run, nsga3_run
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
                params = second.run_params(seed)
                if algorithm == "mboa":
                    result = mboa_run(instance, pareto, params)
                else:
                    result = nsga3_run(
                        instance,
                        pareto,
                        params,
                        pc=second.crossover_prob,
                        pm=second.mutation_prob,
                    )
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

    monkeypatch.setattr(experiment, "save_network_json", crash)
    with pytest.raises(OSError, match="disk full"):
        cmd_run(config, "mboa")
    assert _successful_model_runs(config) == []
    monkeypatch.undo()
    cmd_run(config, "mboa")  # resume re-runs the interrupted run
    records = _successful_model_runs(config)
    assert records
    for path in records:
        assert path.with_suffix(".model.json").exists()


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
    "field, value",
    [
        ("pgm_size", 200),
        ("t_max", 10),
        ("max_parents", -1),
        ("crossover_prob", 1.5),
        ("n_vars", 25),
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
