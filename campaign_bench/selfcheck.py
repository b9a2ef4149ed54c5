"""Self-checks of the benchmark's checkers and tracer, on a tiny grid.

Usage, from the root of a checkout::

    python3 campaign_bench/selfcheck.py

Runs a small campaign (N=10) through ``mnkbench.cli.main``, requires every
checker to accept it, then corrupts one output at a time and requires the
matching checker to reject it: a changed ``evaluations`` value, a flipped
``success`` flag, a perturbed Pareto objective, a wrong ``npo`` and a wrong
``ert``.  It also holds the benchmark's own helpers to ``tests/oracles.py``,
runs the campaign again with the tracer installed (outputs must not change,
spans must nest and their self times must add up), and compares the metric
names with BENCHMARK.json.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import require  # noqa: E402
import run  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import REPORT  # noqa: E402

WORK = ROOT / ".campaign_bench" / "selfcheck"
SEED = 11
TINY = {
    "master_seed": SEED,
    "n_vars": 10,
    "m_values": [2, 3],
    "k_values": [2, 4],
    "landscapes_per_cell": 1,
    "runs_per_instance": 3,
    "t_max": 300,
    "pop_size": 12,
    "pgm_size": 6,
    "sample_size": 24,
    "max_parents": 2,
}
COMMANDS = (("gen",), ("enumerate",), ("run", "mboa"), ("run", "nsga3"), REPORT)


def build(directory: Path) -> checks.Campaign:
    from mnkbench import cli

    directory.mkdir(parents=True)
    (directory / "config.json").write_text(
        json.dumps({**TINY, "output_dir": str(directory)}), encoding="utf-8"
    )
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--config", str(directory / "config.json"), "--jobs", "1", *command])
        require(code == 0, f"{command} exited {code}")
    return checks.Campaign(directory)


def check_all(campaign: checks.Campaign) -> None:
    """Every checker, with every (instance, run) pair re-run directly."""
    checks.check_instances(campaign, campaign.dir.name)
    checks.check_pareto(campaign, SEED)
    pairs = len(campaign.ids) * campaign.runs
    for algorithm in run.ALGORITHMS:
        checks.check_records(campaign, algorithm)
        checks.check_reproduction(campaign, algorithm, SEED, pairs)
    checks.check_ert(campaign, run.ALGORITHMS)
    for algorithm in run.ALGORITHMS:
        checks.check_regression(campaign, algorithm, "impute_tmax")
    checks.check_pmf_view(campaign)
    checks.check_features(campaign, SEED)


def rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def records(campaign: checks.Campaign, algorithm: str, success: bool) -> list[Path]:
    return [
        campaign.run_path(algorithm, iid, r)
        for iid in campaign.ids
        for r in range(campaign.runs)
        if campaign.record(algorithm, iid, r)["success"] == success
    ]


def corruptions(campaign: checks.Campaign):
    """(name, corrupt(copy), checker that must reject the copy)."""
    success = (records(campaign, "mboa", True) + records(campaign, "nsga3", True))[0]
    censored = (records(campaign, "nsga3", False) + records(campaign, "mboa", False))[0]
    pairs = len(campaign.ids) * campaign.runs

    def run_check(record: Path):
        algorithm = record.parent.parent.name

        def check(c):
            checks.check_records(c, algorithm)
            checks.check_reproduction(c, algorithm, SEED, pairs)
        return check

    def evaluations(c):
        rewrite_json(c.dir / success.relative_to(campaign.dir), lambda d: d.update(evaluations=d["evaluations"] - 1))

    def flip(c):
        rewrite_json(c.dir / censored.relative_to(campaign.dir), lambda d: d.update(success=True))

    def objective(c):
        def edit(doc):
            doc["objectives"][0][0] *= 1 + 1e-12
        rewrite_json(c.dir / "pareto" / f"{c.ids[-1]}.json", edit)

    def npo(c):
        def edit(rows):
            rows[1][3] = str(int(rows[1][3]) + 1)
        rewrite_csv(c.dir / "reports" / "features.csv", edit)

    def ert(c):
        def edit(rows):
            row = next(r for r in rows[1:] if r[3])
            row[3] = repr(float(row[3]) + 1.0)
        rewrite_csv(c.dir / "reports" / "ert.csv", edit)

    return [
        ("changed evaluations", evaluations, run_check(success)),
        ("flipped success flag", flip, run_check(censored)),
        ("perturbed Pareto objective", objective, lambda c: checks.check_pareto(c, SEED)),
        ("wrong npo", npo, lambda c: checks.check_features(c, SEED)),
        ("wrong ert", ert, lambda c: checks.check_ert(c, run.ALGORITHMS)),
    ]


def helpers_match_oracles() -> None:
    orc = checks.oracles()
    rng = np.random.default_rng(SEED)
    for trial in range(20):
        # coarse values force ties and duplicate vectors
        objs = rng.integers(0, 6, size=(60, 2)).astype(np.float64)
        require(np.array_equal(checks.front_2d(objs), orc.pairwise_pareto_mask(objs)), "front_2d")
        codes = np.unique(rng.integers(0, 1 << 9, size=25))
        bits = ((codes[:, None] >> np.arange(8, -1, -1)) & 1).astype(np.uint8)
        got = checks.connectivity_matrix(checks.hamming_matrix(codes, 9))
        require(got == orc.unionfind_connectivity(bits), f"connectivity {got}")
        require(np.isclose(
            checks.hamming_matrix(codes, 9)[np.triu_indices(len(codes), 1)].mean(),
            orc.all_pairs_distances(bits)[0],
        ), "hamming")
    front = rng.random((40, 2))
    front = front[orc.pairwise_pareto_mask(front)]
    exact = orc.hv_sweepline_2d(front, [0.0, 0.0])
    estimate, stderr = checks.mc_hypervolume(front, checks.HV_SAMPLES, SEED)
    require(abs(estimate - exact) <= 5 * stderr, "mc_hypervolume")


def tracing(clean: checks.Campaign) -> None:
    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.all"):
        traced = build(WORK / "traced")
    require(run.same_outputs(clean.dir, traced.dir), "tracing changed the outputs")
    spans = json.loads(json.dumps([
        {"name": n, "start": s, "end": e, "parent": p, "count": c} for n, s, e, p, c in tracer.spans
    ]))
    names = {s["name"] for s in spans}
    for needed in ("optimizers.mboa_run", "optimizers.nsga3_survival", "bayesnet.sample",
                   "enumeration.nondominated_sort", "enumeration.epsilon_success",
                   "landscape.evaluate_batch", "features.hypervolume", "analysis.pareto_pmf_view"):
        require(needed in names, f"no {needed} span")
    for s in spans:
        if s["name"] == "bayesnet.sample":
            require(spans[s["parent"]]["name"] == "optimizers.mboa_run", "sample outside mboa_run")
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            require(parent["start"] <= s["start"] <= s["end"] <= parent["end"], "spans do not nest")
    own = self_times(spans)
    total = spans[0]["end"] - spans[0]["start"]
    require(abs(sum(own) - total) < 1e-6 * max(1.0, total), "self times do not add up")
    require(min(own) > -1e-9, "negative self time")
    metrics = layer_metrics(spans)
    require(
        metrics["enumeration.epsilon_success.calls"] > 0 and metrics["landscape.evaluate_batch.rows"] > 0,
        "no success checks or evaluations counted",
    )


def metric_names_match() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    require({m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END, "end_to_end names")
    require({m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER, "per_layer names")
    require(sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS), "workloads")


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    clean = build(WORK / "clean")
    check_all(clean)
    print("clean tiny campaign: every checker accepts it")
    for name, corrupt, checker in corruptions(clean):
        target = WORK / name.replace(" ", "-")
        shutil.copytree(clean.dir, target)
        campaign = checks.Campaign(target)
        corrupt(campaign)
        try:
            checker(campaign)
        except checks.CheckError as exc:
            print(f"{name}: rejected ({exc})")
        else:
            print(f"{name}: NOT rejected")
            return 1
    helpers_match_oracles()
    print("front_2d, connectivity, Hamming distances and Monte Carlo hv agree with tests/oracles.py")
    tracing(clean)
    print("tracing leaves outputs unchanged; spans nest and self times add up")
    metric_names_match()
    print("metric names match BENCHMARK.json")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
