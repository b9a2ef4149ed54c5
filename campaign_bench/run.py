"""Campaign benchmark for mnkbench.

Usage, from the root of a checkout::

    python3 campaign_bench/run.py --workload {search-few,search-many,offline} \
        --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload (see workloads.py), each in a fresh
process through ``mnkbench.cli.main`` with ``--jobs 1``, until the rounds'
measured time reaches ``--seconds`` (at least one round).  After each round,
outside the timed region, every command's outputs are checked (checks.py).
An operation is one CLI command; it fails if it exits non-zero or its
outputs fail their check.

``--trace 0`` prints the end-to-end metrics, medians over the rounds.
``--trace 1`` additionally runs one round with the layer wrappers of
spans.py installed, writes its spans to ``.campaign_bench/<workload>/
spans.json`` and prints the per-layer metrics, the untraced command times
and the tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".campaign_bench"
DEADLINE_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from spans import PER_LAYER, layer_metrics  # noqa: E402
from workloads import REPORT, WORKLOADS  # noqa: E402

ALGORITHMS = ("mboa", "nsga3")

END_TO_END = {
    "setup_s": "s",
    "enumerate_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

COMMAND_TIMES = {
    "mboa_campaign_s": "run mboa",
    "nsga3_campaign_s": "run nsga3",
    "report_s": " ".join(REPORT),
    "features_s": "features",
}


def run_round(workload: str, seed: int, directory: Path, trace: Path | None, timeout: float) -> dict:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    result = directory / "result.json"
    argv = [
        sys.executable,
        str(BENCH / "workload_round.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--dir", str(directory),
        "--result", str(result),
    ]
    if trace is not None:
        argv += ["--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"round process failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_round(workload, seed: int, campaign: checks.Campaign, ops: list[dict]) -> tuple[list[str], int]:
    """Check each command's outputs; returns (failure message or "" per op,
    evaluations charged in the run records)."""
    reproduce = {
        algorithm: workload.reproduce == "each"
        or (workload.reproduce == "alternate" and seed % 2 == index)
        for index, algorithm in enumerate(ALGORITHMS)
    }
    evaluations = {}

    def check(command: str, directory: str) -> None:
        if command == "gen":
            checks.check_instances(campaign, directory)
        elif command == "enumerate":
            checks.check_pareto(campaign, seed)
        elif command.startswith("run "):
            algorithm = command.split()[1]
            evaluations[algorithm] = checks.check_records(campaign, algorithm)
            if reproduce[algorithm]:
                checks.check_reproduction(campaign, algorithm, seed, 1)
        elif command.startswith("report"):
            mode = command.split()[-1]
            checks.check_ert(campaign, ALGORITHMS)
            for algorithm in ALGORITHMS:
                checks.check_regression(campaign, algorithm, mode)
            checks.check_pmf_view(campaign)
            checks.check_features(campaign, seed)
        elif command == "features":
            checks.check_features(campaign, seed)
        else:
            raise checks.CheckError(f"no check for command {command!r}")

    failures = []
    for op in ops:
        if op["code"] != 0:
            failures.append(f"{op['command']}: exit code {op['code']}: {op['log'].strip()[-300:]}")
            continue
        try:
            check(op["command"], op["dir"])
        except Exception as exc:  # any checker fault fails the operation
            failures.append(f"{op['command']}: CHECK FAILED: {exc!r}")
        else:
            failures.append("")
    return failures, sum(evaluations.values())


def round_metrics(campaign: checks.Campaign, result: dict, evaluations: int) -> dict:
    walls: dict[str, list[float]] = {}
    for op in result["ops"]:
        walls.setdefault(op["command"], []).append(op["wall_s"])
    if "run mboa" in walls:
        # fitness evaluations charged in the run records per campaign second
        work, main_wall = evaluations, walls["run mboa"][0] + walls["run nsga3"][0]
    else:
        # Pareto points per second of feature extraction, whose cost grows
        # with the front size, which varies from seed to seed
        work = sum(len(campaign.pareto(iid)["solutions"]) for iid in campaign.ids)
        main_wall = walls["features"][0]
    return {
        "setup_s": statistics.median(walls["gen"]),
        "enumerate_s": statistics.median(walls["enumerate"]),
        "work_per_s": work / main_wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_s": sum(op["wall_s"] for op in result["ops"]),
        "commands": {name: sum(walls.get(cmd, [0.0])) for name, cmd in COMMAND_TIMES.items()},
    }


def same_outputs(a: Path, b: Path) -> bool:
    """Byte-identical program outputs (our own config.json aside)."""
    def tree(root: Path) -> dict:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.relative_to(root).parts[0] in ("instances", "pareto", "runs", "reports")
        }
    return tree(a) == tree(b)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in (ROOT / "src" / "mnkbench" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout of the repository", file=sys.stderr)
            return 2

    began = time.perf_counter()
    workload = WORKLOADS[args.workload]
    out = OUT / args.workload
    if out.exists():
        shutil.rmtree(out)
    rounds, failures_all, measured = [], [], 0.0
    first_result = None
    while True:
        left = DEADLINE_S - (time.perf_counter() - began)
        result = run_round(args.workload, args.seed, out / f"round-{len(rounds)}", None, left)
        for op in result["ops"]:
            print(f"round {len(rounds)} {op['dir']}: {op['command']}: {op['wall_s']:.3f} s, exit {op['code']}")
        campaign = checks.Campaign(Path(result["campaign"]))
        check_start = time.perf_counter()
        failures, evaluations = check_round(workload, args.seed, campaign, result["ops"])
        print(f"round {len(rounds)} checks: {time.perf_counter() - check_start:.3f} s")
        failures_all += failures
        metrics = round_metrics(campaign, result, evaluations)
        rounds.append(metrics)
        first_result = first_result or result
        measured += metrics["wall_s"]
        elapsed = time.perf_counter() - began
        per_round = elapsed / len(rounds) * (2 if args.trace else 1)
        if measured >= args.seconds or elapsed + per_round > DEADLINE_S:
            break

    for message in failures_all:
        if message:
            print(f"FAILED {message}")
    attempted = len(failures_all)
    failed = sum(1 for m in failures_all if m)
    correct = not any("CHECK FAILED" in m for m in failures_all)

    if args.trace:
        spans_path = out / "spans.json"
        left = DEADLINE_S - (time.perf_counter() - began)
        traced = run_round(args.workload, args.seed, out / "traced", spans_path, left)
        if not same_outputs(Path(first_result["campaign"]), Path(traced["campaign"])):
            print("FAILED traced round wrote different outputs from the untraced round")
            correct = False
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        layers = layer_metrics(spans)
        traced_wall = sum(op["wall_s"] for op in traced["ops"])
        untraced_wall = statistics.median(r["wall_s"] for r in rounds)
        values = {k: v for k, v in layers.items() if not k.startswith("trace.")}
        for name in COMMAND_TIMES:
            values[name] = statistics.median(r["commands"][name] for r in rounds)
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.self_share"] = layers["trace.self_s"] / traced_wall
        values["trace.spans"] = layers["trace.spans"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(spans)} spans)")
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"rounds: {len(rounds)}  operations attempted: {attempted}  failed: {failed}  correct: {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
