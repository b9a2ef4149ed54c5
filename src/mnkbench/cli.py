"""Command-line entry point.

Usage::

    mnkbench [--config cfg.json] [--jobs N] [--seed U64] <command> [...]

Commands: ``gen``, ``enumerate``, ``features``, ``run {mboa,nsga3}``,
``ert``, ``regress``, ``pmf-view``, ``report``, ``all``.  The config file
is JSON with the ExperimentConfig fields; ``--seed`` overrides its master
seed.  Exit code 0 on success, 1 with a diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiment
from .analysis import CENSORED_MODES
from .experiment import ExperimentConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnkbench",
        description="MNK-landscape workbench: instance grids, exact Pareto sets, "
        "optimizer campaigns, and analysis reports.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="parallel workers (default 1)"
    )
    parser.add_argument(
        "--seed", type=int, metavar="U64", help="override the config's master seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate the instance grid")
    sub.add_parser("enumerate", help="enumerate exact Pareto sets")
    sub.add_parser("features", help="write features/<id>.json and reports/features.csv")
    run = sub.add_parser("run", help="execute an optimizer campaign")
    run.add_argument("algorithm", choices=experiment.ALGORITHMS)
    sub.add_parser("ert", help="write reports/ert.csv")
    regress = sub.add_parser("regress", help="write reports/regression.json")
    sub.add_parser("pmf-view", help="write reports/pmf_view/*.csv")
    report = sub.add_parser("report", help="write all analysis outputs")
    for command in (regress, report):
        command.add_argument(
            "--censored-mode",
            choices=CENSORED_MODES,
            default="exclude",
            help="how zero-success instances enter the regression",
        )
    sub.add_parser("all", help="full pipeline: gen, enumerate, run both, report")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "gen":
            paths = experiment.cmd_gen(config)
            print(f"wrote {len(paths)} instances under {config.output_dir}/instances")
        elif args.command == "enumerate":
            done = experiment.cmd_enumerate(config, jobs=args.jobs)
            print(f"enumerated {len(done)} Pareto sets")
        elif args.command == "features":
            out = experiment.cmd_features(config, jobs=args.jobs)
            print(f"wrote {out}")
        elif args.command == "run":
            executed = experiment.cmd_run(config, args.algorithm, jobs=args.jobs)
            total = len(experiment.instance_ids(config)) * config.runs_per_instance
            print(f"{args.algorithm}: executed {executed} runs ({total} on disk)")
        elif args.command == "ert":
            out = experiment.cmd_ert(config)
            print(f"wrote {out}")
        elif args.command == "regress":
            out = experiment.cmd_regress(config, args.censored_mode, jobs=args.jobs)
            print(f"wrote {out}")
        elif args.command == "pmf-view":
            written = experiment.cmd_pmf_view(config)
            print(f"wrote {len(written)} pmf views")
        elif args.command == "report":
            outputs = experiment.cmd_report(config, args.censored_mode, jobs=args.jobs)
            print(f"wrote {len(outputs)} report files under {config.output_dir}/reports")
        elif args.command == "all":
            experiment.cmd_all(config, jobs=args.jobs)
            print(f"campaign complete under {config.output_dir}")
        return 0
    except Exception as exc:  # CLI contract: diagnostic + nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
