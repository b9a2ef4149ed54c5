"""One round of a workload, run in a fresh process so that its peak
resident memory is the workload's own.

Usage (from the checkout root; run.py starts it)::

    python3 campaign_bench/workload_round.py --workload NAME --seed N \
        --dir OUT --result RESULT.json [--trace SPANS.json]

Calls ``mnkbench.cli.main`` once per command with ``--jobs 1``: ``gen`` into a
fresh directory before each of the workload's measured commands and after
the last one, and the measured commands in the first of those directories.  Writes each command's exit code and wall time, and the
process's peak RSS, to RESULT.json.  With ``--trace`` the layer wrappers
are installed first and the spans are written to SPANS.json at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    from mnkbench import cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    base = Path(args.dir)
    ops = []

    def call(campaign: Path, command: tuple[str, ...]) -> None:
        argv = ["--config", str(campaign / "config.json"), "--jobs", "1", *command]
        label = " ".join(command)
        log = io.StringIO()
        span = tracer.span("cli." + command[0].replace("-", "_")) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        ops.append(
            {
                "command": label,
                "dir": campaign.name,
                "code": code,
                "wall_s": wall,
                "log": log.getvalue()[-2000:],
            }
        )

    def setup(rep: int) -> Path:
        directory = base / f"setup-{rep}"
        directory.mkdir(parents=True)
        config = workload.config(args.seed, str(directory))
        (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
        call(directory, ("gen",))
        return directory

    # one set-up before each measured command and one after the last, so
    # that the median set-up time samples the whole round; the campaign
    # runs in the first
    campaign = setup(0)
    for rep, command in enumerate(workload.commands, start=1):
        call(campaign, command)
        setup(rep)

    result = {
        "campaign": str(campaign),
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(Path(args.trace))
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
