"""Span tracing installed from outside the program.

``install()`` wraps the layer-boundary functions of each mnkbench module and
rebinds every module-level name that refers to one of them, because modules
import functions by name (``optimizers.bn_sample`` is ``bayesnet.sample``,
``experiment.mboa_run`` is ``optimizers.mboa_run``, and so on).  A span
records its name, start, end and parent; spans stay in memory until
``dump()`` writes them out.  ``layer_metrics()`` turns them into the
per-layer self times and counts listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# module -> functions wrapped; names are the program's own.  File writes
# and JSON stay inside the cmd_* spans, whose self time is the store layer.
TRACED = {
    "landscape": ("generate_instance", "evaluate_batch", "load_instance"),
    "enumeration": (
        "enumerate_pareto",
        "pareto_mask",
        "nondominated_sort",
        "epsilon_success",
        "load_pareto_json",
    ),
    "bayesnet": ("k2_learn", "fit_parameters", "sample"),
    "optimizers": ("mboa_run", "nsga3_run", "_nsga3_survival"),
    "features": ("hypervolume", "pareto_distances", "connectivity"),
    "analysis": ("estimate_ert", "regression_report", "pareto_pmf_view"),
    "experiment": (
        "cmd_gen",
        "cmd_enumerate",
        "cmd_run",
        "cmd_features",
        "cmd_ert",
        "cmd_regress",
        "cmd_pmf_view",
        "cmd_report",
    ),
}


def _rows(args, kwargs, result) -> int:
    return int(args[0].shape[0])


def _batch_rows(args, kwargs, result) -> int:
    return int(args[1].shape[0])


def _generations(args, kwargs, result) -> int:
    return int(result.generations)


# span name -> what its count records
COUNTERS = {
    "enumeration.nondominated_sort": _rows,
    "landscape.evaluate_batch": _batch_rows,
    "optimizers.mboa_run": _generations,
    "optimizers.nsga3_run": _generations,
}


class Tracer:
    """Records nested spans: [name, start, end, parent index, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one CLI call."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every function in TRACED and rebind all names bound to it."""
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"mnkbench.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (
                    original,
                    self.wrap(original, f"{module_name}.{fn_name.lstrip('_')}"),
                )
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "mnkbench" or module_name.startswith("mnkbench.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: Path) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "count": c}
                for n, s, e, p, c in self.spans
            ]
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# per-layer metric -> span names whose self time it sums; the store layer is
# the self time of the cmd_* functions (file I/O, JSON, seeding)
SELF_TIME_METRICS = {
    f"{name}_s": (name,)
    for name in (
        "enumeration.nondominated_sort",
        "enumeration.epsilon_success",
        "enumeration.pareto_mask",
        "enumeration.enumerate_pareto",
        "enumeration.load_pareto_json",
        "landscape.load_instance",
        "landscape.evaluate_batch",
        "bayesnet.k2_learn",
        "bayesnet.fit_parameters",
        "bayesnet.sample",
        "optimizers.nsga3_survival",
        "optimizers.mboa_run",
        "optimizers.nsga3_run",
        "features.hypervolume",
        "features.connectivity",
        "features.pareto_distances",
        "analysis.estimate_ert",
        "analysis.regression_report",
        "analysis.pareto_pmf_view",
    )
}
SELF_TIME_METRICS["experiment.store_s"] = tuple(f"experiment.{name}" for name in TRACED["experiment"])

COUNT_METRICS = {
    "enumeration.nondominated_sort.rows": ("enumeration.nondominated_sort", "count"),
    "enumeration.epsilon_success.calls": ("enumeration.epsilon_success", "calls"),
    "enumeration.pareto_mask.calls": ("enumeration.pareto_mask", "calls"),
    "landscape.evaluate_batch.rows": ("landscape.evaluate_batch", "count"),
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, counts, run medians and the success-check ratio."""
    own = self_times(spans)
    by_name_self: dict[str, float] = {}
    by_name_calls: dict[str, int] = {}
    by_name_count: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for s, self_s in zip(spans, own):
        name = s["name"]
        by_name_self[name] = by_name_self.get(name, 0.0) + self_s
        by_name_calls[name] = by_name_calls.get(name, 0) + 1
        if s["count"] is not None:
            by_name_count[name] = by_name_count.get(name, 0) + s["count"]
        durations.setdefault(name, []).append(s["end"] - s["start"])
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(by_name_self.get(n, 0.0) for n in names)
    for metric, (name, kind) in COUNT_METRICS.items():
        source = by_name_calls if kind == "calls" else by_name_count
        out[metric] = source.get(name, 0)
    for alg in ("mboa", "nsga3"):
        runs = durations.get(f"optimizers.{alg}_run", [])
        out[f"optimizers.{alg}_run.median_s"] = statistics.median(runs) if runs else 0.0
    generations = by_name_count.get("optimizers.mboa_run", 0) + by_name_count.get(
        "optimizers.nsga3_run", 0
    )
    checks = by_name_calls.get("enumeration.epsilon_success", 0)
    out["optimizers.success_checks_per_generation"] = (
        checks / generations if generations else 0.0
    )
    out["trace.self_s"] = sum(own)
    out["trace.spans"] = len(spans)
    return out


# every per-layer metric the benchmark prints with --trace 1, with its unit;
# BENCHMARK.json lists the same names
PER_LAYER = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "optimizers.mboa_run.median_s": "s",
    "optimizers.nsga3_run.median_s": "s",
    "optimizers.success_checks_per_generation": "ratio",
    # wall time of single CLI commands in the untraced rounds
    "mboa_campaign_s": "s",
    "nsga3_campaign_s": "s",
    "report_s": "s",
    "features_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_share": "ratio",
    "trace.spans": "count",
}
