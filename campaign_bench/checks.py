"""Checks of a finished round's outputs, made apart from the program.

Nothing here compares against a stored copy of earlier output.  Pareto sets
are re-derived with an NK evaluator written here from the instance tables;
run records are held to the budget and batch arithmetic of each algorithm
and, for a seeded sample, to a direct re-run; reports are recomputed from
the records; features are recomputed independently or checked against
``tests/oracles.py``.  Every check raises ``CheckError`` on the first
violation it finds.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

SPACE_SAMPLE = 10_000  # solutions drawn per M>=3 instance for the dominance check
HV_SAMPLES = 100_000  # samples of the independent Monte Carlo hypervolume
HV_SIGMAS = 6.0  # tolerance, in combined standard errors, for Monte Carlo hv
ORACLE_MAX_NPO = 400  # larger sets use the component sweep here instead of the oracle


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles as module
    finally:
        sys.path.pop(0)
    return module


# ---------------------------------------------------------------------------
# campaign layout, read directly from disk


class Campaign:
    def __init__(self, directory: Path):
        self.dir = Path(directory)
        from mnkbench.experiment import ExperimentConfig

        self.config = json.loads((self.dir / "config.json").read_text(encoding="utf-8"))
        c = ExperimentConfig(**self.config)  # fills in the program's defaults
        self.n = c.n_vars
        self.t_max = c.resolved_t_max
        self.epsilon = c.epsilon
        self.pop_size = c.pop_size
        self.sample_size = c.sample_size
        self.runs = c.runs_per_instance
        self.ids = [
            f"n{self.n}-m{m}-k{k}-i{i:03d}"
            for m in c.m_values
            for k in c.k_values
            for i in range(c.landscapes_per_cell)
        ]

    def instance(self, iid: str) -> dict:
        return json.loads((self.dir / "instances" / f"{iid}.json").read_text(encoding="utf-8"))

    def pareto(self, iid: str) -> dict:
        return json.loads((self.dir / "pareto" / f"{iid}.json").read_text(encoding="utf-8"))

    def run_path(self, algorithm: str, iid: str, run: int) -> Path:
        return self.dir / "runs" / algorithm / iid / f"run-{run:04d}.json"

    def record(self, algorithm: str, iid: str, run: int) -> dict:
        path = self.run_path(algorithm, iid, run)
        require(path.exists(), f"missing run record {path}")
        return json.loads(path.read_text(encoding="utf-8"))

    def report_rows(self, name: str) -> list[dict]:
        with open(self.dir / "reports" / name, newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# the benchmark's own NK evaluator


def nk_objectives(doc: dict, codes: np.ndarray) -> np.ndarray:
    """Objective vectors of integer-coded solutions (variable 0 = MSB)."""
    n = doc["n"]
    codes = np.asarray(codes, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    out = np.empty((codes.shape[0], len(doc["components"])), dtype=np.float64)
    for start in range(0, codes.shape[0], 1 << 15):
        bits = ((codes[start : start + (1 << 15), None] >> shifts) & 1).astype(np.int32)
        for m, comp in enumerate(doc["components"]):
            neighbors = np.asarray(comp["neighbors"], dtype=np.int64).reshape(n, -1)
            tables = np.asarray(comp["tables"], dtype=np.float64)
            index = bits.copy()
            for j in range(neighbors.shape[1]):
                index = (index << 1) | bits[:, neighbors[:, j]]
            out[start : start + bits.shape[0], m] = tables[np.arange(n), index].mean(axis=1)
    return out


def front_2d(objs: np.ndarray) -> np.ndarray:
    """Non-dominated mask of a 2-objective set by sort and sweep (maximize)."""
    order = np.lexsort((-objs[:, 1], -objs[:, 0]))
    z1, z2 = objs[order, 0], objs[order, 1]
    starts = np.flatnonzero(np.r_[True, z1[1:] != z1[:-1]])
    group = np.cumsum(np.r_[True, z1[1:] != z1[:-1]]) - 1
    group_best = z2[starts]
    before = np.r_[-np.inf, np.maximum.accumulate(group_best)[:-1]]
    keep = (z2 == group_best[group]) & (z2 > before[group])
    mask = np.zeros(objs.shape[0], dtype=bool)
    mask[order[keep]] = True
    return mask


def dominated_by_any(points: np.ndarray, front: np.ndarray) -> np.ndarray:
    """For each point, whether some front member is >= it in every objective."""
    hit = np.zeros(points.shape[0], dtype=bool)
    for start in range(0, front.shape[0], 128):
        open_ = np.flatnonzero(~hit)
        if open_.size == 0:
            break
        block = front[start : start + 128]
        hit[open_] = (block[None, :, :] >= points[open_, None, :]).all(axis=2).any(axis=1)
    return hit


def eps_covers(front: np.ndarray, exact: np.ndarray, epsilon: float) -> bool:
    """Every exact point p has a front member f with p <= (1+eps) f."""
    if front.shape[0] == 0:
        return exact.shape[0] == 0
    return bool(dominated_by_any(exact, (1.0 + epsilon) * front).all())


# ---------------------------------------------------------------------------
# set-up outputs


def check_instances(campaign: Campaign, setup_dir: str) -> None:
    """Instance files of one set-up are well formed and, for earlier
    set-ups, byte-identical to those the campaign runs on."""
    other = campaign.dir.parent / setup_dir
    for iid in campaign.ids:
        if other != campaign.dir:
            require(
                (other / "instances" / f"{iid}.json").read_bytes()
                == (campaign.dir / "instances" / f"{iid}.json").read_bytes(),
                f"{iid}: set-ups of one seed wrote different instances",
            )
            continue
        doc = campaign.instance(iid)
        _, m, k, _ = iid.split("-")
        require(doc["id"] == iid and doc["n"] == campaign.n, f"{iid}: header mismatch")
        require(doc["m"] == int(m[1:]) and doc["k"] == int(k[1:]), f"{iid}: m/k mismatch")
        for comp in doc["components"]:
            nb = np.asarray(comp["neighbors"]).reshape(doc["n"], -1)
            tb = np.asarray(comp["tables"])
            require(nb.shape == (doc["n"], doc["k"]), f"{iid}: neighbor shape")
            require(tb.shape == (doc["n"], 1 << (doc["k"] + 1)), f"{iid}: table shape")
            require(bool(((tb >= 0) & (tb <= 1)).all()), f"{iid}: table values outside [0, 1]")
            for var, row in enumerate(nb):
                require(var not in row and len(set(row)) == len(row), f"{iid}: neighbors of {var}")


def check_pareto(campaign: Campaign, seed: int) -> None:
    for iid in campaign.ids:
        check_pareto_set(campaign.instance(iid), campaign.pareto(iid), seed)


def check_pareto_set(instance: dict, pareto: dict, seed: int) -> None:
    iid = instance["id"]
    n, m = instance["n"], instance["m"]
    require(pareto["instance_id"] == iid, f"{iid}: Pareto file names {pareto['instance_id']}")
    sols = pareto["solutions"]
    objs = np.asarray(pareto["objectives"], dtype=np.float64).reshape(len(sols), m)
    require(len(sols) >= 1, f"{iid}: empty Pareto set")
    require(all(len(s) == n for s in sols), f"{iid}: bitstring length")
    require(sols == sorted(set(sols)), f"{iid}: solutions not unique and sorted")
    codes = np.array([int(s, 2) for s in sols], dtype=np.int64)
    require(
        np.array_equal(nk_objectives(instance, codes), objs),
        f"{iid}: listed objectives differ from a re-evaluation",
    )
    for start in range(0, len(sols), 128):
        block = objs[start : start + 128]
        ge = (block[:, None, :] >= objs[None, :, :]).all(axis=2)
        gt = (block[:, None, :] > objs[None, :, :]).any(axis=2)
        require(not (ge & gt).any(), f"{iid}: Pareto set is not mutually non-dominated")
    if m == 2:
        every = np.arange(1 << n, dtype=np.int64)
        mask = front_2d(nk_objectives(instance, every))
        require(
            np.array_equal(np.flatnonzero(mask), codes),
            f"{iid}: set differs from a sort-and-sweep over all {1 << n} solutions",
        )
    else:
        rng = np.random.default_rng([seed, m, instance["k"], 0x5EED])
        sample = rng.integers(0, 1 << n, size=SPACE_SAMPLE)
        require(
            bool(dominated_by_any(nk_objectives(instance, sample), objs).all()),
            f"{iid}: a sampled solution is not weakly dominated by the Pareto set",
        )


# ---------------------------------------------------------------------------
# run records


def batch_size(campaign: Campaign, algorithm: str) -> int:
    return campaign.sample_size if algorithm == "mboa" else campaign.pop_size


def check_records(campaign: Campaign, algorithm: str) -> int:
    """Budget and batch arithmetic of every record; returns the evaluations."""
    p, b, t_max = campaign.pop_size, batch_size(campaign, algorithm), campaign.t_max
    censored_generations = -(-(t_max - p) // b)
    total = 0
    for iid in campaign.ids:
        for run in range(campaign.runs):
            rec = campaign.record(algorithm, iid, run)
            where = f"{algorithm}/{iid}/run {run}"
            require(
                (rec["instance_id"], rec["algorithm"], rec["run_index"]) == (iid, algorithm, run),
                f"{where}: record names another run",
            )
            ev, gen, ok = rec["evaluations"], rec["generations"], rec["success"]
            require(isinstance(ok, bool) and isinstance(ev, int) and isinstance(gen, int), f"{where}: field types")
            require(1 <= ev <= t_max, f"{where}: evaluations {ev} outside [1, t_max]")
            if not ok:
                require(ev == t_max, f"{where}: censored run reports {ev}, not t_max={t_max}")
                require(gen == censored_generations, f"{where}: censored after {gen} generations")
            elif gen == 0:
                require(ev <= p, f"{where}: success in the initial population after {ev}")
            else:
                low, high = p + (gen - 1) * b, min(p + gen * b, t_max)
                require(low < ev <= high, f"{where}: {ev} evaluations do not fit generation {gen}")
            model = campaign.run_path(algorithm, iid, run).with_suffix(".model.json")
            if algorithm == "mboa" and ok and gen > 0:
                require(model.exists(), f"{where}: successful EDA run without its model")
            elif model.exists():
                require(False, f"{where}: model file for a run that should have none")
            total += ev
    return total


def check_reproduction(campaign: Campaign, algorithm: str, seed: int, count: int) -> None:
    """Re-run a seeded sample of ``count`` (instance, run) pairs directly,
    drawn from the successful runs while there are enough of them."""
    from mnkbench.enumeration import ParetoSet
    from mnkbench.experiment import ExperimentConfig
    from mnkbench.landscape import load_instance
    from mnkbench.optimizers import mboa_run, nsga3_run
    from mnkbench.seeds import derive_seed

    config = ExperimentConfig(**campaign.config)
    rng = np.random.default_rng([seed, 0xE7, len(algorithm)])
    pairs = [(iid, run) for iid in campaign.ids for run in range(campaign.runs)]
    successes = [p for p in pairs if campaign.record(algorithm, *p)["success"]]
    if len(successes) >= count:
        pairs = successes
    for pick in rng.choice(len(pairs), size=min(count, len(pairs)), replace=False):
        iid, run = pairs[int(pick)]
        doc = campaign.pareto(iid)
        exact = np.asarray(doc["objectives"], dtype=np.float64).reshape(-1, doc["m"])
        pareto = ParetoSet(
            iid,
            np.array([[int(c) for c in s] for s in doc["solutions"]], dtype=np.uint8),
            exact,
        )
        instance = load_instance(campaign.dir / "instances" / f"{iid}.json")
        params = config.run_params(derive_seed(config.master_seed, iid, algorithm, run))
        if algorithm == "mboa":
            result = mboa_run(instance, pareto, params)
        else:
            result = nsga3_run(instance, pareto, params, pc=config.crossover_prob, pm=config.mutation_prob)
        rec = campaign.record(algorithm, iid, run)
        where = f"{algorithm}/{iid}/run {run}"
        require(
            (result.success, result.evaluations, result.generations)
            == (rec["success"], rec["evaluations"], rec["generations"]),
            f"{where}: a direct re-run does not reproduce the record",
        )
        require(
            eps_covers(np.asarray(result.front_objectives), exact, campaign.epsilon) == rec["success"],
            f"{where}: final front coverage disagrees with success={rec['success']}",
        )
        model = campaign.run_path(algorithm, iid, run).with_suffix(".model.json")
        if model.exists():
            saved = json.loads(model.read_text(encoding="utf-8"))
            structure, cpts = result.model
            require(
                saved["parents"] == [list(p) for p in structure.parents]
                and saved["cpts"] == [t.tolist() for t in cpts.tables],
                f"{where}: saved model differs from the re-run's model",
            )


# ---------------------------------------------------------------------------
# reports


def check_ert(campaign: Campaign, algorithms: tuple[str, ...]) -> None:
    rows = {(r["instance_id"], r["algorithm"]): r for r in campaign.report_rows("ert.csv")}
    require(len(rows) == len(campaign.ids) * len(algorithms), "ert.csv row count")
    for iid in campaign.ids:
        for algorithm in algorithms:
            records = [campaign.record(algorithm, iid, r) for r in range(campaign.runs)]
            times = [r["evaluations"] for r in records if r["success"]]
            row = rows[(iid, algorithm)]
            p = Fraction(len(times), len(records))
            require(math.isclose(float(row["p_hat"]), float(p), rel_tol=1e-12), f"{iid}/{algorithm}: p_hat")
            if not times:
                require(row["ert"] == "", f"{iid}/{algorithm}: censored instance has an ert")
                continue
            ert = (1 - p) / p * campaign.t_max + Fraction(sum(times), len(times))
            require(
                math.isclose(float(row["ert"]), float(ert), rel_tol=1e-12),
                f"{iid}/{algorithm}: ert {row['ert']} != {float(ert)}",
            )


def check_regression(campaign: Campaign, algorithm: str, censored_mode: str) -> None:
    """The log(k) simple-regression r against a closed-form cov/var fit."""
    report = json.loads((campaign.dir / "reports" / "regression.json").read_text(encoding="utf-8"))
    features = {r["instance_id"]: r for r in campaign.report_rows("features.csv")}
    ert = {(r["instance_id"], r["algorithm"]): r["ert"] for r in campaign.report_rows("ert.csv")}
    xs, ys = [], []
    for iid in sorted(campaign.ids):
        value = ert[(iid, algorithm)]
        if value == "" and censored_mode == "exclude":
            continue
        xs.append(math.log(float(features[iid]["k"])))
        ys.append(math.log(float(value) if value else campaign.t_max))
    intercept, slope = oracles().two_var_ols(xs, ys)
    predicted = intercept + slope * np.asarray(xs)
    if np.std(predicted) > 0 and np.std(ys) > 0:
        r = abs(float(np.corrcoef(predicted, ys)[0, 1]))
    else:
        r = 0.0
    rows = {row["feature"]: row for row in report["algorithms"][algorithm]["simple"]}
    require(
        math.isclose(rows["log(k)"]["fit"]["r"], r, rel_tol=1e-9, abs_tol=1e-12),
        f"{algorithm}: regression r for log(k) is {rows['log(k)']['fit']['r']}, closed form gives {r}",
    )


def check_pmf_view(campaign: Campaign) -> None:
    for iid in campaign.ids:
        path = campaign.dir / "reports" / "pmf_view" / f"{iid}.csv"
        has_model = any(
            campaign.run_path("mboa", iid, r).with_suffix(".model.json").exists()
            for r in range(campaign.runs)
        )
        require(path.exists() == has_model, f"{iid}: pmf view present={path.exists()}, models={has_model}")
        if not has_model:
            continue
        doc = campaign.pareto(iid)
        m = doc["m"]
        ideal = np.asarray(doc["objectives"]).reshape(-1, m).max(axis=0)
        rows = campaign.report_rows(f"pmf_view/{iid}.csv")
        require(sorted(r["bitstring"] for r in rows) == doc["solutions"], f"{iid}: pmf view rows")
        last = -1.0
        for rank, row in enumerate(rows, start=1):
            z = np.array([float(row[f"z_{i + 1}"]) for i in range(m)])
            dist = float(np.sqrt(((z - ideal) ** 2).sum()))
            pmf = float(row["mean_pmf"])
            require(0.0 < pmf <= 1.0, f"{iid}: mean_pmf {pmf} outside (0, 1]")
            require(math.isclose(float(row["dist_to_ideal"]), dist, rel_tol=1e-9, abs_tol=1e-12), f"{iid}: dist_to_ideal")
            require(float(row["dist_to_ideal"]) >= last and int(row["rank"]) == rank, f"{iid}: rows not in ascending distance")
            last = float(row["dist_to_ideal"])


# ---------------------------------------------------------------------------
# features


def mc_hypervolume(front: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo hv against the origin with its standard error."""
    upper = front.max(axis=0)
    box = float(np.prod(upper))
    draws = np.random.default_rng(seed).random((samples, front.shape[1])) * upper
    order = np.argsort(-front.min(axis=1))  # members that cover most go first
    alive = np.ones(samples, dtype=bool)
    for start in range(0, front.shape[0], 64):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        block = front[order[start : start + 64]]
        covered = (draws[idx, None, :] <= block[None, :, :]).all(axis=2).any(axis=1)
        alive[idx[covered]] = False
    frac = 1.0 - alive.mean()
    return box * frac, box * math.sqrt(frac * (1.0 - frac) / samples)


def hamming_matrix(codes: np.ndarray, n: int) -> np.ndarray:
    """All pairwise Hamming distances, from bit-plane dot products."""
    bits = ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int32)
    return n - bits @ bits.T - (1 - bits) @ (1 - bits).T


def connectivity_matrix(dist: np.ndarray) -> tuple[int, float, int]:
    """(nconnec, lconnec, kconnec) from connected components of the
    distance-<=d graphs, d = 1, 2, ..."""
    from scipy.sparse.csgraph import connected_components

    npo = dist.shape[0]
    if npo == 1:
        return 1, 1.0, 0
    nconnec, labels = connected_components(dist <= 1, directed=False)
    lconnec = float(np.bincount(labels).max() / npo)
    d = 1
    while connected_components(dist <= d, directed=False)[0] > 1:
        d += 1
    return int(nconnec), lconnec, d


def check_features(campaign: Campaign, seed: int) -> None:
    rows = {r["instance_id"]: r for r in campaign.report_rows("features.csv")}
    require(sorted(rows) == sorted(campaign.ids), "features.csv instance set")
    orc = oracles()
    for iid in campaign.ids:
        row, doc = rows[iid], campaign.pareto(iid)
        m = doc["m"]
        objs = np.asarray(doc["objectives"], dtype=np.float64).reshape(-1, m)
        codes = np.array([int(s, 2) for s in doc["solutions"]], dtype=np.int64)
        npo = codes.size
        require(int(row["npo"]) == npo, f"{iid}: npo {row['npo']} != {npo}")
        require((int(row["m"]), int(row["k"])) == (m, campaign.instance(iid)["k"]), f"{iid}: m/k")
        dist = hamming_matrix(codes, campaign.n)
        pairs = dist[np.triu_indices(npo, 1)]
        avgd = float(pairs.mean()) if npo > 1 else 0.0
        maxd = float(pairs.max()) if npo > 1 else 0.0
        require(math.isclose(float(row["avgd"]), avgd, rel_tol=1e-12), f"{iid}: avgd {row['avgd']} != {avgd}")
        require(float(row["maxd"]) == maxd, f"{iid}: maxd {row['maxd']} != {maxd}")
        if npo <= ORACLE_MAX_NPO:
            bits = (codes[:, None] >> np.arange(campaign.n - 1, -1, -1)) & 1
            expected = orc.unionfind_connectivity(bits.astype(np.uint8))
        else:
            expected = connectivity_matrix(dist)
        got = (int(row["nconnec"]), float(row["lconnec"]), int(row["kconnec"]))
        require(
            got[0] == expected[0] and math.isclose(got[1], expected[1], rel_tol=1e-12) and got[2] == expected[2],
            f"{iid}: connectivity {got} != {expected}",
        )
        hv = float(row["hv"])
        if m == 2:
            expected_hv = orc.hv_sweepline_2d(objs, [0.0, 0.0])
            require(math.isclose(hv, expected_hv, rel_tol=1e-9), f"{iid}: hv {hv} != sweep-line {expected_hv}")
        else:
            estimate, stderr = mc_hypervolume(objs, HV_SAMPLES, seed + 0x4856)
            # the program's own estimate (if Monte Carlo) has error too; bound it
            # by the same binomial formula at its 10^6 samples
            box = float(np.prod(objs.max(axis=0)))
            frac = min(max(estimate / box, 0.0), 1.0)
            program_se = box * math.sqrt(frac * (1 - frac) / 1_000_000)
            tolerance = HV_SIGMAS * math.hypot(stderr, program_se) + 1e-12
            require(
                abs(hv - estimate) <= tolerance,
                f"{iid}: hv {hv} is {abs(hv - estimate) / tolerance * HV_SIGMAS:.1f} standard errors from {estimate}",
            )
