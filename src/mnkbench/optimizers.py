"""The two instrumented optimizers: a Bayesian-network EDA and an
NSGA-III-style genetic baseline.

Both run the same generational loop (``_evolve``), maximize all
objectives of an MNK instance, count every fitness evaluation, and test
for success (the population forming a (1+epsilon)-approximation of the
exact Pareto set) after the initial population and after each
generation's batch of new evaluations.  Each such test first checks the
one exact Pareto point the last full coverage check found uncovered (the
witness); only when the population plus batch covers it does a full
check run, which either succeeds or names the next witness.  The last
batch before the budget runs out is truncated to the remaining
evaluations, so a run that never succeeds consumes and reports exactly
``evaluations = t_max``.  Each generation sorts the merged pool once;
survival returns the rows it keeps, and the next tournament reuses their ranks.

The EDA's variation is exclusively model sampling: each generation selects
parents by binary tournament, learns a Bayesian network (K2 structure on a
fresh random variable ordering, smoothed parameter estimates), samples new
solutions from it, and keeps the best of old and new by (front rank,
crowding distance) truncation.

The baseline uses binary-tournament mating, uniform crossover, per-bit
flip mutation, and reference-direction niching for environmental
selection (structured simplex directions, normalized perpendicular
distances, least-crowded-niche preservation).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .bayesnet import BNStructure, CPTs, fit_parameters, k2_learn
from .bayesnet import sample as bn_sample
from .enumeration import (
    ParetoSet,
    RankedPopulation,
    _first_uncovered,
    _kept_ranking,
    epsilon_cover_prefix,
    epsilon_success,
    nondominated_sort,
    pareto_mask,
)
from .landscape import MNKInstance, evaluate_batch

__all__ = [
    "RunParams",
    "RunResult",
    "binary_tournament",
    "mboa_run",
    "nsga3_run",
    "reference_directions",
    "REFERENCE_DIVISIONS",
]

# Structured-direction divisions by objective count: single layer up to five
# objectives, boundary+inside layers for eight (inside layer shrunk halfway
# toward the simplex center).  Other counts fall back to the smallest
# single-layer division set producing at least pop_size directions.
REFERENCE_DIVISIONS: dict[int, tuple[int, ...]] = {
    2: (99,),
    3: (12,),
    5: (6,),
    8: (3, 2),
}

GenerationHook = Callable[[int, np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class RunParams:
    """Shared run parameters for both optimizers.

    A successful run is charged up to the exact first evaluation at which
    the pool became a (1+epsilon)-approximation (one pass finds, for each
    exact Pareto point, the first solution covering it; the latest of those
    is the charge), so runtimes are comparable between algorithms with
    different batch sizes.
    """

    pop_size: int
    pgm_size: int
    sample_size: int
    t_max: int
    epsilon: float
    seed: int
    max_parents: int = 3

    def __post_init__(self) -> None:
        if self.pop_size < 1:
            raise ValueError("pop_size must be positive")
        if not 1 <= self.pgm_size <= self.pop_size:
            raise ValueError("pgm_size must lie in [1, pop_size]")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        if self.t_max < self.pop_size:
            raise ValueError("t_max must cover at least the initial population")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.max_parents < 0:
            raise ValueError("max_parents must be non-negative")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one optimizer run.

    ``evaluations`` is the count consumed when success was detected, or
    ``t_max`` for a failed run.  ``front_*`` hold the non-dominated subset
    of the population plus the charged batch prefix for a success, and of
    the population after the last survival (or the initial one) for a
    censored run.  ``model`` is the last learned network (EDA only; None
    if no generation completed).
    """

    success: bool
    evaluations: int
    generations: int
    front_bits: np.ndarray
    front_objectives: np.ndarray
    model: tuple[BNStructure, CPTs] | None = None


def binary_tournament(
    ranked: RankedPopulation, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Row indices of ``count`` winners of independent binary tournaments.

    Each tournament draws two members uniformly with replacement and keeps
    the one on the better front; same front falls to the larger crowding
    distance, and full ties are settled by a coin flip.
    """
    pairs = rng.integers(0, ranked.size, size=(count, 2))
    coins = rng.random(count) < 0.5
    a, b = pairs[:, 0], pairs[:, 1]
    rank, crowd = ranked.rank, ranked.crowding
    first = (rank[a] < rank[b]) | ((rank[a] == rank[b]) & (crowd[a] > crowd[b]))
    second = (rank[b] < rank[a]) | ((rank[a] == rank[b]) & (crowd[b] > crowd[a]))
    return np.where(first, a, np.where(second, b, np.where(coins, a, b)))


def _success_charge(
    objs: np.ndarray, prev: int, exact: ParetoSet, params: RunParams
) -> int | None:
    """Evaluations charged to the newest batch if the pool now covers.

    ``objs`` stacks the previous population (its first ``prev`` rows) and
    the freshly evaluated batch.  Returns None when the pool is not a
    (1+epsilon)-approximation.  Otherwise it charges the shortest batch
    prefix whose union with the previous population covers, at least one
    evaluation.
    """
    if not epsilon_success(objs, exact, params.epsilon):
        return None
    return max(1, epsilon_cover_prefix(objs, exact, params.epsilon) - prev)


def _witness_charge(
    objs: np.ndarray, prev: int, exact: ParetoSet, params: RunParams, witness: int
) -> tuple[int | None, int]:
    """``_success_charge`` behind a one-point precheck; returns the charge
    and the witness for the next call.

    ``witness`` indexes the exact point the last full check found
    uncovered.  While the pool leaves it uncovered the pool cannot cover,
    so the check costs O(pool * M) and the full check is skipped;
    otherwise the full check either succeeds or names the new witness.
    """
    if _first_uncovered(objs, exact.objectives[[witness]], params.epsilon) is not None:
        return None, witness
    uncovered = _first_uncovered(objs, exact, params.epsilon)
    if uncovered is not None:
        return None, uncovered
    # the success generation repeats the full check inside _success_charge,
    # once per run, so every charge goes through one rule
    return _success_charge(objs, prev, exact, params), witness


# (population bits, their ranking, batch size, rng) -> (new solutions, their model)
Propose = Callable[
    [np.ndarray, RankedPopulation, int, np.random.Generator],
    tuple[np.ndarray, tuple[BNStructure, CPTs] | None],
]
# (ranking of the merged pool, rng) -> row indices of the next population,
# holding every row ranked below the worst kept rank
Survive = Callable[[RankedPopulation, np.random.Generator], np.ndarray]


def _evolve(
    instance: MNKInstance,
    exact: ParetoSet,
    params: RunParams,
    batch_size: int,
    propose: Propose,
    survive: Survive,
    on_generation: GenerationHook | None,
) -> RunResult:
    """The generational loop both optimizers share.

    Evaluates a random initial population, then per generation proposes a
    batch of ``batch_size`` new solutions (the last one cut to the
    remaining budget), tests the population plus batch for success, and
    merges and truncates back to ``pop_size`` by ``survive``.  One random
    stream seeded by ``params.seed`` feeds the initial population, then
    ``propose`` and ``survive`` in turn.  Each merged pool is sorted once,
    and the survivors' ranking is sliced from it for the next proposal.
    """
    if exact.instance_id != instance.id:
        raise ValueError(
            f"Pareto set belongs to {exact.instance_id!r}, not {instance.id!r}"
        )
    rng = np.random.default_rng(params.seed)
    bits = rng.integers(0, 2, size=(params.pop_size, instance.n_vars), dtype=np.uint8)
    objs = evaluate_batch(instance, bits)
    prev = 0  # rows of (bits, objs) that precede the newest batch
    evaluations = generation = witness = 0
    model = None
    while True:
        charged, witness = _witness_charge(objs, prev, exact, params, witness)
        if charged is not None:
            bits, objs = bits[: prev + charged], objs[: prev + charged]
            evaluations += charged
            break
        evaluations += objs.shape[0] - prev
        assert evaluations == min(params.pop_size + generation * batch_size, params.t_max)
        if generation:
            merged = nondominated_sort(objs)
            keep = survive(merged, rng)
            bits, objs, ranked = bits[keep], objs[keep], _kept_ranking(merged, keep)
            if on_generation is not None:
                on_generation(generation, bits, objs)
        else:
            ranked = nondominated_sort(objs)
        if evaluations >= params.t_max:
            break
        # the final batch shrinks to the remaining budget, so a failed run
        # consumes exactly t_max evaluations
        batch = min(batch_size, params.t_max - evaluations)
        new_bits, model = propose(bits, ranked, batch, rng)
        new_objs = evaluate_batch(instance, new_bits)
        generation += 1
        prev = objs.shape[0]
        bits = np.vstack([bits, new_bits])
        objs = np.vstack([objs, new_objs])
    front = pareto_mask(objs)
    return RunResult(
        charged is not None, evaluations, generation, bits[front], objs[front], model
    )


def mboa_run(
    instance: MNKInstance,
    exact: ParetoSet,
    params: RunParams,
    on_generation: GenerationHook | None = None,
) -> RunResult:
    """Run the Bayesian-network EDA until success or budget exhaustion.

    Each generation selects ``pgm_size`` parents by binary tournament,
    learns a network on a fresh random variable ordering, samples
    ``sample_size`` solutions from it, and keeps the best ``pop_size`` of
    old and new by (front rank, crowding distance, index).  Deterministic
    given ``params.seed``.  ``on_generation`` (if given) is called with
    (generation, population bits, population objectives) after each
    survival selection; intended for instrumentation.
    """

    def propose(bits, ranked: RankedPopulation, batch: int, rng: np.random.Generator):
        parents = bits[binary_tournament(ranked, params.pgm_size, rng)]
        structure = k2_learn(parents, rng.permutation(instance.n_vars), params.max_parents)
        cpts = fit_parameters(structure, parents)
        return bn_sample(structure, cpts, batch, rng), (structure, cpts)

    def survive(ranked: RankedPopulation, rng: np.random.Generator):
        return np.lexsort((-ranked.crowding, ranked.rank))[: params.pop_size]

    return _evolve(
        instance, exact, params, params.sample_size, propose, survive, on_generation
    )


def _simplex_lattice(m: int, divisions: int) -> np.ndarray:
    points = [
        combo
        for combo in product(range(divisions + 1), repeat=m)
        if sum(combo) == divisions
    ]
    return np.array(points, dtype=np.float64) / divisions


def reference_directions(m: int, pop_size: int = 100) -> np.ndarray:
    """Structured reference directions on the unit simplex for ``m`` objectives."""
    if m == 1:
        return np.array([[1.0]])
    divisions = REFERENCE_DIVISIONS.get(m)
    if divisions is None:
        p = 1
        while math.comb(p + m - 1, m - 1) < pop_size:
            p += 1
        divisions = (p,)
    layers = [_simplex_lattice(m, divisions[0])]
    if len(divisions) > 1:
        inner = _simplex_lattice(m, divisions[1])
        layers.append(inner * 0.5 + 0.5 / m)
    return np.vstack(layers)


def _variation(
    parents: np.ndarray, pc: float, pm: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniform crossover on consecutive pairs, then per-bit flip mutation."""
    children = parents.copy()
    n_pairs = len(parents) // 2
    if n_pairs:
        do_cross = rng.random(n_pairs) < pc
        masks = rng.random((n_pairs, parents.shape[1])) < 0.5
        swap = do_cross[:, None] & masks
        a = children[0 : 2 * n_pairs : 2]
        b = children[1 : 2 * n_pairs : 2]
        a_new = np.where(swap, b, a)
        b_new = np.where(swap, a, b)
        children[0 : 2 * n_pairs : 2] = a_new
        children[1 : 2 * n_pairs : 2] = b_new
    flips = rng.random(children.shape) < pm
    return children ^ flips


def _normalize(objs_min: np.ndarray) -> np.ndarray:
    """Adaptive normalization of a minimization objective block.

    Translates by the ideal point and divides by hyperplane intercepts
    built from per-axis extreme points; falls back to the per-objective
    spread when the extreme-point system is degenerate.
    """
    m = objs_min.shape[1]
    translated = objs_min - objs_min.min(axis=0)
    weights = np.full((m, m), 1e-6) + np.eye(m)
    extreme_rows = np.array(
        [int(np.argmin((translated / weights[j]).max(axis=1))) for j in range(m)]
    )
    extremes = translated[extreme_rows]
    intercepts = None
    try:
        beta = np.linalg.solve(extremes, np.ones(m))
        # a zero, negative or NaN beta gives no usable intercept, so only an
        # all-positive beta is inverted (dividing by zero would warn)
        if np.all(beta > 0):
            candidate = 1.0 / beta
            if np.all(np.isfinite(candidate)) and np.all(candidate > 1e-10):
                intercepts = candidate
    except np.linalg.LinAlgError:
        intercepts = None
    if intercepts is None:
        intercepts = translated.max(axis=0)
    intercepts = np.where(intercepts > 1e-10, intercepts, 1.0)
    return translated / intercepts


def _associate(
    normalized: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closest reference direction per member and the perpendicular distance."""
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    proj = normalized @ unit.T
    sq = (normalized**2).sum(axis=1, keepdims=True) - proj**2
    dist = np.sqrt(np.clip(sq, 0.0, None))
    assoc = np.argmin(dist, axis=1)
    return assoc, dist[np.arange(len(assoc)), assoc]


def _nsga3_survival(
    ranked: RankedPopulation,
    pop_size: int,
    directions: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Survivor row indices: whole fronts while they fit, then the niched split front.

    The pool has more than ``pop_size`` rows, which ``_evolve`` guarantees.
    Each niching pick takes a random direction of least niche count among
    those holding split-front members, then its nearest member if the
    niche is empty, else a random one.
    """
    order = np.argsort(ranked.rank, kind="stable")
    rank = ranked.rank[order]
    split = rank[pop_size]
    if rank[pop_size - 1] != split:
        return order[:pop_size]
    taken = int(np.searchsorted(rank, split))
    considered = order[: np.searchsorted(rank, split, side="right")]
    assoc, dist = _associate(_normalize(-ranked.objectives[considered]), directions)
    counts = np.bincount(assoc[:taken], minlength=directions.shape[0])
    members: dict[int, list[int]] = {}
    for pos in range(taken, considered.size):
        members.setdefault(int(assoc[pos]), []).append(pos)
    # niche count -> its directions holding split-front members, ascending
    buckets: dict[int, list[int]] = {}
    for direction in sorted(members):
        buckets.setdefault(int(counts[direction]), []).append(direction)
    selected = list(range(taken))
    level = 0
    while len(selected) < pop_size:
        while not buckets.get(level):
            level += 1
        least = buckets[level]
        direction = least.pop(rng.integers(len(least)))
        group = members[direction]
        if level == 0:
            pick = int(np.argmin(dist[group]))
        else:
            pick = int(rng.integers(len(group)))
        selected.append(group.pop(pick))
        if group:
            bisect.insort(buckets.setdefault(level + 1, []), direction)
    return considered[selected]


def nsga3_run(
    instance: MNKInstance,
    exact: ParetoSet,
    params: RunParams,
    pc: float = 0.8,
    pm: float = 1.0 / 500.0,
    on_generation: GenerationHook | None = None,
) -> RunResult:
    """Run the reference-direction genetic baseline; deterministic per seed.

    One generation evaluates ``pop_size`` offspring built by binary
    tournament, uniform crossover (pair probability ``pc``, per-bit 0.5
    exchange) and per-bit flip mutation with probability ``pm``, and keeps
    ``pop_size`` of old and new by whole fronts plus reference-direction
    niching.  ``on_generation`` is called as for ``mboa_run``.
    """
    if not 0.0 <= pc <= 1.0 or not 0.0 <= pm <= 1.0:
        raise ValueError("pc and pm must lie in [0, 1]")
    directions = reference_directions(instance.m_objectives, params.pop_size)

    def propose(bits, ranked: RankedPopulation, batch: int, rng: np.random.Generator):
        mating = bits[binary_tournament(ranked, params.pop_size, rng)]
        return _variation(mating, pc, pm, rng)[:batch], None

    def survive(ranked: RankedPopulation, rng: np.random.Generator):
        return _nsga3_survival(ranked, params.pop_size, directions, rng)

    return _evolve(
        instance, exact, params, params.pop_size, propose, survive, on_generation
    )
