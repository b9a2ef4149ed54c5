"""Discrete Bayesian networks over the N binary decision variables.

A network is a DAG (one parent list per variable, consistent with the
variable ordering used during learning) plus one conditional probability
table per variable.  Structure search is the classic K2 greedy procedure:
visit variables in a fixed ordering and repeatedly add the predecessor
parent that most increases the marginal-likelihood score under uniform
Dirichlet priors, stopping at ``max_parents`` or when no addition helps.
One ``np.bincount`` counts every candidate of a greedy step, and one
formula scores the counts from a table of log Gamma values.
Parameters are Bayesian estimates with add-one smoothing,
``theta = (1 + N_jk) / (s + N_j)`` with ``s = 2`` states, so no
probability is ever exactly 0 or 1.

Datasets are (rows, N) uint8 arrays.  Parent-combination index convention:
parents are stored sorted ascending and the first parent is the most
significant bit of the row index ``j``.  All probability products are
accumulated in log space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .landscape import _read_json_object, _require

__all__ = [
    "BNStructure",
    "CPTs",
    "fit_parameters",
    "k2_learn",
    "k2_score",
    "joint_pmf",
    "log_joint_pmf",
    "sample",
    "save_network_json",
    "load_network_json",
]

_STATES = 2  # binary variables throughout


@dataclass(frozen=True, eq=False)
class BNStructure:
    """DAG over ``n_vars`` binary variables.

    ``parents[v]`` is the sorted tuple of parent indices of variable v;
    every parent must precede v in ``ordering``, which therefore is a
    topological order of the DAG.
    """

    n_vars: int
    parents: tuple[tuple[int, ...], ...]
    ordering: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "parents", tuple(tuple(sorted(p)) for p in self.parents)
        )
        object.__setattr__(self, "ordering", tuple(int(v) for v in self.ordering))
        if len(self.parents) != self.n_vars:
            raise ValueError("one parent list per variable is required")
        if sorted(self.ordering) != list(range(self.n_vars)):
            raise ValueError("ordering must be a permutation of the variables")
        position = {v: i for i, v in enumerate(self.ordering)}
        for v, plist in enumerate(self.parents):
            if len(set(plist)) != len(plist):
                raise ValueError(f"variable {v}: duplicate parent")
            for p in plist:
                if not 0 <= p < self.n_vars:
                    raise ValueError(f"variable {v}: parent {p} out of range")
                if position[p] >= position[v]:
                    raise ValueError(
                        f"variable {v}: parent {p} does not precede it in the ordering"
                    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BNStructure):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.parents == other.parents
            and self.ordering == other.ordering
        )


@dataclass(frozen=True, eq=False)
class CPTs:
    """Conditional probability tables, one (2^|parents|, 2) matrix per variable."""

    tables: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for v, table in enumerate(self.tables):
            arr = np.ascontiguousarray(table, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != _STATES:
                raise ValueError(f"variable {v}: table must have shape (t, 2)")
            if np.any(arr <= 0.0) or np.any(arr >= 1.0):
                raise ValueError(
                    f"variable {v}: probabilities must lie strictly inside (0, 1)"
                )
            if np.max(np.abs(arr.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"variable {v}: rows must sum to 1")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "tables", tuple(frozen))


def _as_dataset(data: np.ndarray, n_vars: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.uint8)
    if arr.ndim != 2 or arr.shape[1] != n_vars:
        raise ValueError(f"dataset must have shape (rows, {n_vars}), got {arr.shape}")
    return arr


def _parent_index(data: np.ndarray, parents) -> np.ndarray:
    """Row index j of each observation's parent-value combination: (rows,)
    for one sorted tuple, (tuples, rows) for a list of q-tuples."""
    j = np.zeros(data.shape[0], dtype=np.int64)
    for p in np.asarray(parents).T:
        j = (j << 1) | data.T[p]
    return j


def _counts(data: np.ndarray, var: int, parent_sets) -> np.ndarray:
    """Counts N_jk of ``var`` under each sorted parent tuple of one size q,
    as a (tuples, 2^q, 2) array, from one ``np.bincount`` over offset cells."""
    n_sets, cells = len(parent_sets), _STATES << len(parent_sets[0])
    offsets = np.arange(n_sets)[:, np.newaxis] * cells
    idx = offsets + _parent_index(data, parent_sets) * _STATES + data[:, var]
    return np.bincount(idx.ravel(), minlength=n_sets * cells).reshape(n_sets, -1, _STATES)


def _k2_scores(counts: np.ndarray, lgamma: np.ndarray) -> np.ndarray:
    """K2 score of each tuple's counts, with ``lgamma[n]`` = log Gamma(n):
    sum_j [ sum_k lgamma(N_jk + 1) - lgamma(N_j + s) ], as lgamma(s) = 0."""
    flat = counts.reshape(len(counts), -1)
    return lgamma[flat + 1].sum(axis=1) - lgamma[counts.sum(axis=2) + _STATES].sum(axis=1)


def fit_parameters(structure: BNStructure, data: np.ndarray) -> CPTs:
    """Smoothed Bayesian parameter estimates from the dataset counts.

    theta_jk = (1 + N_jk) / (2 + N_j); a parent combination never observed
    yields the uniform 1/2.
    """
    data = _as_dataset(data, structure.n_vars)
    tables = []
    for v in range(structure.n_vars):
        counts = _counts(data, v, [structure.parents[v]])[0]
        tables.append((1.0 + counts) / (_STATES + counts.sum(axis=1, keepdims=True)))
    return CPTs(tables=tuple(tables))


def k2_score(data: np.ndarray, var: int, parents: tuple[int, ...]) -> float:
    """Log marginal likelihood of one variable's local structure: the
    Cooper-Herskovitz score with uniform Dirichlet priors that ``k2_learn`` climbs."""
    lgamma = gammaln(np.arange(data.shape[0] + _STATES + 1))
    return float(_k2_scores(_counts(data, var, [tuple(sorted(parents))]), lgamma)[0])


def k2_learn(
    data: np.ndarray, ordering: np.ndarray, max_parents: int
) -> BNStructure:
    """Greedy K2 structure search along a fixed variable ordering.

    For each variable, parents are added one at a time from its
    predecessors in the ordering, always the candidate with the largest
    strict score improvement (ties fall to the lowest variable index),
    until no candidate improves the score or ``max_parents`` is reached.
    One count and one table lookup score all candidates of a step.
    """
    order = tuple(int(v) for v in np.asarray(ordering).ravel())
    n_vars = len(order)
    if sorted(order) != list(range(n_vars)):
        raise ValueError("ordering must be a permutation of the variables")
    if max_parents < 0:
        raise ValueError("max_parents must be non-negative")
    data = _as_dataset(data, n_vars)
    lgamma = gammaln(np.arange(data.shape[0] + _STATES + 1))

    parents: list[tuple[int, ...]] = [() for _ in range(n_vars)]
    for pos, var in enumerate(order):
        current: tuple[int, ...] = ()
        current_score = _k2_scores(_counts(data, var, [current]), lgamma)[0]
        remaining = sorted(order[:pos])
        while remaining and len(current) < max_parents:
            candidates = [sorted(current + (c,)) for c in remaining]
            scores = _k2_scores(_counts(data, var, candidates), lgamma)
            # argmax takes the first maximum: the lowest-index candidate
            best = int(np.argmax(scores))
            if scores[best] <= current_score:
                break
            current = tuple(candidates[best])
            current_score = scores[best]
            del remaining[best]
        parents[var] = current
    return BNStructure(n_vars=n_vars, parents=tuple(parents), ordering=order)


def _check_tables(structure: BNStructure, cpts: CPTs) -> None:
    """Raise unless there is one table per variable, with one row per
    combination of its parents' values."""
    if len(cpts.tables) != structure.n_vars:
        raise ValueError("CPT count does not match the structure")
    for v, table in enumerate(cpts.tables):
        expected = 1 << len(structure.parents[v])
        if table.shape[0] != expected:
            raise ValueError(
                f"variable {v}: table has {table.shape[0]} rows, structure needs {expected}"
            )


def log_joint_pmf(structure: BNStructure, cpts: CPTs, data: np.ndarray) -> np.ndarray:
    """Log probability of each row of a (rows, N) batch under the network."""
    data = _as_dataset(data, structure.n_vars)
    _check_tables(structure, cpts)
    acc = np.zeros(data.shape[0], dtype=np.float64)
    for v, table in enumerate(cpts.tables):
        j = _parent_index(data, structure.parents[v])
        acc += np.log(table[j, data[:, v]])
    return acc


def joint_pmf(structure: BNStructure, cpts: CPTs, solution: np.ndarray) -> float:
    """Probability of one assignment under the factorized model."""
    solution = np.asarray(solution, dtype=np.uint8)
    if solution.ndim != 1:
        raise ValueError("solution must be a 1-D bit vector")
    return float(np.exp(log_joint_pmf(structure, cpts, solution[np.newaxis, :])[0]))


def sample(
    structure: BNStructure,
    cpts: CPTs,
    count: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Ancestral sampling: draw each variable in topological order.

    Returns a (count, N) uint8 dataset; deterministic given the seed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    out = np.zeros((count, structure.n_vars), dtype=np.uint8)
    if count == 0:
        return out
    for v in structure.ordering:
        j = _parent_index(out, structure.parents[v])
        theta_one = cpts.tables[v][j, 1]
        out[:, v] = rng.random(count) < theta_one
    return out


def save_network_json(structure: BNStructure, cpts: CPTs, path: str | Path) -> None:
    doc = {
        "ordering": list(structure.ordering),
        "parents": [list(p) for p in structure.parents],
        "cpts": [table.tolist() for table in cpts.tables],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_network_json(path: str | Path) -> tuple[BNStructure, CPTs]:
    """Read a network file, checking its fields, the structure and every
    table against the structure; every rejection names the file."""
    path = Path(path)
    doc = _read_json_object(path)
    parents, ordering, tables = (
        _require(doc, key, list, path, ValueError) for key in ("parents", "ordering", "cpts")
    )
    try:
        parents = tuple(tuple(p) for p in parents)
        structure = BNStructure(n_vars=len(parents), parents=parents, ordering=tuple(ordering))
        cpts = CPTs(tables=tuple(np.array(t, dtype=np.float64) for t in tables))
        _check_tables(structure, cpts)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return structure, cpts
