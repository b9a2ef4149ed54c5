"""Exhaustive search-space enumeration and Pareto machinery.

Everything here treats objectives as maximized.  A solution ``a`` dominates
``b`` iff it is at least as good in every objective and strictly better in
one.  The exact Pareto set of an instance is found by enumerating all 2^N
bitstrings (N capped to keep "exact" honest) and keeping the non-dominated
ones; solutions whose objective vector duplicates a Pareto point are kept,
since they are distinct solutions in decision space.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .landscape import MNKInstance, bits_to_string, evaluate_batch, string_to_bits

__all__ = [
    "ParetoSet",
    "RankedPopulation",
    "EnumerationCapError",
    "dominates",
    "pareto_mask",
    "enumerate_pareto",
    "nondominated_sort",
    "epsilon_success",
    "epsilon_cover_prefix",
    "save_pareto_json",
    "load_pareto_json",
    "save_pareto_csv",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 24
_CHUNK = 1 << 16
_FORMAT_VERSION = 1


class EnumerationCapError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` Pareto-dominates ``b`` under maximization."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors differ in length: {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an objective matrix.

    Rows equal to a non-dominated row are kept (duplicates are mutually
    non-dominating).  Scans candidates in decreasing objective-sum order so
    strong points prune the bulk early.
    """
    objs = np.asarray(objectives, dtype=np.float64)
    n = objs.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(-objs.sum(axis=1), kind="stable")
    pts = objs[order]
    alive = np.arange(n)
    i = 0
    while i < len(pts):
        cand = pts[i]
        keep = np.any(pts > cand, axis=1) | np.all(pts == cand, axis=1)
        pts = pts[keep]
        alive = alive[keep]
        i = int(np.count_nonzero(keep[:i])) + 1
    mask = np.zeros(n, dtype=bool)
    mask[order[alive]] = True
    return mask


@dataclass(frozen=True, eq=False)
class ParetoSet:
    """Exact Pareto-optimal solutions of one instance, with objectives.

    ``solutions`` is (npo, N) uint8, ``objectives`` the parallel (npo, M)
    float matrix; rows are sorted lexicographically by bitstring, so
    ``codes`` is strictly increasing.
    """

    instance_id: str
    solutions: np.ndarray
    objectives: np.ndarray

    def __post_init__(self) -> None:
        solutions = np.ascontiguousarray(self.solutions, dtype=np.uint8)
        objectives = np.ascontiguousarray(self.objectives, dtype=np.float64)
        if solutions.ndim != 2 or objectives.ndim != 2:
            raise ValueError("solutions and objectives must be 2-D")
        if solutions.shape[0] != objectives.shape[0]:
            raise ValueError("solutions and objectives row counts differ")
        solutions.flags.writeable = False
        objectives.flags.writeable = False
        object.__setattr__(self, "solutions", solutions)
        object.__setattr__(self, "objectives", objectives)

    @property
    def size(self) -> int:
        return self.solutions.shape[0]

    @cached_property
    def codes(self) -> np.ndarray:
        """The rows as uint64 integers, variable 0 the most significant bit."""
        n = self.solutions.shape[1]
        if n > 64:
            raise ValueError(f"{n}-bit solutions do not fit a uint64 code")
        weights = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
        codes = self.solutions.astype(np.uint64) @ weights
        codes.flags.writeable = False
        return codes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParetoSet):
            return NotImplemented
        return (
            self.instance_id == other.instance_id
            and np.array_equal(self.solutions, other.solutions)
            and np.array_equal(self.objectives, other.objectives)
        )


def _bit_matrix(codes: np.ndarray, n_vars: int) -> np.ndarray:
    shifts = np.arange(n_vars - 1, -1, -1, dtype=np.uint32)
    return ((codes[:, None] >> shifts) & 1).astype(np.uint8)


def enumerate_pareto(instance: MNKInstance) -> ParetoSet:
    """Exact Pareto set over all 2^N solutions, in lexicographic order.

    Works in chunks: each chunk is evaluated and reduced to its
    non-dominated subset, and one filter over the union of those subsets
    gives the set.  A point dominated anywhere is dominated by a Pareto
    point, which survives its own chunk, so chunk boundaries do not matter;
    chunks come in ascending code order and masks keep that order.
    """
    n = instance.n_vars
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"N={n} exceeds the enumeration cap of {ENUMERATION_CAP}; "
            "exact Pareto sets are only supported for enumerable instances"
        )
    total = 1 << n
    chunk_codes, chunk_objs = [], []
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        objs = evaluate_batch(instance, _bit_matrix(codes, n))
        local = pareto_mask(objs)
        chunk_codes.append(codes[local])
        chunk_objs.append(objs[local])
    codes = np.concatenate(chunk_codes)
    objs = np.vstack(chunk_objs)
    keep = pareto_mask(objs)
    return ParetoSet(
        instance_id=instance.id,
        solutions=_bit_matrix(codes[keep], n),
        objectives=objs[keep],
    )


@dataclass(frozen=True, eq=False)
class RankedPopulation:
    """A population split into Pareto fronts with crowding distances.

    ``rank`` is 1-based (front 1 is non-dominated); ``crowding`` follows the
    usual convention of +inf at each front's per-objective extremes, with
    interior members summing normalized cuboid side lengths.
    """

    objectives: np.ndarray
    rank: np.ndarray
    crowding: np.ndarray
    solutions: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.objectives.shape[0]

    @property
    def n_fronts(self) -> int:
        return int(self.rank.max())

    def front(self, index: int) -> np.ndarray:
        """Member indices of front ``index`` (1-based)."""
        return np.where(self.rank == index)[0]


def _crowding_distances(front_objs: np.ndarray) -> np.ndarray:
    size = front_objs.shape[0]
    if size <= 2:
        return np.full(size, np.inf)
    crowd = np.zeros(size, dtype=np.float64)
    for m in range(front_objs.shape[1]):
        values = front_objs[:, m]
        order = np.argsort(values, kind="stable")
        spread = values[order[-1]] - values[order[0]]
        if spread <= 0.0:
            continue
        crowd[order[0]] = np.inf
        crowd[order[-1]] = np.inf
        crowd[order[1:-1]] += (values[order[2:]] - values[order[:-2]]) / spread
    return crowd


def nondominated_sort(
    objectives: np.ndarray, solutions: np.ndarray | None = None
) -> RankedPopulation:
    """Fast non-dominated sorting with crowding distances.

    Peels fronts by maintaining per-member dominator counts against the
    full pairwise domination matrix.  The matrix comes from the coverage
    check's kernel at epsilon 0, which is plain weak dominance: ``c``
    strictly dominates ``i`` when it weakly dominates ``i`` and ``i`` does
    not weakly dominate ``c``, so duplicate rows are mutually
    non-dominating.
    """
    objs = np.ascontiguousarray(objectives, dtype=np.float64)
    if objs.ndim != 2 or objs.shape[0] == 0:
        raise ValueError("population must be a non-empty 2-D objective matrix")
    n = objs.shape[0]
    covered = np.vstack(list(_covering_blocks(objs, objs, 0.0)))
    dom = covered.T & ~covered
    counts = dom.sum(axis=0).astype(np.int64)
    rank = np.zeros(n, dtype=np.int32)
    crowding = np.zeros(n, dtype=np.float64)
    assigned = np.zeros(n, dtype=bool)
    front_index = 1
    while not assigned.all():
        members = np.where(~assigned & (counts == 0))[0]
        if members.size == 0:
            raise AssertionError("domination counts exhausted with members left")
        rank[members] = front_index
        assigned[members] = True
        counts -= dom[members].sum(axis=0)
        crowding[members] = _crowding_distances(objs[members])
        front_index += 1
    sols = None if solutions is None else np.asarray(solutions)
    return RankedPopulation(objectives=objs, rank=rank, crowding=crowding, solutions=sols)


def _covering_blocks(
    candidates: np.ndarray, exact: "ParetoSet | np.ndarray", epsilon: float
):
    """Per block of exact points, the (block, candidates) coverage matrix.

    Entry [i, c] is True iff candidate ``c`` scaled by (1+epsilon) weakly
    dominates exact point ``i``; at epsilon 0 this is plain weak dominance,
    which ``nondominated_sort`` uses against the population itself.
    Validates the inputs first; yields nothing for an empty exact set.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    exact_objs = exact.objectives if isinstance(exact, ParetoSet) else np.asarray(exact)
    cand = np.asarray(candidates, dtype=np.float64)
    if cand.ndim == 1:
        cand = cand.reshape(1, -1) if cand.size else cand.reshape(0, exact_objs.shape[1])
    if cand.ndim != 2:
        raise ValueError("candidates must be a matrix of objective vectors")
    if exact_objs.shape[0] == 0:
        return
    if cand.shape[0] == 0:
        yield np.zeros((exact_objs.shape[0], 0), dtype=bool)
        return
    if cand.shape[1] != exact_objs.shape[1]:
        raise ValueError(
            f"objective counts differ: candidates have {cand.shape[1]}, "
            f"exact set has {exact_objs.shape[1]}"
        )
    scaled = (1.0 + epsilon) * cand
    step = max(1, (1 << 22) // max(1, scaled.shape[0] * scaled.shape[1]))
    for start in range(0, exact_objs.shape[0], step):
        block = exact_objs[start : start + step]
        yield (block[:, None, :] <= scaled[None, :, :]).all(axis=2)


def epsilon_success(
    candidates: np.ndarray, exact: "ParetoSet | np.ndarray", epsilon: float
) -> bool:
    """True iff the candidate set is a (1+epsilon)-approximation.

    Checks that every exact Pareto objective vector ``p`` has a candidate
    ``c`` with ``p_m <= (1+epsilon)*c_m`` in all objectives.  Covering the
    Pareto set suffices: every feasible point is weakly dominated by some
    Pareto point, so its coverage is implied.  Scaling by (1+epsilon)
    preserves dominance, so a set covers exactly when its non-dominated
    subset does; candidates need no Pareto filtering first.
    """
    return all(
        covered.any(axis=1).all()
        for covered in _covering_blocks(candidates, exact, epsilon)
    )


def epsilon_cover_prefix(
    candidates: np.ndarray, exact: "ParetoSet | np.ndarray", epsilon: float
) -> int | None:
    """Length of the shortest prefix of ``candidates`` that is a
    (1+epsilon)-approximation, or None if the whole set is not.

    One pass finds each exact point's first covering candidate; the prefix
    must reach the latest of them.  Agrees with ``epsilon_success`` on
    every prefix: ``epsilon_success(candidates[:j], ...)`` holds exactly
    when ``j`` is at least the returned length.
    """
    prefix = 0
    for covered in _covering_blocks(candidates, exact, epsilon):
        if not covered.any(axis=1).all():
            return None
        prefix = max(prefix, int(covered.argmax(axis=1).max()) + 1)
    return prefix


def save_pareto_json(pareto: ParetoSet, path: str | Path) -> None:
    doc = {
        "format_version": _FORMAT_VERSION,
        "instance_id": pareto.instance_id,
        "n": int(pareto.solutions.shape[1]),
        "m": int(pareto.objectives.shape[1]),
        "solutions": [bits_to_string(row) for row in pareto.solutions],
        "objectives": pareto.objectives.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_pareto_json(path: str | Path) -> ParetoSet:
    """Read a Pareto-set file, checking its fields, its version, its shapes
    against ``n`` and ``m``, its bitstrings, and the sorted, unique row
    order; every rejection names the file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        version, instance_id, n, m = doc["format_version"], doc["instance_id"], doc["n"], doc["m"]
        strings, objectives = doc["solutions"], doc["objectives"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format_version {version!r} (expected {_FORMAT_VERSION})"
        )
    if len(strings) != len(objectives):
        raise ValueError(f"{path}: {len(strings)} solutions but {len(objectives)} objective rows")
    if any(len(s) != n for s in strings):
        raise ValueError(f"{path}: a solution is not {n} bits long")
    if any(len(row) != m for row in objectives):
        raise ValueError(f"{path}: an objective row does not have {m} values")
    try:
        bits = [string_to_bits(s) for s in strings]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    pareto = ParetoSet(
        instance_id=instance_id,
        solutions=np.array(bits, dtype=np.uint8).reshape(-1, n),
        objectives=np.array(objectives, dtype=np.float64).reshape(-1, m),
    )
    if np.any(pareto.codes[1:] <= pareto.codes[:-1]):
        raise ValueError(f"{path}: solutions are not in strictly increasing order")
    return pareto


def save_pareto_csv(pareto: ParetoSet, path: str | Path) -> None:
    """CSV export: one row per solution, columns bitstring, z_1..z_M."""
    m = pareto.objectives.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bitstring"] + [f"z_{i + 1}" for i in range(m)])
        for bits, objs in zip(pareto.solutions, pareto.objectives):
            writer.writerow([bits_to_string(bits)] + [repr(float(v)) for v in objs])
