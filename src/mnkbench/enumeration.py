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

from .landscape import MNKInstance, bits_to_strings, string_to_bits
from .landscape import _bit_matrix, _code_objectives, _read_json_object, _require

__all__ = [
    "ParetoSet",
    "RankedPopulation",
    "EnumerationCapError",
    "pareto_mask",
    "enumerate_pareto",
    "nondominated_sort",
    "epsilon_success",
    "save_pareto_json",
    "load_pareto_json",
    "save_pareto_csv",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 24
_CHUNK = 1 << 16
# enumerate_pareto evaluates blocks of at most 2^11 codes: larger index
# tables raise its peak memory and are no faster
_LOW_BITS = 11
_FORMAT_VERSION = 1


class EnumerationCapError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


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


def enumerate_pareto(instance: MNKInstance) -> ParetoSet:
    """Exact Pareto set over all 2^N solutions, in lexicographic order.

    Works in chunks of ``_CHUNK`` codes: each chunk is evaluated and reduced
    to its non-dominated subset, and one filter over the union of those
    subsets gives the set.  A point dominated anywhere is dominated by a
    Pareto point, which survives its own chunk, so chunk boundaries do not
    matter; chunks come in ascending code order and masks keep that order.

    No bit matrix is built for evaluation.  A table index is a sum of one
    power of two per set bit, so it splits into the share of the last L
    bits, the same in every block of 2^L codes, and a per-block shift of
    the first N - L bits; ``landscape._code_objectives`` gathers each
    block from one (2^L, N) index table per objective plus its shift.  The
    gathered lookups and their ``.mean(axis=1)`` are those of
    ``evaluate_batch``, so the objectives are the same bytes.  L is
    ``_LOW_BITS``, cut to N and until 2^L divides ``_CHUNK``, so blocks
    tile every chunk.
    """
    n = instance.n_vars
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"N={n} exceeds the enumeration cap of {ENUMERATION_CAP}; "
            "exact Pareto sets are only supported for enumerable instances"
        )
    low_bits = min(n, _LOW_BITS, (_CHUNK & -_CHUNK).bit_length() - 1)
    chunk_codes, chunk_objs = [], []
    for start, objs in _code_objectives(instance, low_bits, _CHUNK):
        local = pareto_mask(objs)
        chunk_codes.append(start + np.flatnonzero(local))
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
    """Pareto-front ranks and crowding distances of a population's rows.

    ``rank`` is 1-based (front 1 is non-dominated); ``crowding`` follows the
    usual convention of +inf at each front's per-objective extremes, with
    interior members summing normalized cuboid side lengths.  It is computed
    per rank over the members in ascending row order, on first read.
    """

    objectives: np.ndarray
    rank: np.ndarray

    @property
    def size(self) -> int:
        return self.objectives.shape[0]

    @cached_property
    def crowding(self) -> np.ndarray:
        order = np.argsort(self.rank, kind="stable")
        crowding = np.zeros(self.size, dtype=np.float64)
        for members in np.split(order, np.flatnonzero(np.diff(self.rank[order])) + 1):
            crowding[members] = _crowding_distances(self.objectives[members])
        return crowding


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


_SORT_BLOCK = 128


def _weakly_dominates(rows_t: np.ndarray, cols_t: np.ndarray) -> np.ndarray:
    """Entry [i, j] is True iff row ``i`` is at least column ``j`` in every
    objective; both arguments are (M, count) transposed objective blocks.
    The result is the AND over objectives of one 2-D comparison between
    contiguous objective columns, so no (rows, columns, M) temporary is
    built."""
    weak = rows_t[0, :, None] >= cols_t[0]
    scratch = np.empty_like(weak)
    for m in range(1, rows_t.shape[0]):
        weak &= np.greater_equal(rows_t[m, :, None], cols_t[m], out=scratch)
    return weak


def _sum_order(objs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``objs`` in decreasing objective-sum order, ties in row
    order: the row indices, the transposed (M, n) objective block and the
    sums, all in that order."""
    sums = objs.sum(axis=1)
    order = np.argsort(-sums, kind="stable")
    return order, np.ascontiguousarray(objs[order].T), sums[order]


def _first_front(objs_t: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Mask of the non-dominated columns of ``objs_t`` (M, n), whose columns
    come in decreasing order of their objective ``sums``.

    A strict dominator's float sum is at least that of the row it
    dominates, and anything that dominates a row is dominated by, or is, a
    front member.  So each block of columns is tested against the front
    kept from earlier blocks, all of strictly larger sum, where weak
    dominance is strict, and against itself for strict dominance.  A block
    grows past ``_SORT_BLOCK`` columns until its last sum differs from the
    next, so columns of equal sum always share a block.
    """
    n = objs_t.shape[1]
    front = np.zeros(n, dtype=bool)
    kept = np.empty_like(objs_t)
    n_kept = start = 0
    while start < n:
        stop = min(start + _SORT_BLOCK, n)
        while stop < n and sums[stop] == sums[stop - 1]:
            stop += 1
        block = objs_t[:, start:stop]
        weak = _weakly_dominates(block, block)
        alive = ~(weak & ~weak.T).any(axis=0)
        if n_kept:
            alive &= ~_weakly_dominates(kept[:, :n_kept], block).any(axis=0)
        front[start:stop] = alive
        count = int(np.count_nonzero(alive))
        kept[:, n_kept : n_kept + count] = block[:, alive]
        n_kept += count
        start = stop
    return front


def nondominated_sort(objectives: np.ndarray, top: int | None = None) -> RankedPopulation:
    """Pareto-front ranks of the rows, peeled front by front.

    Rows are taken in decreasing order of objective sum and each front is
    the non-dominated subset of the rows still unranked, so duplicate rows
    are mutually non-dominating and share a front.  Peeling stops once at
    least ``top`` rows are ranked (all rows by default); the rows left then
    share the next rank.
    """
    objs = np.ascontiguousarray(objectives, dtype=np.float64)
    if objs.ndim != 2 or objs.shape[0] == 0:
        raise ValueError("population must be a non-empty 2-D objective matrix")
    n = objs.shape[0]
    top = n if top is None else top
    if top < 1:
        raise ValueError(f"top must be positive, got {top}")
    order, objs_t, sums = _sum_order(objs)
    left = np.arange(n)  # sorted positions not yet ranked
    rank = np.zeros(n, dtype=np.int32)
    front_index = 1
    while n - left.size < top and left.size:
        front = _first_front(objs_t[:, left], sums[left])
        rank[order[left[front]]] = front_index
        left = left[~front]
        front_index += 1
    rank[order[left]] = front_index
    return RankedPopulation(objectives=objs, rank=rank)


# head sizes of the two screens pareto_mask runs before its block peel
_SCREEN_SIZES = (8, 64)


def _strictly_dominated(head_t: np.ndarray, cols_t: np.ndarray) -> np.ndarray:
    """Mask of the columns of ``cols_t`` that some column of ``head_t``
    strictly dominates: weakly, and not equal in every objective.  Both
    parts are (head, columns) matrices, so no transposed copy is built."""
    weak = _weakly_dominates(head_t, cols_t)
    equal = head_t[0, :, None] == cols_t[0]
    scratch = np.empty_like(equal)
    for m in range(1, head_t.shape[0]):
        equal &= np.equal(head_t[m, :, None], cols_t[m], out=scratch)
    return (weak & ~equal).any(axis=0)


def pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an objective matrix.

    Rows equal to a non-dominated row are kept (duplicates are mutually
    non-dominating).  Two screens first drop every row strictly dominated
    by one of the 8 rows of largest objective sum, then by one of the 64
    rows of largest sum among those left; a partial sort picks these
    heads, since strong rows prune the bulk.  The rows left are put in
    decreasing objective-sum order, the order ``nondominated_sort`` peels
    in, and the block peel ``_first_front`` gives their non-dominated
    subset.  The screens are exact: a strictly dominated row is never on
    the front, and a front row, or a duplicate of one, is strictly
    dominated by nothing, so the screens keep the whole front, and every
    row they keep off it is dominated by a front row the peel sees.
    """
    objs = np.asarray(objectives, dtype=np.float64)
    mask = np.zeros(objs.shape[0], dtype=bool)
    if not mask.size:
        return mask
    rows = np.arange(mask.size)
    objs_t = np.ascontiguousarray(objs.T)
    for size in _SCREEN_SIZES:
        head = min(size, rows.size)
        top = np.argpartition(-objs_t.sum(axis=0), head - 1)[:head]
        keep = ~_strictly_dominated(objs_t[:, top], objs_t)
        rows, objs_t = rows[keep], objs_t[:, keep]
    order, objs_t, sums = _sum_order(objs[rows])
    mask[rows[order[_first_front(objs_t, sums)]]] = True
    return mask


def _covering_blocks(
    candidates: np.ndarray, exact: "ParetoSet | np.ndarray", epsilon: float
):
    """Per block of exact points, the (block, candidates) coverage matrix.

    Entry [i, c] is True iff candidate ``c`` scaled by (1+epsilon) weakly
    dominates exact point ``i``.
    Validates the inputs first; yields nothing for an empty exact set.
    Each block is the dominance kernel of the non-dominated sort on
    negated objectives.
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
    # negation is exact, so p <= c exactly when -p >= -c
    scaled_t = np.ascontiguousarray((-(1.0 + epsilon) * cand).T)
    exact_t = np.ascontiguousarray(-exact_objs.T)
    step = max(1, (1 << 22) // max(1, cand.shape[0] * cand.shape[1]))
    for start in range(0, exact_t.shape[1], step):
        yield _weakly_dominates(exact_t[:, start : start + step], scaled_t)


def _coverage(
    candidates: np.ndarray, exact: "ParetoSet | np.ndarray", epsilon: float
) -> tuple[int | None, int]:
    """One coverage pass: ``(index of the first exact point no scaled
    candidate covers, 0)``, or ``(None, length of the shortest prefix of
    candidates that covers)`` if the candidates are a
    (1+epsilon)-approximation.

    Stops at the first block that holds an uncovered point.  Coverage only
    grows with the prefix, so the shortest covering prefix reaches the
    latest of the exact points' first covering candidates.
    """
    start = prefix = 0
    for covered in _covering_blocks(candidates, exact, epsilon):
        hit = covered.any(axis=1)
        if not hit.all():
            return start + int(hit.argmin()), 0
        prefix = max(prefix, int(covered.argmax(axis=1).max()) + 1)
        start += covered.shape[0]
    return None, prefix


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
    return _coverage(candidates, exact, epsilon)[0] is None


def save_pareto_json(pareto: ParetoSet, path: str | Path) -> None:
    doc = {
        "format_version": _FORMAT_VERSION,
        "instance_id": pareto.instance_id,
        "n": int(pareto.solutions.shape[1]),
        "m": int(pareto.objectives.shape[1]),
        "solutions": bits_to_strings(pareto.solutions),
        "objectives": pareto.objectives.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_pareto_json(path: str | Path) -> ParetoSet:
    """Read a Pareto-set file, checking its fields and their types, its
    version, its shapes against ``n`` and ``m``, its bitstrings, its finite
    objective values, and the sorted, unique row order; every rejection
    names the file."""
    path = Path(path)
    doc = _read_json_object(path)
    version = _require(doc, "format_version", int, path, ValueError)
    instance_id = _require(doc, "instance_id", str, path, ValueError)
    n = _require(doc, "n", int, path, ValueError)
    m = _require(doc, "m", int, path, ValueError)
    strings = _require(doc, "solutions", list, path, ValueError)
    objectives = _require(doc, "objectives", list, path, ValueError)
    if not all(isinstance(s, str) for s in strings):
        raise ValueError(f"{path}: every solution must be a bitstring")
    if not all(isinstance(row, list) for row in objectives):
        raise ValueError(f"{path}: every objective row must be a list")
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
    try:
        objs = np.array(objectives, dtype=np.float64).reshape(-1, m)
        finite = bool(np.isfinite(objs).all())
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ValueError(f"{path}: objective values must be finite numbers")
    pareto = ParetoSet(
        instance_id=instance_id,
        solutions=np.array(bits, dtype=np.uint8).reshape(-1, n),
        objectives=objs,
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
        for text, objs in zip(bits_to_strings(pareto.solutions), pareto.objectives.tolist()):
            writer.writerow([text, *map(repr, objs)])
