"""MNK-landscape problem instances: generation, evaluation, persistence.

An instance is M independent NK components over one length-N bitstring.
Component m gives variable n a random neighborhood of K other variables and
a lookup table of 2^(K+1) values drawn uniformly from [0, 1]; the m-th
objective of a solution is the mean of the N table lookups, so every
objective lies in [0, 1] and all objectives are maximized.

Conventions used throughout the package:

* a solution is a 1-D ``uint8`` array of length N; its text form is the
  string ``bits[0] bits[1] ... bits[N-1]`` (variable 0 first), so
  lexicographic order of bitstrings equals numeric order with variable 0
  as the most significant bit;
* table lookup index: the variable's own bit is the most significant bit,
  the neighbor bits follow in stored neighbor-list order;
* neighborhoods are drawn independently per objective;
* randomness: PCG64 streams, one per (instance seed, component, variable),
  derived with ``SeedSequence([seed, component, variable])``.

Instances serialize to a versioned JSON document.  Table values are written
as plain JSON numbers; Python emits shortest round-trip decimal reprs for
doubles, so save/load is bit-exact.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "NKComponent",
    "MNKInstance",
    "MalformedInstanceError",
    "generate_instance",
    "evaluate_batch",
    "save_instance",
    "load_instance",
    "bits_to_string",
    "bits_to_strings",
    "string_to_bits",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1
_EVAL_BLOCK = 1 << 13


class MalformedInstanceError(ValueError):
    """Raised when an instance file violates the documented schema."""


def bits_to_strings(bits: np.ndarray) -> list[str]:
    """The text form of each row of a (rows, N) array, nonzero entries as
    "1"; all rows are written as one ASCII buffer and sliced."""
    bits = np.asarray(bits)
    n = bits.shape[1]
    text = np.where(bits != 0, 49, 48).astype(np.uint8).tobytes().decode("ascii")
    return [text[i * n : (i + 1) * n] for i in range(bits.shape[0])]


def bits_to_string(bits: np.ndarray) -> str:
    return bits_to_strings(np.reshape(bits, (1, -1)))[0]


def string_to_bits(text: str) -> np.ndarray:
    if any(c not in "01" for c in text):
        raise ValueError(f"bitstring may contain only 0/1, got {text!r}")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def _bit_matrix(codes: np.ndarray, n_vars: int) -> np.ndarray:
    """The (len(codes), n_vars) uint8 solutions with these integer codes,
    variable 0 the most significant bit."""
    shifts = np.arange(n_vars - 1, -1, -1, dtype=np.uint32)
    return ((codes[:, None] >> shifts) & 1).astype(np.uint8)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class NKComponent:
    """One NK landscape: neighborhoods and lookup tables for N variables.

    neighbors has shape (N, K); row n lists the K interaction partners of
    variable n, in the order that defines the table index.  tables has shape
    (N, 2^(K+1)) with entries in [0, 1].
    """

    neighbors: np.ndarray
    tables: np.ndarray

    def __post_init__(self) -> None:
        neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int32)
        tables = np.ascontiguousarray(self.tables, dtype=np.float64)
        if neighbors.ndim != 2:
            raise MalformedInstanceError("neighbors must be a 2-D array")
        n, k = neighbors.shape
        if tables.shape != (n, 2 ** (k + 1)):
            raise MalformedInstanceError(
                f"tables must have shape ({n}, {2 ** (k + 1)}) for K={k}, "
                f"got {tables.shape}"
            )
        for var in range(n):
            row = neighbors[var]
            if len(set(row.tolist())) != k:
                raise MalformedInstanceError(
                    f"variable {var}: neighbor list has repeated entries"
                )
            if np.any(row == var):
                raise MalformedInstanceError(
                    f"variable {var}: variable listed as its own neighbor"
                )
            if np.any((row < 0) | (row >= n)):
                raise MalformedInstanceError(
                    f"variable {var}: neighbor index out of range [0, {n})"
                )
        if not np.all((tables >= 0.0) & (tables <= 1.0)):
            raise MalformedInstanceError("table entries must lie in [0, 1]")
        object.__setattr__(self, "neighbors", _freeze(neighbors))
        object.__setattr__(self, "tables", _freeze(tables))

    @property
    def n_vars(self) -> int:
        return self.neighbors.shape[0]

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]

    @cached_property
    def _index_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, offsets): a 0/1 row ``x`` reads table entry
        ``(x @ W)[v] + offsets[v]`` of ``tables.ravel()`` for variable v.

        ``W[p, v]`` is the table-index bit that variable p sets for variable
        v, 2^K for v itself and 2^(K-c) for its c-th neighbor (c from 1), so
        every index is a sum of distinct powers of two below 2^(K+1) and the
        float64 product is exact in any summation order.
        """
        n, k = self.n_vars, self.k
        weights = np.zeros((n, n), dtype=np.float64)
        columns = np.column_stack([np.arange(n), self.neighbors])
        weights[columns, np.arange(n)[:, None]] = 2.0 ** np.arange(k, -1, -1)
        offsets = np.arange(n, dtype=np.intp) << (k + 1)
        return _freeze(weights), _freeze(offsets)

    def _code_tables(self, low_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """(low, shift): the solution with code c (variable 0 the most
        significant of N bits) reads entry ``(low[c % 2^L] + shift[c >> L])[v]``
        of ``tables.ravel()`` for variable v, L being ``low_bits``.

        Each table index is a sum of distinct powers of two, one per set bit
        (``_index_weights``), so it splits exactly into the share of the last
        L variables, which repeats in every block of 2^L consecutive codes,
        and the share of the first N - L variables plus the variable's table
        offset, which is constant inside a block.  ``low`` is (2^L, N) and
        ``shift`` (2^(N-L), N), both intp.
        """
        weights, offsets = self._index_weights
        weights = weights.astype(np.intp)
        split = self.n_vars - low_bits
        low = _bit_matrix(np.arange(1 << low_bits), low_bits) @ weights[split:]
        shift = _bit_matrix(np.arange(1 << split), split) @ weights[:split] + offsets
        return low, shift

    def contributions(self, solutions: np.ndarray) -> np.ndarray:
        """Per-variable table lookups for a (B, N) float64 batch of 0/1
        entries; shape (B, N)."""
        weights, offsets = self._index_weights
        index = (solutions @ weights).astype(np.intp)
        index += offsets
        return self.tables.ravel()[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NKComponent):
            return NotImplemented
        return np.array_equal(self.neighbors, other.neighbors) and np.array_equal(
            self.tables, other.tables
        )


@dataclass(frozen=True, eq=False)
class MNKInstance:
    """M NK components sharing one set of N binary variables and one K."""

    id: str
    seed: int
    components: tuple[NKComponent, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.components:
            raise MalformedInstanceError("an instance needs at least one component")
        n = self.components[0].n_vars
        k = self.components[0].k
        for i, comp in enumerate(self.components):
            if comp.n_vars != n:
                raise MalformedInstanceError(f"component {i}: N differs ({comp.n_vars} != {n})")
            if comp.k != k:
                raise MalformedInstanceError(f"component {i}: K differs ({comp.k} != {k})")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def n_vars(self) -> int:
        return self.components[0].n_vars

    @property
    def m_objectives(self) -> int:
        return len(self.components)

    @property
    def k(self) -> int:
        return self.components[0].k

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MNKInstance):
            return NotImplemented
        return (
            self.id == other.id
            and self.seed == other.seed
            and len(self.components) == len(other.components)
            and all(a == b for a, b in zip(self.components, other.components))
        )


def generate_instance(
    seed: int,
    n_vars: int,
    m_objectives: int,
    k: int,
    instance_id: str | None = None,
) -> MNKInstance:
    """Draw a random MNK instance; a pure function of its arguments.

    Each variable of each component gets its own PCG64 stream seeded with
    ``SeedSequence([seed, component, variable])``; the stream draws the
    K-subset of neighbors (uniform, excluding the variable itself) and then
    the 2^(K+1) table values.
    """
    if n_vars < 1:
        raise ValueError(f"n_vars must be positive, got {n_vars}")
    if m_objectives < 1:
        raise ValueError(f"m_objectives must be positive, got {m_objectives}")
    if not 0 <= k < n_vars:
        raise ValueError(f"k must satisfy 0 <= k < n_vars, got k={k}, n_vars={n_vars}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")

    components = []
    for comp_index in range(m_objectives):
        neighbors = np.empty((n_vars, k), dtype=np.int32)
        tables = np.empty((n_vars, 2 ** (k + 1)), dtype=np.float64)
        for var in range(n_vars):
            rng = np.random.default_rng(np.random.SeedSequence([seed, comp_index, var]))
            candidates = np.delete(np.arange(n_vars, dtype=np.int32), var)
            neighbors[var] = rng.choice(candidates, size=k, replace=False)
            tables[var] = rng.random(2 ** (k + 1))
        components.append(NKComponent(neighbors=neighbors, tables=tables))

    if instance_id is None:
        instance_id = f"mnk-n{n_vars}-m{m_objectives}-k{k}-s{seed}"
    return MNKInstance(id=instance_id, seed=seed, components=tuple(components))


def evaluate_batch(instance: MNKInstance, solutions: np.ndarray) -> np.ndarray:
    """Objective vectors for a (B, N) batch of solutions; shape (B, M).

    Every entry must be 0 or 1 (any numeric or bool dtype).  The batch is
    converted to float64 and evaluated in blocks of ``_EVAL_BLOCK`` rows,
    so no temporary grows with B.
    """
    solutions = np.asarray(solutions)
    if solutions.ndim != 2 or solutions.shape[1] != instance.n_vars:
        raise ValueError(
            f"expected shape (batch, {instance.n_vars}), got {solutions.shape}"
        )
    out = np.empty((solutions.shape[0], instance.m_objectives), dtype=np.float64)
    for start in range(0, solutions.shape[0], _EVAL_BLOCK):
        block = solutions[start : start + _EVAL_BLOCK].astype(np.float64)
        if np.any((block != 0.0) & (block != 1.0)):
            raise ValueError("solutions may hold only 0 and 1")
        for m, comp in enumerate(instance.components):
            out[start : start + len(block), m] = comp.contributions(block).mean(axis=1)
    return out


def _code_objectives(
    instance: MNKInstance, low_bits: int, chunk: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(start, objectives) for every ``chunk`` consecutive codes from 0 to
    2^N - 1, where ``objectives`` is the (rows, M) matrix of codes
    ``start, start + 1, ...``; 2^``low_bits`` must divide ``chunk`` and 2^N.

    Block b of 2^L codes reads ``flat[low + shift[b]]`` from each
    component's ``_code_tables``: the same table entries as
    ``evaluate_batch`` on the block's bit matrix, in the same C-contiguous
    (rows, N) layout, reduced by the same ``.mean(axis=1)``, so the
    objectives are equal byte for byte without building a bit matrix.
    """
    tables = [(comp.tables.ravel(), *comp._code_tables(low_bits)) for comp in instance.components]
    total, block = 1 << instance.n_vars, 1 << low_bits
    for start in range(0, total, chunk):
        objs = np.empty((min(chunk, total - start), instance.m_objectives), dtype=np.float64)
        for row in range(0, objs.shape[0], block):
            b = (start + row) >> low_bits
            for m, (flat, low, shift) in enumerate(tables):
                objs[row : row + block, m] = flat[low + shift[b]].mean(axis=1)
        yield start, objs


def _instance_to_dict(instance: MNKInstance) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "id": instance.id,
        "seed": instance.seed,
        "n": instance.n_vars,
        "m": instance.m_objectives,
        "k": instance.k,
        "components": [
            {
                "neighbors": comp.neighbors.tolist(),
                "tables": comp.tables.tolist(),
            }
            for comp in instance.components
        ],
    }


def _json_text(value, pad: str = "") -> str:
    """The text ``json.dumps(value, indent=1)`` writes for ``value``, nested
    ``len(pad)`` levels deep, without the pure-Python encoder's per-item
    work: each list of numbers is one ``join`` of their reprs, which is what
    the encoder writes for Python ints and finite floats."""
    inner = pad + " "
    if isinstance(value, dict):
        brackets = "{}"
        items = (f"{json.dumps(key)}: {_json_text(item, inner)}" for key, item in value.items())
    elif isinstance(value, list):
        brackets = "[]"
        if value and isinstance(value[0], (int, float)):
            items = map(repr, value)
        else:
            items = (_json_text(item, inner) for item in value)
    else:
        return json.dumps(value)
    body = (",\n" + inner).join(items)
    if not body:
        return brackets
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def save_instance(instance: MNKInstance, path: str | Path) -> None:
    """Write the instance as versioned JSON (lossless float round-trip)."""
    path = Path(path)
    text = _json_text(_instance_to_dict(instance))
    path.write_text(text + "\n", encoding="utf-8")


def _require(
    doc: dict, key: str, kind: type, path: Path, error: type[ValueError] = MalformedInstanceError
):
    """``doc[key]``, which must be an int (not a bool), str or list as
    ``kind`` says; a missing or mistyped field raises ``error`` naming
    the file."""
    if key not in doc:
        raise error(f"{path}: missing field {key!r}")
    value = doc[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise error(f"{path}: field {key!r} must be an integer")
    if kind is str and not isinstance(value, str):
        raise error(f"{path}: field {key!r} must be a string")
    if kind is list and not isinstance(value, list):
        raise error(f"{path}: field {key!r} must be a list")
    return value


def _read_json_object(
    path: Path, required: tuple[str, ...] = (), error: type[ValueError] = ValueError
) -> dict:
    """The JSON object in ``path``, holding every ``required`` field; invalid
    JSON, another top-level value or a missing field raises ``error``
    naming the file."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    missing = [name for name in required if name not in doc]
    if missing:
        raise error(f"{path}: missing field(s) {', '.join(missing)}")
    return doc


def load_instance(path: str | Path) -> MNKInstance:
    """Read an instance file, validating every documented invariant."""
    path = Path(path)
    doc = _read_json_object(path, error=MalformedInstanceError)
    version = _require(doc, "format_version", int, path)
    if version != FORMAT_VERSION:
        raise MalformedInstanceError(
            f"{path}: unsupported format_version {version} (expected {FORMAT_VERSION})"
        )
    instance_id = _require(doc, "id", str, path)
    seed = _require(doc, "seed", int, path)
    n = _require(doc, "n", int, path)
    m = _require(doc, "m", int, path)
    k = _require(doc, "k", int, path)
    raw_components = _require(doc, "components", list, path)
    if len(raw_components) != m:
        raise MalformedInstanceError(
            f"{path}: expected {m} components, found {len(raw_components)}"
        )
    components = []
    for ci, raw in enumerate(raw_components):
        if not isinstance(raw, dict):
            raise MalformedInstanceError(f"{path}: components[{ci}] must be an object")
        neighbors = _require(raw, "neighbors", list, path)
        tables = _require(raw, "tables", list, path)
        try:
            neighbors_arr = np.array(neighbors, dtype=np.int32)
            tables_arr = np.array(tables, dtype=np.float64)
        except ValueError as exc:
            raise MalformedInstanceError(
                f"{path}: components[{ci}] is ragged or non-numeric ({exc})"
            ) from exc
        if neighbors_arr.ndim != 2 or neighbors_arr.shape != (n, k):
            raise MalformedInstanceError(
                f"{path}: components[{ci}].neighbors must have shape ({n}, {k}), "
                f"got {neighbors_arr.shape}"
            )
        if tables_arr.ndim != 2 or tables_arr.shape[0] != n:
            raise MalformedInstanceError(
                f"{path}: components[{ci}].tables must have {n} rows"
            )
        if tables_arr.shape[1] != 2 ** (k + 1):
            raise MalformedInstanceError(
                f"{path}: components[{ci}].tables rows must have length "
                f"{2 ** (k + 1)}, got {tables_arr.shape[1]}"
            )
        try:
            components.append(NKComponent(neighbors=neighbors_arr, tables=tables_arr))
        except MalformedInstanceError as exc:
            raise MalformedInstanceError(f"{path}: components[{ci}]: {exc}") from exc
    try:
        return MNKInstance(id=instance_id, seed=seed, components=tuple(components))
    except MalformedInstanceError as exc:
        raise MalformedInstanceError(f"{path}: {exc}") from exc
