"""Deterministic seed derivation for every random stream in the workbench.

All randomness flows through numpy's PCG64 generator.  Streams are derived
from integer/string key tuples with ``SeedSequence`` so that results are
identical across platforms and independent of scheduling: a worker that
computes (instance 7, run 3) always draws from the same stream, whether it
runs first, last, or in parallel with others.

Derivation rule: string keys are hashed to eight 32-bit words with SHA-256,
integer keys are used as-is, and the resulting word list is fed to
``numpy.random.SeedSequence`` as entropy.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed"]


def _key_words(key: int | str) -> list[int]:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError(f"seed keys must be non-negative, got {key}")
        return [int(key)]
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]


def derive_seed(*keys: int | str) -> int:
    """Map a key tuple to a 64-bit seed, stable across platforms and runs."""
    if not keys:
        raise ValueError("at least one key is required")
    entropy: list[int] = []
    for key in keys:
        entropy.extend(_key_words(key))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
