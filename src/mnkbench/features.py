"""Fitness-landscape features computed from an instance and its Pareto set.

Nine features per instance: the low-level parameters m and k, plus
high-level properties of the exact Pareto set: its size (npo), the
hypervolume of the front with the origin as reference (hv), average and
maximum pairwise Hamming distance between Pareto-optimal solutions
(avgd, maxd), and the connectedness of the Pareto set under bit-flip
adjacency (nconnec, lconnec, kconnec).

Hypervolume is exact (recursive objective slicing) up to 4 objectives;
beyond that a seeded Monte Carlo estimate is used, since exact computation
cost grows super-polynomially with the number of objectives.

The distance and connectivity features work on the packed integer codes of
the Pareto set (``ParetoSet.codes``), where a Hamming distance is the
popcount of an XOR.  The three connectivity features are read off one
minimum spanning tree under Hamming distance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .enumeration import ParetoSet, pareto_mask
from .landscape import MNKInstance

__all__ = [
    "FeatureVector",
    "FEATURE_COLUMNS",
    "hypervolume",
    "monte_carlo_hypervolume",
    "pareto_distances",
    "connectivity",
    "extract_features",
    "EXACT_HV_MAX_OBJECTIVES",
]

EXACT_HV_MAX_OBJECTIVES = 4


@dataclass(frozen=True)
class FeatureVector:
    """The per-instance feature row used by the regression cost models."""

    m: int
    k: int
    npo: int
    hv: float
    avgd: float
    maxd: float
    nconnec: int
    lconnec: float
    kconnec: int


# the header of features.csv: the instance id, then one column per field
FEATURE_COLUMNS = ("instance_id", *(field.name for field in fields(FeatureVector)))


def _validate_front(front: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(front, dtype=np.float64)
    if pts.size == 0:
        return np.empty((0, len(np.atleast_1d(ref)))), np.asarray(ref, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("front must be a 2-D array of objective vectors")
    reference = np.asarray(ref, dtype=np.float64)
    if reference.shape != (pts.shape[1],):
        raise ValueError(
            f"reference length {reference.shape} does not match {pts.shape[1]} objectives"
        )
    if np.any(pts < reference):
        bad = np.where((pts < reference).any(axis=1))[0][0]
        raise ValueError(
            f"front point {bad} lies below the reference point in some objective"
        )
    return pts, reference


def _exact_hv(points: np.ndarray, ref: np.ndarray) -> float:
    """Recursive slicing along the first objective (maximization)."""
    if points.shape[0] == 0:
        return 0.0
    pts = np.unique(points[pareto_mask(points)], axis=0)
    m = pts.shape[1]
    if m == 1:
        return float(pts[:, 0].max() - ref[0])
    order = np.argsort(-pts[:, 0], kind="stable")
    pts = pts[order]
    if m == 2:
        # slabs between consecutive first coordinates; height is the running
        # best second coordinate among points reaching that slab
        heights = np.maximum.accumulate(pts[:, 1]) - ref[1]
        widths = np.diff(np.concatenate([pts[:, 0], [ref[0]]])) * -1.0
        return float(np.dot(widths, heights))
    volume = 0.0
    xs = pts[:, 0]
    boundaries = np.unique(xs)[::-1]
    for t, upper in enumerate(boundaries):
        lower = boundaries[t + 1] if t + 1 < len(boundaries) else ref[0]
        active = pts[xs >= upper][:, 1:]
        volume += (upper - lower) * _exact_hv(active, ref[1:])
    return float(volume)


def monte_carlo_hypervolume(
    front: np.ndarray,
    ref: np.ndarray,
    samples: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded Monte Carlo hypervolume estimate with its standard error.

    Samples uniformly in the bounding box between ``ref`` and the
    componentwise front maxima and counts points dominated by the front.
    """
    pts, reference = _validate_front(front, ref)
    if pts.shape[0] == 0:
        return 0.0, 0.0
    if samples < 1:
        raise ValueError("samples must be positive")
    upper = pts.max(axis=0)
    box = float(np.prod(upper - reference))
    if box == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    # strong points first: most covered samples are eliminated by the first
    # blocks, which keeps large fronts tractable
    screen = pts[np.argsort(-pts.sum(axis=1), kind="stable")]
    hits = 0
    # draws per batch: the stream is the same for any batch size, which only
    # bounds the (batch, 128, M) comparison temporary (about 8 MB)
    step = max(1, (1 << 16) // max(1, pts.shape[1]))
    remaining = samples
    while remaining > 0:
        batch = min(step, remaining)
        draws = reference + rng.random((batch, pts.shape[1])) * (upper - reference)
        for start in range(0, screen.shape[0], 128):
            block = screen[start : start + 128]
            covered = (draws[:, None, :] <= block[None, :, :]).all(axis=2).any(axis=1)
            hits += int(covered.sum())
            draws = draws[~covered]
            if draws.shape[0] == 0:
                break
        remaining -= batch
    frac = hits / samples
    stderr = box * float(np.sqrt(frac * (1.0 - frac) / samples))
    return box * frac, stderr


def hypervolume(front: np.ndarray, ref: np.ndarray) -> float:
    """Hypervolume of a maximization front relative to ``ref``.

    Exact up to ``EXACT_HV_MAX_OBJECTIVES`` objectives, the seeded Monte
    Carlo estimate beyond.
    """
    pts, reference = _validate_front(front, ref)
    if pts.shape[0] == 0:
        return 0.0
    if pts.shape[1] <= EXACT_HV_MAX_OBJECTIVES:
        return _exact_hv(pts, reference)
    return monte_carlo_hypervolume(pts, reference)[0]


def pareto_distances(pareto: ParetoSet) -> tuple[float, float]:
    """Mean and maximum Hamming distance over all unordered solution pairs.

    A singleton set has no pairs and returns (0, 0).  The mean uses the
    per-bit identity sum_pairs d(a, b) = sum_bits ones_b * zeros_b, which is
    exact; the maximum scans blocks of rows against the rows from the
    block on, which covers every pair.
    """
    bits = pareto.solutions
    npo = bits.shape[0]
    if npo < 2:
        return 0.0, 0.0
    ones = bits.sum(axis=0, dtype=np.int64)
    total = int((ones * (npo - ones)).sum())
    pairs = npo * (npo - 1) // 2
    avgd = total / pairs
    codes = pareto.codes
    step = max(1, (1 << 20) // npo)
    maxd = max(
        int(np.bitwise_count(codes[start : start + step, None] ^ codes[start:]).max())
        for start in range(0, npo, step)
    )
    return float(avgd), float(maxd)


def connectivity(pareto: ParetoSet) -> tuple[int, float, int]:
    """Connectedness of the Pareto set under bit-flip adjacency.

    Returns (number of components of the Hamming-distance-1 graph,
    largest component size / npo, minimal distance d making the
    distance-<=d graph connected; 0 for a singleton set).

    All three come from one minimum spanning tree under Hamming distance,
    grown by Prim's algorithm.  By the cut property the tree edges of
    length <= d span exactly the components of the distance-<=d graph: the
    longest edge is the smallest d that connects the set, and cutting the
    edges longer than 1 leaves the distance-1 components.  Each vertex
    joins the tree after the vertex it hangs from, so it takes that
    vertex's component over a short edge and starts a new one otherwise.
    """
    npo = pareto.size
    if npo == 1:
        return 1, 1.0, 0
    codes = pareto.codes
    # distance from each vertex to the tree, and the tree vertex at it;
    # vertices in the tree read a distance no code can have
    dist = np.bitwise_count(codes ^ codes[0])
    joined = np.iinfo(dist.dtype).max
    dist[0] = joined
    nearest = np.zeros(npo, dtype=np.intp)
    component = np.zeros(npo, dtype=np.intp)
    nconnec, longest = 1, 0
    for _ in range(npo - 1):
        v = int(np.argmin(dist))
        length = int(dist[v])
        if length <= 1:
            component[v] = component[nearest[v]]
        else:
            component[v] = nconnec
            nconnec += 1
        longest = max(longest, length)
        dist[v] = joined
        row = np.bitwise_count(codes ^ codes[v])
        closer = (row < dist) & (dist != joined)
        dist[closer] = row[closer]
        nearest[closer] = v
    lconnec = int(np.bincount(component).max()) / npo
    return nconnec, lconnec, max(1, longest)


def extract_features(instance: MNKInstance, pareto: ParetoSet) -> FeatureVector:
    """Assemble the full feature row for one instance."""
    if pareto.instance_id != instance.id:
        raise ValueError(
            f"Pareto set belongs to {pareto.instance_id!r}, not {instance.id!r}"
        )
    ref = np.zeros(instance.m_objectives)
    hv = hypervolume(pareto.objectives, ref)
    avgd, maxd = pareto_distances(pareto)
    nconnec, lconnec, kconnec = connectivity(pareto)
    return FeatureVector(
        m=instance.m_objectives,
        k=instance.k,
        npo=pareto.size,
        hv=hv,
        avgd=avgd,
        maxd=maxd,
        nconnec=nconnec,
        lconnec=lconnec,
        kconnec=kconnec,
    )
