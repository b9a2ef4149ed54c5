"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written along different lines than the
library code: plain double loops, repeated peeling, union-find sweeps,
exact rational arithmetic.  Slow but obviously correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np


# --- hand-built instances -----------------------------------------------------


def popcount_instance(n: int, m: int = 2, low: float = 0.0):
    """K=0 instance whose every objective is a scaled popcount (tables
    t(0)=low, t(1)=1), so the unique Pareto optimum is all-ones."""
    from mnkbench.landscape import MNKInstance, NKComponent

    comp = NKComponent(
        neighbors=np.zeros((n, 0), dtype=np.int32),
        tables=np.tile(np.array([low, 1.0]), (n, 1)),
    )
    return MNKInstance(id=f"popcount-{n}", seed=0, components=(comp,) * m)


# --- Pareto machinery -------------------------------------------------------


def dominates_oracle(a, b) -> bool:
    at_least = all(x >= y for x, y in zip(a, b))
    strictly = any(x > y for x, y in zip(a, b))
    return at_least and strictly


def pairwise_pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Non-dominated mask by checking every point against every other."""
    objs = np.asarray(objectives, dtype=float)
    n = objs.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        others_ge = (objs >= objs[i]).all(axis=1)
        others_gt = (objs > objs[i]).any(axis=1)
        mask[i] = not np.any(others_ge & others_gt)
    return mask


def peel_fronts(objectives: np.ndarray) -> np.ndarray:
    """Front index (1-based) per point by repeatedly peeling the
    non-dominated layer off the remaining points."""
    objs = np.asarray(objectives, dtype=float)
    n = objs.shape[0]
    ranks = np.zeros(n, dtype=int)
    remaining = list(range(n))
    front = 1
    while remaining:
        sub = objs[remaining]
        layer = pairwise_pareto_mask(sub)
        peeled = [remaining[i] for i in range(len(remaining)) if layer[i]]
        for idx in peeled:
            ranks[idx] = front
        remaining = [i for i in remaining if ranks[i] == 0]
        front += 1
    return ranks


def epsilon_success_fullspace(instance, candidate_objs, epsilon) -> bool:
    """Direct definition: every solution of the whole 2^N space must be
    epsilon-dominated by some candidate."""
    from mnkbench.landscape import evaluate_batch

    n = instance.n_vars
    codes = np.arange(1 << n, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    bits = ((codes[:, None] >> shifts) & 1).astype(np.uint8)
    all_objs = evaluate_batch(instance, bits)
    scaled = (1.0 + epsilon) * np.asarray(candidate_objs, dtype=float)
    for point in all_objs:
        if not np.any((point[None, :] <= scaled).all(axis=1)):
            return False
    return True


def covering_matrix(candidates, exact, epsilon) -> np.ndarray:
    """Entry [i, c] is True iff (1+epsilon)*candidates[c] weakly dominates
    exact[i], from one (exact, candidates, M) comparison array."""
    scaled = (1.0 + epsilon) * np.asarray(candidates, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return (exact[:, None, :] <= scaled[None, :, :]).all(axis=2)


# --- hypervolume -------------------------------------------------------------


def hv_sweepline_2d(points, ref) -> float:
    """2-D hypervolume by sweeping the second objective downward and
    accumulating strips against the running best first objective."""
    pts = sorted((tuple(p) for p in points), key=lambda p: -p[1])
    area = 0.0
    best_x = ref[0]
    prev_y = None
    for x, y in pts:
        if prev_y is None:
            prev_y = y
        if x > best_x:
            area += (best_x - ref[0]) * (prev_y - y)
            best_x = x
            prev_y = y
    area += (best_x - ref[0]) * (prev_y - ref[1]) if prev_y is not None else 0.0
    return area


# --- Hamming distances and connectivity --------------------------------------


def all_pairs_distances(bits: np.ndarray) -> tuple[float, float]:
    rows = [tuple(r) for r in np.asarray(bits)]
    if len(rows) < 2:
        return 0.0, 0.0
    dists = [
        sum(x != y for x, y in zip(a, b)) for a, b in combinations(rows, 2)
    ]
    return sum(dists) / len(dists), float(max(dists))


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def component_sizes(self):
        roots = [self.find(i) for i in range(len(self.parent))]
        return [roots.count(r) for r in set(roots)]

    def connected(self):
        return len({self.find(i) for i in range(len(self.parent))}) == 1


def unionfind_connectivity(bits: np.ndarray) -> tuple[int, float, int]:
    """(nconnec, lconnec, kconnec) via union-find sweeps over d = 1..N."""
    rows = [tuple(r) for r in np.asarray(bits)]
    npo = len(rows)
    if npo == 1:
        return 1, 1.0, 0
    dist = {
        (i, j): sum(x != y for x, y in zip(rows[i], rows[j]))
        for i, j in combinations(range(npo), 2)
    }
    uf1 = _UnionFind(npo)
    for (i, j), d in dist.items():
        if d <= 1:
            uf1.union(i, j)
    sizes = uf1.component_sizes()
    nconnec = len(sizes)
    lconnec = max(sizes) / npo
    kconnec = 0
    for d_limit in range(1, len(rows[0]) + 1):
        uf = _UnionFind(npo)
        for (i, j), d in dist.items():
            if d <= d_limit:
                uf.union(i, j)
        if uf.connected():
            kconnec = d_limit
            break
    return nconnec, lconnec, kconnec


# --- Bayesian network --------------------------------------------------------


def cpt_fraction(data: np.ndarray, var: int, parents: tuple[int, ...]) -> list[list[Fraction]]:
    """Smoothed estimates tallied by hand with exact rational arithmetic."""
    parents = tuple(sorted(parents))
    t = 1 << len(parents)
    table = []
    rows = np.asarray(data)
    for j in range(t):
        parent_bits = [(j >> (len(parents) - 1 - i)) & 1 for i in range(len(parents))]
        match = [
            row
            for row in rows
            if all(row[p] == b for p, b in zip(parents, parent_bits))
        ]
        n_j = len(match)
        counts = [sum(1 for row in match if row[var] == v) for v in (0, 1)]
        table.append([Fraction(1 + counts[v], 2 + n_j) for v in (0, 1)])
    return table


def k2_score_exact(data: np.ndarray, var: int, parents: tuple[int, ...]) -> Fraction:
    """Marginal likelihood as an exact rational, for order comparisons.

    prod_j (s-1)! / (N_j + s - 1)! * prod_k N_jk!, with s = 2 states.
    """
    parents = tuple(sorted(parents))
    rows = np.asarray(data)
    score = Fraction(1)
    for j in range(1 << len(parents)):
        parent_bits = [(j >> (len(parents) - 1 - i)) & 1 for i in range(len(parents))]
        match = [
            row
            for row in rows
            if all(row[p] == b for p, b in zip(parents, parent_bits))
        ]
        counts = [sum(1 for row in match if row[var] == v) for v in (0, 1)]
        n_j = counts[0] + counts[1]
        score *= Fraction(
            factorial(counts[0]) * factorial(counts[1]), factorial(n_j + 1)
        )
    return score


# --- regression ---------------------------------------------------------------


def two_var_ols(xs, ys) -> tuple[float, float]:
    """Closed-form simple regression: slope = cov/var, intercept from means."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xbar, ybar = xs.mean(), ys.mean()
    slope = ((xs - xbar) * (ys - ybar)).sum() / ((xs - xbar) ** 2).sum()
    return ybar - slope * xbar, slope


def normal_equations(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """OLS coefficients by solving (X'X) b = X'y directly."""
    design = np.hstack([np.ones((len(ys), 1)), np.asarray(xs, dtype=float)])
    gram = design.T @ design
    return np.linalg.solve(gram, design.T @ np.asarray(ys, dtype=float))
