"""k-medoids clustering (PAM) for picking representative elites."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import checked_distances


@dataclass(frozen=True)
class KMedoidsResult:
    medoids: tuple[int, ...]
    labels: tuple[int, ...]
    cost: float


def _assign(dist: np.ndarray, medoids: Sequence[int]) -> tuple[list[int], float]:
    """Each point's nearest medoid position, the lowest of ties, and the sum in point order."""
    labels = dist[:, medoids].argmin(axis=1)
    cost = 0.0
    for d in dist[np.arange(len(dist)), np.take(medoids, labels)].tolist():
        cost += d
    return labels.tolist(), cost


def k_medoids(matrix: np.ndarray, k: int, rng: np.random.Generator) -> KMedoidsResult:
    """Partition the items of a distance matrix (``metrics.checked_distances``)
    around k medoids (PAM); deterministic given rng.

    Initial medoids are drawn from rng without replacement. Swaps are
    scanned slot by slot, candidates in index order; one is kept only if
    it lowers the best cost so far by more than 1e-12, and the kept swap
    is applied until none is. A swap's cost adds each point's distance
    to its nearest trial medoid in point order (``np.add.reduce`` over axis
    0 adds a C-ordered array's rows in turn, a Fortran-ordered one's
    pairwise), so costs and tie-breaks keep the bits of a point-by-point
    reassignment. One numpy pass per slot scores every candidate: O(k*n^2)
    array work per iteration. Assignment ties go to the lowest medoid position.
    """
    dist = checked_distances(matrix)
    n = len(dist)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    medoids = sorted(int(m) for m in rng.choice(n, size=k, replace=False))
    labels, cost = _assign(dist, medoids)
    while True:
        best_swap = None
        best_cost = cost
        for slot in range(k):
            nearest = dist[:, medoids[:slot] + medoids[slot + 1 :]].min(axis=1, initial=np.inf)
            trial_costs = np.add.reduce(np.minimum(nearest[:, None], dist, order="C"), axis=0)
            for candidate, trial_cost in enumerate(trial_costs.tolist()):
                if candidate not in medoids and trial_cost < best_cost - 1e-12:
                    best_cost = trial_cost
                    best_swap = (slot, candidate)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        labels, cost = _assign(dist, medoids)

    return KMedoidsResult(tuple(medoids), tuple(labels), cost)
