"""k-medoids clustering (PAM) for picking representative elites."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .metrics import pairwise_distances


@dataclass(frozen=True)
class KMedoidsResult:
    medoids: tuple[int, ...]
    labels: tuple[int, ...]
    cost: float


def _assign(matrix: list[list[float]], medoids: Sequence[int]) -> tuple[list[int], float]:
    labels = []
    cost = 0.0
    for i in range(len(matrix)):
        best = min(range(len(medoids)), key=lambda k: (matrix[i][medoids[k]], k))
        labels.append(best)
        cost += matrix[i][medoids[best]]
    return labels, cost


def k_medoids(
    items: Sequence,
    distance: Callable[[object, object], float],
    k: int,
    rng: np.random.Generator,
) -> KMedoidsResult:
    """Partition items around k medoids (PAM).

    Initial medoids are drawn without replacement from rng; thereafter
    the best strictly-improving (medoid, candidate) swap is applied each
    iteration until none exists, which is deterministic given the seed.
    Ties in assignment go to the lowest medoid position.
    """
    n = len(items)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    matrix = pairwise_distances(items, distance)

    medoids = sorted(int(m) for m in rng.choice(n, size=k, replace=False))
    labels, cost = _assign(matrix, medoids)
    while True:
        best_swap = None
        best_cost = cost
        for slot in range(k):
            for candidate in range(n):
                if candidate in medoids:
                    continue
                trial = list(medoids)
                trial[slot] = candidate
                _, trial_cost = _assign(matrix, trial)
                if trial_cost < best_cost - 1e-12:
                    best_cost = trial_cost
                    best_swap = (slot, candidate)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        labels, cost = _assign(matrix, medoids)

    return KMedoidsResult(tuple(medoids), tuple(labels), cost)
