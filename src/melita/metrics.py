"""Archive-level quality and diversity measurements.

Sums use math.fsum, which is correctly rounded, and maxima use max over
never-NaN fitness values; neither depends on the order of the elites,
so a metric recomputed from a serialized archive reproduces the value
recorded during the run bit for bit.

A run keeps RunningMetrics instead: its QD score is running Shewchuk
partials, which sum to the elite fitnesses exactly, so their fsum is
the correctly rounded sum archive_metrics takes, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .archive import Archive
from .types import INSERTED_EMPTY, REPLACED, Outcome


class MetricsSample(NamedTuple):
    """One point of a run's metric series; it equals the plain tuple of its values."""

    step: int
    coverage: float
    mean_fitness: float
    max_fitness: float
    qd_score: float


def _sample(step: int, count: int, cell_count: int, qd: float, best: float) -> MetricsSample:
    """An empty archive reports zeros so time series stay total."""
    if not count:
        return MetricsSample(step, 0.0, 0.0, 0.0, 0.0)
    return MetricsSample(step, count / cell_count, qd / count, best, qd)


def archive_metrics(archive: Archive, step: int = 0) -> MetricsSample:
    """Coverage, mean/max fitness, and QD score (sum of elite fitness)."""
    fitnesses = [cell.solution.fitness for cell in archive.cells.values()]
    return _sample(
        step, len(fitnesses), archive.cell_count, math.fsum(fitnesses), max(fitnesses, default=0.0)
    )


class RunningMetrics:
    """``archive_metrics`` of one archive, kept current from the Outcome
    of every change made to it. The maximum only grows, because a
    replacement is strictly fitter than the elite it evicts."""

    def __init__(self, archive: Archive) -> None:
        self.archive, self.cell_count = archive, archive.cell_count
        self.count, self.best, self.qd, self.partials = 0, 0.0, 0.0, []
        for coords in archive.cells:
            self.record(Outcome(INSERTED_EMPTY, coords))

    def record(self, outcome: Outcome) -> None:
        if outcome.kind == REPLACED:
            self.count -= 1
            self._add(-outcome.old_fitness)
        elif outcome.kind != INSERTED_EMPTY:
            return
        fitness = self.archive.cells[outcome.coords].solution.fitness
        self.count += 1
        self.best = max(self.best, fitness)
        self._add(fitness)
        self.qd = math.fsum(self.partials)

    def _add(self, x: float) -> None:
        """Shewchuk's exact addition into non-overlapping partials."""
        i = 0
        for y in self.partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                self.partials[i] = lo
                i += 1
            x = hi
        self.partials[i:] = [x]

    def sample(self, step: int = 0) -> MetricsSample:
        return _sample(step, self.count, self.cell_count, self.qd, self.best)


def auc(series: Sequence[float]) -> float:
    """Area under a per-step series: left Riemann sum with unit step."""
    return math.fsum(series)


def checked_distances(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a float64 array, if it is a square matrix of distances.
    ValueError names its first negative or non-finite entry above the
    diagonal in row order, then any asymmetry or nonzero diagonal entry."""
    dist = np.asarray(matrix, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {dist.shape}")
    bad = np.argwhere(np.triu((dist < 0.0) | ~np.isfinite(dist), 1))
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"invalid distance {dist.item(i, j)!r} between items {i} and {j}")
    if not np.array_equal(dist, dist.T) or dist.diagonal().any():
        raise ValueError("distance matrix must be symmetric with a zero diagonal")
    return dist


def euclidean_matrix(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Symmetric float64 matrix of the distances between equal-length 1-D
    vectors, with the bits of ``np.linalg.norm(a - b)``: ``np.vecdot`` takes its dot product."""
    x = np.array(vectors, dtype=np.float64)
    matrix = np.zeros((len(x), len(x)))
    for i in range(len(x) - 1):
        diff = x[i] - x[i + 1 :]
        matrix[i, i + 1 :] = matrix[i + 1 :, i] = np.sqrt(np.vecdot(diff, diff))
    return matrix


@dataclass(frozen=True)
class DistanceReport:
    per_elite_mean: tuple[float, ...]
    per_elite_nearest: tuple[float, ...]
    mean_distance: float
    mean_nearest: float
    single_elite: bool


def diversity(matrix: np.ndarray) -> DistanceReport:
    """Mean and nearest-neighbour distance per item, plus their averages,
    from the square matrix of distances between the items (see
    ``checked_distances``). A single item yields zeros with the
    single_elite flag set.
    """
    dist = checked_distances(matrix)
    n = len(dist)
    if n == 0:
        raise ValueError("diversity requires at least one item")
    if n == 1:
        return DistanceReport((0.0,), (0.0,), 0.0, 0.0, True)

    # A zero diagonal leaves a row's fsum as is; argmin keeps min's pick of 0.0 or -0.0.
    per_mean = tuple(math.fsum(row) / (n - 1) for row in dist.tolist())
    off_diagonal = np.where(np.eye(n, dtype=bool), np.inf, dist)
    per_nearest = tuple(off_diagonal[np.arange(n), off_diagonal.argmin(axis=1)].tolist())
    return DistanceReport(
        per_elite_mean=per_mean,
        per_elite_nearest=per_nearest,
        mean_distance=math.fsum(per_mean) / n,
        mean_nearest=math.fsum(per_nearest) / n,
        single_elite=False,
    )
