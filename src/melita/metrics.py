"""Archive-level quality and diversity measurements.

Sums use math.fsum, which is correctly rounded, and maxima use max over
never-NaN fitness values; neither depends on the order of the elites,
so a metric recomputed from a serialized archive reproduces the value
recorded during the run bit for bit.

A run keeps RunningMetrics instead: its QD score is an exact integer
count of 2**-1074 units, and int true division rounds that count
correctly, as fsum rounds the sum archive_metrics takes, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .archive import Archive
from .types import INSERTED_EMPTY, REPLACED, Outcome


# 2**-1074, the smallest subnormal, divides every float in [0, 1].
_UNITS_PER_ONE = 2**1074

# Bytes of differences euclidean_matrix takes at once: a block stays in cache.
_BLOCK_BYTES = 1 << 18


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
    of every change made to it. The QD score is kept exactly, as
    ``units``, an integer count of 2**-1074. The maximum only grows,
    because a replacement is strictly fitter than the elite it evicts."""

    def __init__(self, archive: Archive) -> None:
        self.archive, self.cell_count = archive, archive.cell_count
        self.count, self.best, self.qd, self.units = 0, 0.0, 0.0, 0
        for coords in archive.cells:
            self.record(Outcome(INSERTED_EMPTY, coords))

    def record(self, outcome: Outcome) -> None:
        if outcome.kind == REPLACED:
            self.count -= 1
            self.units -= _units(outcome.old_fitness)
        elif outcome.kind != INSERTED_EMPTY:
            return
        fitness = self.archive.cells[outcome.coords].solution.fitness
        self.count += 1
        self.best = max(self.best, fitness)
        self.units += _units(fitness)
        self.qd = self.units / _UNITS_PER_ONE

    def sample(self, step: int = 0) -> MetricsSample:
        return _sample(step, self.count, self.cell_count, self.qd, self.best)


def _units(fitness: float) -> int:
    """``fitness`` in units of 2**-1074: ``n * (_UNITS_PER_ONE // d)``, as
    the ratio's denominator ``d`` is a power of two no larger than 2**1074."""
    n, d = fitness.as_integer_ratio()
    return n << (1075 - d.bit_length())


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
    vectors. Row i is taken over blocks of the later rows, as many as fit
    ``_BLOCK_BYTES`` (at least one), in one reused buffer, so memory beyond
    the stacked input and the result is one block. Each entry has the bits
    of ``np.linalg.norm(a - b)``: ``np.vecdot`` reduces each difference row
    with the norm's dot product, where matmul and einsum sum in other orders."""
    x = np.array(vectors, dtype=np.float64)
    n = len(x)
    matrix = np.zeros((n, n))
    step = max(1, _BLOCK_BYTES // max(1, x[:1].nbytes))
    block = np.empty((min(step, n), *x.shape[1:]))
    for i in range(n - 1):
        for j in range(i + 1, n, step):
            diff = np.subtract(x[i], x[j : j + step], out=block[: n - j])
            matrix[i, j : j + step] = matrix[j : j + step, i] = np.sqrt(np.vecdot(diff, diff))
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
    per_mean = tuple(math.fsum(row.tolist()) / (n - 1) for row in dist)
    off_diagonal = np.where(np.eye(n, dtype=bool), np.inf, dist)
    per_nearest = tuple(off_diagonal[np.arange(n), off_diagonal.argmin(axis=1)].tolist())
    return DistanceReport(
        per_elite_mean=per_mean,
        per_elite_nearest=per_nearest,
        mean_distance=math.fsum(per_mean) / n,
        mean_nearest=math.fsum(per_nearest) / n,
        single_elite=False,
    )
