"""Shared test fixtures and builders."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from melita import Artefact, DomainBinding, Solution, characterize


def scalar_solution(coords, fitness):
    """A two-modality solution with throwaway scalar payloads, for tests
    that exercise archive mechanics without a real domain."""
    artefacts = (
        Artefact(0, np.array([float(coords[0])])),
        Artefact(1, np.array([float(coords[1])])),
    )
    return Solution(artefacts, float(fitness), tuple(coords))


def hexed(sample):
    """A MetricsSample with every float as ``float.hex``, so that
    comparisons are bit for bit."""
    return tuple(v.hex() if isinstance(v, float) else v for v in sample)


# Multiples of 0.1 and of 1000.1 make near-ties whose order of summation decides them.
DISTANCE_VALUES = (
    st.sampled_from([0.0, -0.0, 0.30000000000000004, 1.0])
    | st.integers(1, 12).map(lambda i: i * 0.1)
    | st.integers(1, 12).map(lambda i: i * 1000.1)
    | st.floats(0.0, 1e6)
)


@st.composite
def distance_matrices(draw, max_n=40):
    """A square float64 matrix that ``metrics.checked_distances`` accepts:
    entries drawn from a small pool, so many tie, some mixed with spread
    values; zeros of either sign, each entry's sign drawn on its own
    (``-0.0 == 0.0``, so the matrix still counts as symmetric); laid out
    in C order, Fortran order, as a transposed view or as a strided view."""
    n = draw(st.integers(1, max_n))
    pool = np.array(draw(st.lists(DISTANCE_VALUES, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = pool[rng.integers(len(pool), size=(n, n))]
    if draw(st.booleans()):
        values = np.where(rng.random((n, n)) < 0.5, rng.random((n, n)) * 10.0, values)
    upper = np.triu_indices(n, 1)
    matrix = np.zeros((n, n))
    matrix[upper] = matrix[upper[::-1]] = values[upper]
    matrix[(matrix == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        return np.asfortranarray(matrix)
    if layout == "transposed":
        return matrix.T
    if layout == "strided":
        padded = np.full((2 * n, 2 * n), np.nan)
        padded[::2, ::2] = matrix
        return padded[::2, ::2]
    return matrix


class ScriptedDomain(DomainBinding):
    """Fully deterministic domain over 1-element payloads.

    The behavioural bin of a payload [x] is int(x) on either axis, and
    coherence is looked up from a table keyed by the payload value pair,
    so tests can stage exact step scenarios. ``vary`` pops pre-loaded
    payloads from a queue, each tagged with the modality it expects.
    """

    name = "scripted"

    def __init__(self, axes=(4, 4), fitness_table=None, default_fitness=0.5):
        self.axes = tuple(axes)
        self.fitness_table = dict(fitness_table or {})
        self.default_fitness = default_fitness
        self.queue = []

    @property
    def modality_count(self):
        return 2

    @property
    def axis_sizes(self):
        return self.axes

    def generate(self, rng):
        return None

    def push(self, modality, value):
        self.queue.append((modality, np.array([float(value)])))

    def vary(self, modality, parent, rng):
        expected, payload = self.queue.pop(0)
        assert expected == modality
        return payload

    def describe(self, modality, payload):
        value = float(payload[0])
        if value < 0:
            return None
        bin_index = int(value)
        return bin_index if bin_index < self.axes[modality] else None

    def cohere(self, payloads):
        key = (float(payloads[0][0]), float(payloads[1][0]))
        return self.fitness_table.get(key, self.default_fitness)


def scripted_solution(domain, text_value, visual_value):
    payloads = (np.array([float(text_value)]), np.array([float(visual_value)]))
    return characterize(domain, payloads)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
