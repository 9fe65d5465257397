"""Shared test fixtures and builders."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

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
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(sample))


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
