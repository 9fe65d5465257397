"""A minimal two-modality domain over plain vectors.

Both modalities are 8-component real vectors; coherence is their cosine
similarity mapped to [0,1]. The text-like axis bins the angle of the
first two components, the visual-like axis crosses a norm bin with a
roughness bin. Cheap to evaluate and fully transparent, which makes it
the workhorse for oracle and trend tests.

rng consumption per call is documented so independent oracles can
replay a run: generate draws two 8-vectors (resampling any with norm
< 1e-9); vary draws one uniform (branch: full when < 0.2), then one
8-vector (full resample or the Gaussian perturbation).
"""
from __future__ import annotations

import math

import numpy as np

from ..binding import DomainBinding
from ..checks import require_finite
from ..types import Solution
from .common import bin4, mean, norm

DIMS = 8
FULL_MUTATION_PROB = 0.2
TEXT_BINS = 16
NORM_THRESHOLDS = (1.0, 2.0, 3.0)
ROUGHNESS_THRESHOLDS = (0.5, 1.0, 1.5)


def describe_text(values: np.ndarray) -> int | None:
    """Angle bin of the first two components; (0, 0) has no angle."""
    if values[0] == 0.0 and values[1] == 0.0:
        return None
    theta = math.atan2(values[1], values[0])
    return min(TEXT_BINS - 1, int(TEXT_BINS * (theta + math.pi) / (2 * math.pi)))


def describe_visual(values: np.ndarray) -> int:
    norm_bin = bin4(norm(values), NORM_THRESHOLDS)
    roughness = float(mean(np.abs(np.subtract(values[1:], values[:-1]))))
    return 4 * norm_bin + bin4(roughness, ROUGHNESS_THRESHOLDS)


def vector_features(values: np.ndarray) -> tuple[np.ndarray, float]:
    """A vector's coherence features: the vector and its norm."""
    return np.asarray(values), norm(values)


def combine_features(t: tuple[np.ndarray, float], v: tuple[np.ndarray, float]) -> float:
    """(1 + cos(t, v)) / 2 from two ``vector_features`` results."""
    (t_values, tn), (v_values, vn) = t, v
    if tn == 0.0 or vn == 0.0:
        raise ValueError("coherence is undefined for zero-norm vectors")
    cos = float(t_values.dot(v_values)) / (tn * vn)
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


class VectorPairDomain(DomainBinding):
    name = "vector_pair"

    def __init__(self, sigma: float = 0.3):
        self.sigma = require_finite("sigma", sigma)

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return (TEXT_BINS, 16)

    def _sample(self, rng: np.random.Generator) -> np.ndarray:
        values = rng.standard_normal(DIMS)
        while norm(values) < 1e-9:
            values = rng.standard_normal(DIMS)
        return values

    def generate(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return self._sample(rng), self._sample(rng)

    def vary(self, modality: int, parent: Solution, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < FULL_MUTATION_PROB:
            return rng.standard_normal(DIMS)
        return parent.artefacts[modality].payload + rng.normal(0.0, self.sigma, DIMS)

    def describe(self, modality: int, payload: np.ndarray) -> int | None:
        if modality == 0:
            return describe_text(payload)
        return describe_visual(payload)

    def cohere(self, payloads: tuple[np.ndarray, ...]) -> float:
        return combine_features(vector_features(payloads[0]), vector_features(payloads[1]))

    def features(self, modality: int, payload: np.ndarray) -> tuple[np.ndarray, float]:
        return vector_features(payload)

    def combine(self, features: tuple[tuple[np.ndarray, float], ...]) -> float:
        return combine_features(features[0], features[1])
