"""A minimal two-modality domain over plain vectors.

Both modalities are 8-component real vectors; coherence is their cosine
similarity mapped to [0,1]. The text-like axis bins the angle of the
first two components, the visual-like axis crosses a norm bin with a
roughness bin. ``analyse`` takes a payload's norm once for its bin and
its features, ``(vector, norm)``. A vector whose norm is not finite (an
overflowed variation, say) is unclassified on both axes. Cheap to
evaluate and fully transparent, which makes it the workhorse for oracle
and trend tests.

rng consumption per call is documented so independent oracles can
replay a run: generate draws two 8-vectors (resampling any with norm
< 1e-9); vary draws one uniform (branch: full when < 0.2), then one
8-vector (full resample or the Gaussian perturbation).
"""
from __future__ import annotations

import math

import numpy as np

from ..binding import SplitBinding
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


def _visual_bin(values: np.ndarray, length: float) -> int:
    norm_bin = bin4(length, NORM_THRESHOLDS)
    roughness = float(mean(np.abs(np.subtract(values[1:], values[:-1]))))
    return 4 * norm_bin + bin4(roughness, ROUGHNESS_THRESHOLDS)


def combine_features(t: tuple[np.ndarray, float], v: tuple[np.ndarray, float]) -> float:
    """(1 + cos(t, v)) / 2 from two (vector, norm) features. Raises
    when a norm, or the product of the two, is zero or not finite."""
    (t_values, tn), (v_values, vn) = t, v
    scale = tn * vn
    if not 0.0 < scale < math.inf:
        raise ValueError(f"coherence is undefined for vectors of norm {tn} and {vn}")
    cos = float(t_values.dot(v_values)) / scale
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


class VectorPairDomain(SplitBinding):
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

    def analyse(self, modality: int, payload: np.ndarray) -> tuple[int | None, tuple | None]:
        """The bin and ``(vector, norm)`` from one norm; a norm not finite is unclassified."""
        length = norm(payload)
        if not math.isfinite(length):
            return None, None
        bin_index = describe_text(payload) if modality == 0 else _visual_bin(payload, length)
        return bin_index, None if bin_index is None else (np.asarray(payload), length)

    def combine(self, features: tuple[tuple[np.ndarray, float], ...]) -> float:
        return combine_features(features[0], features[1])
