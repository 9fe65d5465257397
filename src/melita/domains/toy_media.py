"""A desk-scale text/image domain with closed-form media metrics.

Texts are token sequences over a 64-token vocabulary classified against
a fixed 16-topic model (topic k prefers tokens 4k..4k+3 with mass 0.8);
an unclassifiable text is a death penalty. Images are small RGB float
arrays binned by edge complexity crossed with colourfulness. Coherence
embeds the image as 16 summary statistics, projects them through a
fixed matrix, and takes the cosine against the text's topic posterior.
The two embeddings with their norms are the binding's per-artefact
``features``; ``combine`` only takes the cosine. ``analyse`` bins and
embeds a payload in one pass: one topic posterior per text, and one
luminance array, one Sobel pass and one colourfulness per image.

Everything here is reproducible from first principles: the projection
matrix comes from a SplitMix64 stream with a documented seed, and
``ToyMediaDomain.constants`` holds every constant an external oracle
needs.

rng consumption, in order, per call:
- generate: topic = integers(16); length = integers(8, 65); tokens(length,
  topic); pixels = random((h, w, 3)). tokens(n, k) is numpy 2.x's choice(64,
  size=n, p=TOPIC_ROWS[k]) as searchsorted(cdf, random(n), side="right"),
  cdf being the row's cumsum over its last element.
- vary text: one uniform (full when < 0.2); full draws as generate; partial
  draws split = integers(len//3, 2*len//3 + 1), then tokens(len-split, top topic).
- vary image: normal(0, sigma, (h, w, 3)); the blur draws nothing. The
  noise draw happens even when sigma is 0 so the stream shape is stable.
"""
from __future__ import annotations

import math

import numpy as np

from ..binding import DomainBinding
from ..checks import require_finite, require_int
from ..types import Solution
from .common import bin4, mean, norm

VOCAB = 64
TOPICS = 16
MIN_TOKENS = 8
MAX_TOKENS = 64
FULL_MUTATION_PROB = 0.2
CLASSIFY_THRESHOLD = 0.40
EDGE_THRESHOLD = 0.25
COMPLEXITY_BIN_THRESHOLDS = (0.05, 0.15, 0.30)
COLOURFULNESS_BIN_THRESHOLDS = (20.0, 40.0, 60.0)
COLOURFULNESS_SCALE = 300.0
PROJECTION_SEED = 0xC0FFEE

IMAGE_VECTOR_LAYOUT = (
    "quadrant_mean_luminance_tl",
    "quadrant_mean_luminance_tr",
    "quadrant_mean_luminance_bl",
    "quadrant_mean_luminance_br",
    "quadrant_edge_complexity_tl",
    "quadrant_edge_complexity_tr",
    "quadrant_edge_complexity_bl",
    "quadrant_edge_complexity_br",
    "mean_red",
    "mean_green",
    "mean_blue",
    "colourfulness_scaled_clamped",
    "global_edge_complexity",
    "luminance_std",
    "mean_abs_horizontal_luminance_diff",
    "luminance_range",
)

_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """The reference SplitMix64 sequence, in pure integer arithmetic."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def _projection_matrix() -> np.ndarray:
    words = splitmix64_stream(PROJECTION_SEED, 16 * 16)
    values = [2.0 * (w / 2.0**64) - 1.0 for w in words]
    return np.array(values, dtype=np.float64).reshape(16, 16)


PROJECTION = _projection_matrix()


def _topic_rows() -> np.ndarray:
    rows = np.full((TOPICS, VOCAB), 1.0 / 300.0)
    for k in range(TOPICS):
        rows[k, 4 * k : 4 * k + 4] = 0.2
    return rows


TOPIC_ROWS = _topic_rows()
_LOG_TOPIC_ROWS = np.log(TOPIC_ROWS)
_TOPIC_CDFS = TOPIC_ROWS.cumsum(axis=1) / TOPIC_ROWS.cumsum(axis=1)[:, -1:]


def preferred_token_counts(tokens: np.ndarray) -> np.ndarray:
    counts = np.bincount(tokens, minlength=VOCAB)
    return counts.reshape(TOPICS, 4).sum(axis=1)


def topic_posterior(tokens: np.ndarray) -> np.ndarray:
    """Posterior over topics under a uniform prior; sums to 1."""
    counts = np.bincount(tokens, minlength=VOCAB).astype(np.float64)
    loglik = _LOG_TOPIC_ROWS @ counts
    shifted = np.exp(loglik - loglik.max())
    return shifted / shifted.sum()


def token_posterior(payload: np.ndarray) -> np.ndarray:
    """The ``topic_posterior`` analysis embedding: a stored payload's topic
    posterior, or a ValueError when it is not a token array."""
    tokens = np.asarray(payload)
    if tokens.ndim != 1 or tokens.dtype.kind not in "iu" or np.any((tokens < 0) | (tokens >= VOCAB)):
        raise ValueError(f"payload is not a 1-D integer token array in [0, {VOCAB})")
    return topic_posterior(tokens)


def text_analysis(tokens: np.ndarray) -> tuple[int | None, tuple[np.ndarray, float] | None]:
    """A text's bin and, when it has one, its ``text_features``.

    The bin is the top topic if it is unique with posterior >= 0.40. The
    posterior ordering depends only on how many preferred tokens of each
    topic appear, so ties are detected on those integer counts and are
    exact.
    """
    pref = preferred_token_counts(tokens)
    top = int(np.argmax(pref))
    if int((pref == pref[top]).sum()) > 1:
        return None, None
    features = text_features(tokens)
    return (top, features) if features[0][top] >= CLASSIFY_THRESHOLD else (None, None)


def std(a: np.ndarray) -> np.floating:
    """``np.std`` of a float array, by its own ufunc steps."""
    x = a - np.add.reduce(a, axis=None, keepdims=True) / a.size
    return np.sqrt(mean(np.square(x, out=x)))


def luminance(pixels: np.ndarray) -> np.ndarray:
    return 0.299 * pixels[..., 0] + 0.587 * pixels[..., 1] + 0.114 * pixels[..., 2]


def colourfulness(pixels: np.ndarray) -> float:
    """Hasler-Susstrunk colourfulness on 0..255-scaled channels, with
    population standard deviations."""
    r = pixels[..., 0] * 255.0
    g = pixels[..., 1] * 255.0
    b = pixels[..., 2] * 255.0
    rg = r - g
    yb = 0.5 * (r + g) - b
    sigma = math.hypot(float(std(rg)), float(std(yb)))
    mu = math.hypot(float(mean(rg)), float(mean(yb)))
    return sigma + 0.3 * mu


def image_analysis(pixels: np.ndarray) -> tuple[int, np.ndarray, tuple[np.ndarray, float]]:
    """An image's bin (edge complexity crossed with colourfulness), its
    IMAGE_VECTOR_LAYOUT statistics, and its coherence features: M @ vector
    and that vector's norm.

    Gradients come from the 3x3 Sobel pair divided by 4, so a unit step
    edge measures exactly 1; an edge is a magnitude above EDGE_THRESHOLD.
    Border pixels count in neither the edges nor the denominator. A
    quadrant's interior gradients are the same elementwise operations on
    the same luminance values, so its edges are a slice of the image's
    mask; a quadrant under 3x3 counts 0.0. Quadrant means are taken on
    contiguous copies, which sum in the order a new array would. Pixels
    are read C-ordered, so no statistic depends on their memory layout.
    """
    pixels = np.ascontiguousarray(pixels)
    h, w = pixels.shape[:2]
    if h < 3 or w < 3:
        raise ValueError(f"edge complexity needs at least 3x3 pixels, got {h}x{w}")
    y = luminance(pixels)
    tl, tc, tr = y[:-2, :-2], y[:-2, 1:-1], y[:-2, 2:]
    ml, mr = y[1:-1, :-2], y[1:-1, 2:]
    bl, bc, br = y[2:, :-2], y[2:, 1:-1], y[2:, 2:]
    gx = (tr + 2.0 * mr + br - tl - 2.0 * ml - bl) / 4.0
    gy = (bl + 2.0 * bc + br - tl - 2.0 * tc - tr) / 4.0
    edges = np.hypot(gx, gy) > EDGE_THRESHOLD
    complexity, colour = _fraction(edges), colourfulness(pixels)
    h2, w2 = h // 2, w // 2
    quads = ((0, h2, 0, w2), (0, h2, w2, w), (h2, h, 0, w2), (h2, h, w2, w))
    stats = [float(mean(y[r0:r1, c0:c1].copy())) for r0, r1, c0, c1 in quads]
    stats += [
        _fraction(edges[r0 : r1 - 2, c0 : c1 - 2]) if min(r1 - r0, c1 - c0) >= 3 else 0.0
        for r0, r1, c0, c1 in quads
    ]
    stats += [float(mean(pixels[..., ch])) for ch in range(3)]
    stats += [min(colour / COLOURFULNESS_SCALE, 1.0), complexity, float(std(y))]
    y_range = np.maximum.reduce(y, axis=None) - np.minimum.reduce(y, axis=None)
    stats += [float(mean(np.abs(y[:, 1:] - y[:, :-1]))), float(y_range)]
    vector = np.array(stats, dtype=np.float64)
    mapped = PROJECTION @ vector
    bin_index = 4 * bin4(complexity, COMPLEXITY_BIN_THRESHOLDS) + bin4(colour, COLOURFULNESS_BIN_THRESHOLDS)
    return bin_index, vector, (mapped, norm(mapped))


def _fraction(mask: np.ndarray) -> float:
    return float(np.count_nonzero(mask)) / mask.size


def text_features(tokens: np.ndarray) -> tuple[np.ndarray, float]:
    """A text's coherence features: its topic posterior and its norm."""
    e_txt = topic_posterior(tokens)
    return e_txt, norm(e_txt)


def combine_features(text: tuple[np.ndarray, float], image: tuple[np.ndarray, float]) -> float:
    """(1 + cos(M @ e_img, e_txt)) / 2, or a neutral 0.5 if a norm is zero."""
    e_txt, tn = text
    mapped, mn = image
    if tn == 0.0 or mn == 0.0:
        return 0.5
    cos = float(mapped.dot(e_txt)) / (tn * mn)
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


def box_blur(pixels: np.ndarray) -> np.ndarray:
    """3x3 box blur with edge replication, per channel."""
    h, w = pixels.shape[:2]
    padded = np.empty((h + 2, w + 2, pixels.shape[2]), pixels.dtype)
    padded[1:-1, 1:-1] = pixels
    padded[0, 1:-1], padded[-1, 1:-1] = pixels[0], pixels[-1]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    windows = (padded[di : di + h, dj : dj + w] for di in range(3) for dj in range(3))
    return sum(windows, np.zeros_like(pixels)) / 9.0


class ToyMediaDomain(DomainBinding):
    name = "toy_media"
    # Every constant an external implementation needs to reproduce the
    # descriptors and coherence bit-exactly.
    constants = {
        "vocabulary_size": VOCAB,
        "topic_count": TOPICS,
        "token_length_range": [MIN_TOKENS, MAX_TOKENS],
        "classification_threshold": CLASSIFY_THRESHOLD,
        "topic_rows": TOPIC_ROWS.tolist(),
        "edge_threshold": EDGE_THRESHOLD,
        "complexity_bin_thresholds": list(COMPLEXITY_BIN_THRESHOLDS),
        "colourfulness_bin_thresholds": list(COLOURFULNESS_BIN_THRESHOLDS),
        "colourfulness_scale": COLOURFULNESS_SCALE,
        "projection_seed": PROJECTION_SEED,
        "projection": PROJECTION.tolist(),
        "image_vector_layout": list(IMAGE_VECTOR_LAYOUT),
    }
    distances = {"topic_posterior": token_posterior}

    def __init__(self, width: int = 32, height: int = 32, noise_sigma: float = 0.1):
        self.width = require_int("width", width, 3)
        self.height = require_int("height", height, 3)
        self.noise_sigma = require_finite("noise_sigma", noise_sigma)

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return (TOPICS, 16)

    def _sample_text(self, topic: int, length: int, rng: np.random.Generator) -> np.ndarray:
        return _TOPIC_CDFS[topic].searchsorted(rng.random(length), side="right")

    def generate(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        topic = int(rng.integers(TOPICS))
        length = int(rng.integers(MIN_TOKENS, MAX_TOKENS + 1))
        tokens = self._sample_text(topic, length, rng)
        return tokens, rng.random((self.height, self.width, 3))

    def _vary_text(self, parent_tokens: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < FULL_MUTATION_PROB:
            topic = int(rng.integers(TOPICS))
            length = int(rng.integers(MIN_TOKENS, MAX_TOKENS + 1))
            return self._sample_text(topic, length, rng)
        n = len(parent_tokens)
        split = int(rng.integers(n // 3, 2 * n // 3 + 1))
        top = int(np.argmax(preferred_token_counts(parent_tokens)))
        suffix = self._sample_text(top, n - split, rng)
        return np.concatenate([parent_tokens[:split], suffix])

    def _vary_image(self, parent_pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noisy = parent_pixels + rng.normal(0.0, self.noise_sigma, parent_pixels.shape)
        return box_blur(np.clip(noisy, 0.0, 1.0, out=noisy))

    def vary(self, modality: int, parent: Solution, rng: np.random.Generator) -> np.ndarray:
        payload = parent.artefacts[modality].payload
        if modality == 0:
            return self._vary_text(payload, rng)
        return self._vary_image(payload, rng)

    def describe(self, modality: int, payload: np.ndarray) -> int | None:
        return self.analyse(modality, payload)[0]

    def cohere(self, payloads: tuple[np.ndarray, ...]) -> float:
        return combine_features(text_features(payloads[0]), image_analysis(payloads[1])[2])

    def features(self, modality: int, payload: np.ndarray) -> tuple[np.ndarray, float]:
        if modality == 0:
            return text_features(payload)
        return image_analysis(payload)[2]

    def analyse(self, modality: int, payload: np.ndarray) -> tuple[int | None, tuple | None]:
        if modality == 0:
            return text_analysis(payload)
        bin_index, _, features = image_analysis(payload)
        return bin_index, features

    def combine(self, features: tuple[tuple[np.ndarray, float], ...]) -> float:
        return combine_features(features[0], features[1])
