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

The image kernels (``image_analysis``, ``box_blur``) give the bits of
the plain array-at-a-time formulas (luminance, colourfulness,
``np.mean``, the nine-term window sum) in fewer passes over contiguous
data. They rely on four rules:
- An elementwise operation gives the same bits whatever the memory
  layout and whether it writes in place, so each element only keeps its
  operations in order: the Sobel and blur terms are flat slices at row
  offsets, summed in place in the formula's order.
- ``np.add.reduce`` sums a C-contiguous array's row (axis=1), the whole
  of a C-contiguous array (axis=None) and a strided 1-D view in the same
  pairwise order, so one row reduce of the (3, h*w) planes gives the
  channel means, and two of the luminance, rg and yb rows give their
  means and standard deviations. A quadrant is summed as a contiguous
  copy.
- Python-float scalars are weak (NEP 50), so a float32 image stays
  float32 throughout, as in the plain formulas.
- The blur's sum starts from zero, which maps -0.0 to 0.0; padding by
  adding 0 does the same, so the sum can start from its first two terms.

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
  draws split = integers(len//3, 2*len//3 + 1), then tokens(len-split, bin),
  bin being the parent's text bin, which is its top topic.
- vary image: normal(0, sigma, (h, w, 3)); the blur draws nothing. The
  noise draw happens even when sigma is 0 so the stream shape is stable.
"""
from __future__ import annotations

import math

import numpy as np

from ..binding import SplitBinding
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
# Largest image width or height: one 1024x1024 image is 24 MiB of float64.
MAX_SIDE = 1024

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


def _posterior(counts: np.ndarray) -> np.ndarray:
    loglik = _LOG_TOPIC_ROWS @ counts.astype(np.float64)
    shifted = np.exp(loglik - loglik.max())
    return shifted / shifted.sum()


def topic_posterior(tokens: np.ndarray) -> np.ndarray:
    """Posterior over topics under a uniform prior; sums to 1."""
    return _posterior(np.bincount(tokens, minlength=VOCAB))


def token_posterior(payload: np.ndarray) -> np.ndarray:
    """The ``topic_posterior`` analysis embedding: a stored payload's topic
    posterior, or a ValueError when it is not a token array."""
    tokens = np.asarray(payload)
    if tokens.ndim != 1 or tokens.dtype.kind not in "iu" or np.any((tokens < 0) | (tokens >= VOCAB)):
        raise ValueError(f"payload is not a 1-D integer token array in [0, {VOCAB})")
    return topic_posterior(tokens)


def text_analysis(tokens: np.ndarray) -> tuple[int | None, tuple[np.ndarray, float] | None]:
    """A text's bin and, when it has one, its coherence features: its
    topic posterior and that posterior's norm.

    The bin is the top topic if it is unique with posterior >= 0.40. The
    posterior ordering depends only on how many preferred tokens of each
    topic appear, so ties are detected on those integer counts and are
    exact. One token count gives both the preferred counts and the
    posterior.
    """
    counts = np.bincount(tokens, minlength=VOCAB)
    pref = counts.reshape(TOPICS, 4).sum(axis=1)
    top = int(np.argmax(pref))
    if int((pref == pref[top]).sum()) > 1:
        return None, None
    posterior = _posterior(counts)
    return (top, (posterior, norm(posterior))) if posterior[top] >= CLASSIFY_THRESHOLD else (None, None)


def image_analysis(pixels: np.ndarray) -> tuple[int, np.ndarray, tuple[np.ndarray, float]]:
    """An image's bin (edge complexity crossed with colourfulness), its
    IMAGE_VECTOR_LAYOUT statistics, and its coherence features: M @ vector
    and that vector's norm.

    Gradients come from the 3x3 Sobel pair divided by 4, so a unit step
    edge measures exactly 1; an edge is a magnitude above EDGE_THRESHOLD.
    Border pixels count in neither the edges nor the denominator. A
    quadrant's interior gradients are the same elementwise operations on
    the same luminance values, so its edges are a slice of the image's
    mask; a quadrant under 3x3 counts 0.0.

    The statistics are those of the plain luminance, Hasler-Susstrunk
    colourfulness and ``np.mean`` formulas on the pixels read C-ordered,
    bit for bit, so none depends on the memory layout (see the module
    docstring for how).
    """
    h, w = pixels.shape[:2]
    if h < 3 or w < 3:
        raise ValueError(f"edge complexity needs at least 3x3 pixels, got {h}x{w}")
    n = h * w
    planes = np.ascontiguousarray(pixels.transpose(2, 0, 1)[:3]).reshape(3, n)
    scaled = planes * 255.0
    rows = np.empty_like(scaled)  # luminance, rg and yb
    y, rg, yb = rows
    np.multiply(planes[0], 0.299, out=y)
    y += np.multiply(planes[1], 0.587, out=rg)
    y += np.multiply(planes[2], 0.114, out=rg)
    np.subtract(scaled[0], scaled[1], out=rg)
    np.add(scaled[0], scaled[1], out=yb)
    yb *= 0.5
    yb -= scaled[2]
    means = np.add.reduce(rows, axis=1) / n
    centred = np.subtract(rows, means[:, None], out=scaled)
    stds = np.sqrt(np.add.reduce(np.square(centred, out=centred), axis=1) / n)
    colour = math.hypot(float(stds[1]), float(stds[2])) + 0.3 * math.hypot(float(means[1]), float(means[2]))

    # Sobel terms are flat slices of y at row offsets; a slice's last two
    # columns per row wrap into the next row and are dropped.
    span = (h - 2) * w - 2
    twice = 2.0 * y
    grads = np.empty((2, (h - 2) * w), rows.dtype)
    gx, gy = grads[:, :span]

    def at(a: np.ndarray, i: int, j: int) -> np.ndarray:
        return a[i * w + j : i * w + j + span]

    np.add(at(y, 0, 2), at(twice, 1, 2), out=gx)
    gx += at(y, 2, 2)
    gx -= at(y, 0, 0)
    gx -= at(twice, 1, 0)
    gx -= at(y, 2, 0)
    np.add(at(y, 2, 0), at(twice, 2, 1), out=gy)
    gy += at(y, 2, 2)
    gy -= at(y, 0, 0)
    gy -= at(twice, 0, 1)
    gy -= at(y, 0, 2)
    grads[:, :span] /= 4.0
    np.hypot(gx, gy, out=gx)
    edges = grads[0].reshape(h - 2, w)[:, : w - 2] > EDGE_THRESHOLD

    complexity = _fraction(edges)
    y = y.reshape(h, w)
    h2, w2 = h // 2, w // 2
    quads = ((0, h2, 0, w2), (0, h2, w2, w), (h2, h, 0, w2), (h2, h, w2, w))
    stats = [float(mean(y[r0:r1, c0:c1].copy())) for r0, r1, c0, c1 in quads]
    stats += [
        _fraction(edges[r0 : r1 - 2, c0 : c1 - 2]) if min(r1 - r0, c1 - c0) >= 3 else 0.0
        for r0, r1, c0, c1 in quads
    ]
    stats += (np.add.reduce(planes, axis=1) / n).tolist()
    stats += [min(colour / COLOURFULNESS_SCALE, 1.0), complexity, float(stds[0])]
    step = np.subtract(y[:, 1:], y[:, :-1])
    y_range = np.maximum.reduce(y, axis=None) - np.minimum.reduce(y, axis=None)
    stats += [float(mean(np.abs(step, out=step))), float(y_range)]
    vector = np.array(stats, dtype=np.float64)
    mapped = PROJECTION @ vector
    bin_index = 4 * bin4(complexity, COMPLEXITY_BIN_THRESHOLDS) + bin4(colour, COLOURFULNESS_BIN_THRESHOLDS)
    return bin_index, vector, (mapped, norm(mapped))


def _fraction(mask: np.ndarray) -> float:
    return float(np.count_nonzero(mask)) / mask.size


def combine_features(features: tuple[tuple[np.ndarray, float], ...]) -> float:
    """(1 + cos(M @ e_img, e_txt)) / 2 from the text and image features,
    or a neutral 0.5 if a norm is zero."""
    (e_txt, tn), (mapped, mn) = features
    if tn == 0.0 or mn == 0.0:
        return 0.5
    cos = float(mapped.dot(e_txt)) / (tn * mn)
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


def box_blur(pixels: np.ndarray) -> np.ndarray:
    """3x3 box blur with edge replication, per channel: the nine window
    terms summed in row-major order from zero, then divided by 9.

    The windows are flat slices of the padded image at row offsets; each
    output row's last two padded columns wrap into the next row and are
    dropped. Adding 0 when padding maps -0.0 to 0.0, as the sum from zero
    does, so the chain can start from the first two terms.
    """
    h, w, c = pixels.shape
    padded = np.empty((h + 2, w + 2, c), pixels.dtype)
    np.add(pixels, 0, out=padded[1:-1, 1:-1])
    padded[0, 1:-1], padded[-1, 1:-1] = padded[1, 1:-1], padded[-2, 1:-1]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    flat = padded.reshape(-1)
    row = (w + 2) * c
    span = h * row - 2 * c
    sums = np.empty(h * row, pixels.dtype)
    total = sums[:span]
    np.add(flat[:span], flat[c : c + span], out=total)  # windows (0, 0) and (0, 1)
    for start in (2 * c, row, row + c, row + 2 * c, 2 * row, 2 * row + c, 2 * row + 2 * c):
        total += flat[start : start + span]  # windows (0, 2) to (2, 2), row-major
    return np.divide(sums.reshape(h, w + 2, c)[:, :w], 9.0)


class ToyMediaDomain(SplitBinding):
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
        self.width = require_int("width", width, 3, MAX_SIDE)
        self.height = require_int("height", height, 3, MAX_SIDE)
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

    def _vary_text(self, parent: Solution, rng: np.random.Generator) -> np.ndarray:
        if rng.random() < FULL_MUTATION_PROB:
            topic = int(rng.integers(TOPICS))
            length = int(rng.integers(MIN_TOKENS, MAX_TOKENS + 1))
            return self._sample_text(topic, length, rng)
        parent_tokens = parent.artefacts[0].payload
        n = len(parent_tokens)
        split = int(rng.integers(n // 3, 2 * n // 3 + 1))
        # The parent's text bin is its unique top topic (see text_analysis).
        suffix = self._sample_text(parent.coords[0], n - split, rng)
        return np.concatenate([parent_tokens[:split], suffix])

    def _vary_image(self, parent_pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noisy = parent_pixels + rng.normal(0.0, self.noise_sigma, parent_pixels.shape)
        return box_blur(np.clip(noisy, 0.0, 1.0, out=noisy))

    def vary(self, modality: int, parent: Solution, rng: np.random.Generator) -> np.ndarray:
        if modality == 0:
            return self._vary_text(parent, rng)
        return self._vary_image(parent.artefacts[1].payload, rng)

    def analyse(self, modality: int, payload: np.ndarray) -> tuple[int | None, tuple | None]:
        if modality == 0:
            return text_analysis(payload)
        bin_index, _, features = image_analysis(payload)
        return bin_index, features

    combine = staticmethod(combine_features)
