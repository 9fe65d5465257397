"""Independent straight-line reimplementations used as oracles: the
vector-pair search step for step-procedure tests, UCB parent selection
over plain counters for the selection tests, and a pair-by-pair
distance matrix, PAM k-medoids and the medoids report for the analysis
tests, per-item diversity and point-by-point PAM assignment for the
array-pass analysis tests, the per-element payload encoding, the
per-field metrics writer, the line-by-line metrics reader and the
field-by-field archive loader for the serialization tests, the two-pass
toy_media bin and features and the preferred-token counts and text
features for the one-pass analysis tests, and the stepwise toy_media
image kernels for the flat-slice kernel tests.

Nothing here imports the library's step code. Only the archive loader
builds the library's Archive, and calls its ``check`` as the library's
loader does; elsewhere archive state is a plain dict mapping coords ->
(fitness, text_payload, visual_payload) and every rule (selection order,
mutation draws, binning, coherence, the candidate walk) is written out
directly from first principles. rng consumption mirrors the library's
documented contract: one integers draw per uniform selection over sorted
occupied cells, one integers draw for the modality, one uniform for the
mutation branch, then one vector draw.
"""
from __future__ import annotations

import base64
import math
import struct
from pathlib import Path
from typing import Any, Callable, Container

import numpy as np

from melita.archive import Archive, Cell
from melita.checks import require_int
from melita.domains.common import bin4, mean, norm
from melita.domains.toy_media import (
    COLOURFULNESS_BIN_THRESHOLDS,
    COLOURFULNESS_SCALE,
    COMPLEXITY_BIN_THRESHOLDS,
    EDGE_THRESHOLD,
    PROJECTION,
    TOPIC_ROWS,
    TOPICS,
    VOCAB,
    topic_posterior,
)
from melita.harness.serialize import decode_payload
from melita.types import Artefact, Solution

AXES = (16, 16)
DIMS = 8
SIGMA = 0.3
FULL_PROB = 0.2


def describe_text(t: np.ndarray) -> int | None:
    if t[0] == 0.0 and t[1] == 0.0:
        return None
    theta = math.atan2(t[1], t[0])
    return min(15, int(16 * (theta + math.pi) / (2 * math.pi)))


def _bin4(x: float, a: float, b: float, c: float) -> int:
    if x < a:
        return 0
    if x < b:
        return 1
    if x < c:
        return 2
    return 3


def describe_visual(v: np.ndarray) -> int:
    norm_bin = _bin4(float(np.linalg.norm(v)), 1.0, 2.0, 3.0)
    roughness = float(np.mean(np.abs(np.diff(v))))
    return 4 * norm_bin + _bin4(roughness, 0.5, 1.0, 1.5)


def cohere(t: np.ndarray, v: np.ndarray) -> float:
    tn = float(np.linalg.norm(t))
    vn = float(np.linalg.norm(v))
    cos = float(np.dot(t, v)) / (tn * vn)
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


def generate_replay(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    vectors = []
    for _ in range(2):
        values = rng.standard_normal(DIMS)
        while float(np.linalg.norm(values)) < 1e-9:
            values = rng.standard_normal(DIMS)
        vectors.append(values)
    return vectors[0], vectors[1]


def vary_replay(rng: np.random.Generator, parent_payload: np.ndarray) -> np.ndarray:
    if rng.random() < FULL_PROB:
        return rng.standard_normal(DIMS)
    return parent_payload + rng.normal(0.0, SIGMA, DIMS)


def characterize(t: np.ndarray, v: np.ndarray):
    """(coords, fitness, t, v) or None when the text axis is undefined."""
    bt = describe_text(t)
    if bt is None:
        return None
    return ((bt, describe_visual(v)), cohere(t, v), t, v)


def insert(cells: dict, entry) -> tuple[str, tuple | None]:
    coords, fitness, t, v = entry
    held = cells.get(coords)
    if held is None:
        cells[coords] = (fitness, t, v)
        return "inserted_empty", coords
    if fitness > held[0]:
        cells[coords] = (fitness, t, v)
        return "replaced", coords
    return "rejected", None


def seed(cells: dict, rng: np.random.Generator, count: int) -> None:
    for _ in range(count):
        entry = characterize(*generate_replay(rng))
        if entry is not None:
            insert(cells, entry)


def select_uniform_replay(cells: dict, rng: np.random.Generator) -> tuple:
    occupied = sorted(cells)
    return occupied[int(rng.integers(len(occupied)))]


def select_ucb(counters: dict, total: int, rng: np.random.Generator, c: float) -> tuple:
    """UCB1 over ``{coords: (n, inserted)}``, one cell at a time in sorted
    order: a never-selected cell first, else the highest
    ``inserted / n + c * sqrt(2 ln max(total, 1) / n)``, with one integers
    draw over the unvisited cells or over the exact ties."""
    occupied = sorted(counters)
    unvisited = [coords for coords in occupied if counters[coords][0] == 0]
    if unvisited:
        return unvisited[int(rng.integers(len(unvisited)))]
    two_log_t = 2.0 * math.log(max(total, 1))
    best_score, best = -math.inf, []
    for coords in occupied:
        n, inserted = counters[coords]
        score = inserted / n + c * math.sqrt(two_log_t / n)
        if score > best_score:
            best_score, best = score, [coords]
        elif score == best_score:
            best.append(coords)
    return best[int(rng.integers(len(best)))]


def _offspring(cells: dict, rng: np.random.Generator):
    """Shared stochastic prefix; returns None for an unclassifiable child."""
    parent_coords = select_uniform_replay(cells, rng)
    _, pt, pv = cells[parent_coords]
    m = int(rng.integers(2))
    mutated = vary_replay(rng, pt if m == 0 else pv)
    if m == 0:
        new_bin = describe_text(mutated)
        if new_bin is None:
            return None
        t, v = mutated, pv
        coords = (new_bin, parent_coords[1])
    else:
        new_bin = describe_visual(mutated)
        t, v = pt, mutated
        coords = (parent_coords[0], new_bin)
    return m, mutated, new_bin, (coords, cohere(t, v), t, v)


def vanilla_step(cells: dict, rng: np.random.Generator) -> tuple[str, tuple | None]:
    prefix = _offspring(cells, rng)
    if prefix is None:
        return "offspring_invalid", None
    return insert(cells, prefix[3])


def melita_step(cells: dict, rng: np.random.Generator) -> tuple[str, tuple | None, int]:
    """The transverse step's outcome kind, changed cell and number of
    scored members: the direct offspring and every row recombination
    not payload-identical to it, all scored before any is compared."""
    prefix = _offspring(cells, rng)
    if prefix is None:
        return "offspring_invalid", None, 0
    m, mutated, new_bin, offspring = prefix

    candidates = [(offspring, True)]
    for coords in sorted(cells):
        if coords[m] != new_bin:
            continue
        fitness, et, ev = cells[coords]
        t, v = (mutated, ev) if m == 0 else (et, mutated)
        same = np.array_equal(t, offspring[2]) and np.array_equal(v, offspring[3])
        if same:
            continue
        candidates.append(((coords, cohere(t, v), t, v), False))

    candidates.sort(key=lambda item: (-item[0][1], 0 if item[1] else 1, item[0][0]))
    for entry, _ in candidates:
        held = cells.get(entry[0])
        if held is None or entry[1] > held[0]:
            return (*insert(cells, entry), len(candidates))
    return "rejected", None, len(candidates)


def assert_same_archive(archive, cells: dict) -> None:
    """Compare a library Archive against oracle state, exactly."""
    lib = {coords: archive.cells[coords].solution for coords in archive.cells}
    assert sorted(lib) == sorted(cells), (sorted(lib), sorted(cells))
    for coords, solution in lib.items():
        fitness, t, v = cells[coords]
        assert solution.fitness == fitness, (coords, solution.fitness, fitness)
        assert np.array_equal(solution.artefacts[0].payload, t), coords
        assert np.array_equal(solution.artefacts[1].payload, v), coords


def distance_matrix(items, distance) -> np.ndarray:
    """float64 matrix of ``distance(items[i], items[j])``, filled one pair
    i < j at a time in row order, mirrored, with a zero diagonal."""
    n = len(items)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = distance(items[i], items[j])
    return matrix


def diversity(matrix):
    """(per-item mean, per-item nearest, mean of means, mean of nearest,
    single item) of a distance matrix, one row at a time: each item's
    off-diagonal entries in column order, their fsum over n - 1 and the
    first of the least by Python ``min``."""
    rows = np.asarray(matrix, dtype=np.float64).tolist()
    n = len(rows)
    if n == 1:
        return (0.0,), (0.0,), 0.0, 0.0, True
    per_mean = tuple(math.fsum(row[j] for j in range(n) if j != i) / (n - 1) for i, row in enumerate(rows))
    per_nearest = tuple(min(row[j] for j in range(n) if j != i) for i, row in enumerate(rows))
    return per_mean, per_nearest, math.fsum(per_mean) / n, math.fsum(per_nearest) / n, False


def assign(rows, medoids):
    """(labels, cost) of PAM's assignment over a distance matrix given as
    nested lists, one point at a time: each point goes to its nearest
    medoid, ties to the lowest medoid position, and the cost adds the
    chosen distances in point order from 0.0."""
    labels = []
    cost = 0.0
    for i in range(len(rows)):
        best = min(range(len(medoids)), key=lambda m: (rows[i][medoids[m]], m))
        labels.append(best)
        cost += rows[i][medoids[best]]
    return labels, cost


def k_medoids(matrix, k: int, rng: np.random.Generator):
    """PAM over a distance matrix, as (medoids, labels, cost). Every
    (slot, candidate) swap is scored by a full reassignment (``assign``);
    a swap is kept only if it lowers the best cost so far by more than
    1e-12, and the kept swap is applied until none is."""
    matrix = np.asarray(matrix, dtype=np.float64).tolist()
    n = len(matrix)
    medoids = sorted(int(m) for m in rng.choice(n, size=k, replace=False))
    labels, cost = assign(matrix, medoids)
    while True:
        best_swap = None
        best_cost = cost
        for slot in range(k):
            for candidate in range(n):
                if candidate in medoids:
                    continue
                trial = list(medoids)
                trial[slot] = candidate
                _, trial_cost = assign(matrix, trial)
                if trial_cost < best_cost - 1e-12:
                    best_cost = trial_cost
                    best_swap = (slot, candidate)
        if best_swap is None:
            break
        medoids[best_swap[0]] = best_swap[1]
        labels, cost = assign(matrix, medoids)
    return tuple(medoids), tuple(labels), cost


def medoid_exemplars(solutions, k: int, weights, seed: int):
    """(total cost, cluster per elite) of the harness's medoids report,
    straight from the payloads: each pair's distance is the square root
    of the correctly rounded sum of w * norm(a - b) ** 2 over the
    modalities of nonzero weight, computed one pair at a time."""

    def distance(a, b):
        parts = []
        for m, w in enumerate(weights):
            if w != 0:
                x = np.asarray(a.artefacts[m].payload, dtype=np.float64).ravel()
                y = np.asarray(b.artefacts[m].payload, dtype=np.float64).ravel()
                parts.append(w * float(np.linalg.norm(x - y)) ** 2)
        return math.sqrt(math.fsum(parts))

    matrix = distance_matrix(solutions, distance)
    _, labels, cost = k_medoids(matrix, k, np.random.default_rng(seed))
    return cost, labels


def encode_payload(payload):
    """The archive JSON value of a payload, built one element at a time
    with ``float(v)`` or ``int(v)``; an image's pixels are the base64 of
    each value packed as a little-endian double, in row-major order."""
    arr = np.asarray(payload)
    if arr.ndim == 3 and arr.shape[2] == 3:
        packed = b"".join(struct.pack("<d", float(v)) for v in arr.reshape(-1))
        return {
            "width": int(arr.shape[1]),
            "height": int(arr.shape[0]),
            "pixels": base64.b64encode(packed).decode("ascii"),
        }
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        return [int(v) for v in arr]
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.floating):
        return [float(v) for v in arr]
    raise ValueError(f"no payload encoding for array with shape {arr.shape} and dtype {arr.dtype}")


METRICS_HEADER = "step,coverage,mean_fitness,max_fitness,qd_score"


def metrics_text(samples) -> str:
    """A metrics CSV's text, each field formatted on its own."""
    rows = [f"{s[0]},{s[1]:.9g},{s[2]:.9g},{s[3]:.9g},{s[4]:.9g}\n" for s in samples]
    return METRICS_HEADER + "\n" + "".join(rows)


def load_metrics(path):
    """A metrics CSV's rows as (step, coverage, mean, max, qd) tuples, read
    line by line; the first malformed line raises, naming file and line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: missing metrics header {METRICS_HEADER!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            step, coverage, mean_f, max_f, qd = line.split(",")
            rows.append((int(step), float(coverage), float(mean_f), float(max_f), float(qd)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    return rows


def _field(data: object, name: str, convert: Callable[[Any], Any], where: str = "") -> Any:
    """``convert(data[name])``; a missing or malformed field raises ValueError
    naming it, followed by ``where`` it is, such as " of cell 3"."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with field {name!r}{where}, got {type(data).__name__}")
    if name not in data:
        raise ValueError(f"missing field {name!r}{where}")
    try:
        return convert(data[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {name!r}{where}: {exc}") from None


def _artefact(data: object, modalities: Container[int] | None, where: str) -> Artefact:
    modality = _field(data, "modality", lambda v: require_int("modality", v, 0), where)
    decode = decode_payload if modalities is None or modality in modalities else lambda v: None
    return Artefact(modality, _field(data, "payload", decode, where))


def archive_from_dict(data: dict, *, modalities: Container[int] | None = None) -> Archive:
    """The archive ``data`` describes, only ``modalities``' payloads decoded (all when None;
    others load as None). A missing or malformed field raises ValueError naming it and, in
    a cell, the cell's index, as do repeated coords and artefacts out of modality order."""
    archive = Archive(_field(data, "axis_sizes", lambda v: [require_int("axis size", s, 1) for s in v]))
    for index, entry in enumerate(_field(data, "cells", list)):
        where = f" of cell {index}"
        artefacts = tuple([_artefact(a, modalities, where) for a in _field(entry, "artefacts", list, where)])
        coords = _field(entry, "coords", tuple, where)
        if not set(map(type, coords)) <= {int}:  # a bool is not an int here
            raise ValueError(f"field 'coords' of cell {index}: expected integers, got {entry['coords']!r}")
        if type(fitness := _field(entry, "fitness", lambda v: v, where)) not in (float, int):
            raise ValueError(f"field 'fitness' of cell {index}: expected a number, got {fitness!r}")
        try:
            archive.check(solution := Solution(artefacts, float(fitness), coords))
        except OverflowError as exc:  # an integer fitness beyond float range
            raise ValueError(f"field 'fitness' of cell {index}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"cell {index}: {exc}") from None
        if coords in archive.cells:
            earlier = list(archive.cells).index(coords)
            raise ValueError(f"field 'coords' of cell {index}: {list(coords)} repeats cell {earlier}")
        birth_step = _field(entry, "birth_step", lambda v: require_int("birth_step", v, 0), where)
        archive.cells[coords] = Cell(solution, birth_step)
    return archive


def _luminance(pixels: np.ndarray) -> np.ndarray:
    return 0.299 * pixels[..., 0] + 0.587 * pixels[..., 1] + 0.114 * pixels[..., 2]


def _edge_fraction(pixels: np.ndarray) -> float:
    y = _luminance(pixels)
    tl, tc, tr = y[:-2, :-2], y[:-2, 1:-1], y[:-2, 2:]
    ml, mr = y[1:-1, :-2], y[1:-1, 2:]
    bl, bc, br = y[2:, :-2], y[2:, 1:-1], y[2:, 2:]
    gx = (tr + 2.0 * mr + br - tl - 2.0 * ml - bl) / 4.0
    gy = (bl + 2.0 * bc + br - tl - 2.0 * tc - tr) / 4.0
    magnitude = np.hypot(gx, gy)
    return float(np.count_nonzero(magnitude > EDGE_THRESHOLD)) / magnitude.size


def _colourfulness(pixels: np.ndarray) -> float:
    r = pixels[..., 0] * 255.0
    g = pixels[..., 1] * 255.0
    b = pixels[..., 2] * 255.0
    rg = r - g
    yb = 0.5 * (r + g) - b
    sigma = math.hypot(float(np.std(rg)), float(np.std(yb)))
    mu = math.hypot(float(np.mean(rg)), float(np.mean(yb)))
    return sigma + 0.3 * mu


def media_image_analysis(pixels: np.ndarray):
    """toy_media's image bin and coherence features, ``(bin, (M @ vector,
    norm))``, in two passes: the bin from its own Sobel pass and
    colourfulness, then the 16-statistic vector with a Sobel pass and a
    luminance array per quadrant and another global Sobel pass and
    colourfulness."""
    complexity = _bin4(_edge_fraction(pixels), *COMPLEXITY_BIN_THRESHOLDS)
    bin_index = 4 * complexity + _bin4(_colourfulness(pixels), *COLOURFULNESS_BIN_THRESHOLDS)

    y = _luminance(pixels)
    h2, w2 = pixels.shape[0] // 2, pixels.shape[1] // 2
    quads = [pixels[:h2, :w2], pixels[:h2, w2:], pixels[h2:, :w2], pixels[h2:, w2:]]
    vector = [float(np.mean(_luminance(q))) for q in quads]
    for q in quads:
        vector.append(_edge_fraction(q) if q.shape[0] >= 3 and q.shape[1] >= 3 else 0.0)
    for ch in range(3):
        vector.append(float(np.mean(pixels[..., ch])))
    vector.append(min(_colourfulness(pixels) / COLOURFULNESS_SCALE, 1.0))
    vector.append(_edge_fraction(pixels))
    vector.append(float(np.std(y)))
    vector.append(float(np.mean(np.abs(y[:, 1:] - y[:, :-1]))))
    vector.append(float(np.max(y) - np.min(y)))
    mapped = PROJECTION @ np.array(vector, dtype=np.float64)
    return bin_index, (mapped, float(np.linalg.norm(mapped)))


def preferred_token_counts(tokens: np.ndarray) -> np.ndarray:
    counts = np.bincount(tokens, minlength=VOCAB)
    return counts.reshape(TOPICS, 4).sum(axis=1)


def text_features(tokens: np.ndarray) -> tuple[np.ndarray, float]:
    """A text's coherence features: its topic posterior and its norm."""
    e_txt = topic_posterior(tokens)
    return e_txt, norm(e_txt)


def media_text_analysis(tokens: np.ndarray, threshold: float):
    """toy_media's text bin and coherence features, ``(bin, (posterior,
    norm))``: the top topic when its preferred-token count is unique and
    its posterior reaches ``threshold``, else ``(None, None)``."""
    counts = np.bincount(tokens, minlength=TOPIC_ROWS.shape[1])
    preferred = counts.reshape(TOPIC_ROWS.shape[0], 4).sum(axis=1)
    top = int(np.argmax(preferred))
    loglik = np.log(TOPIC_ROWS) @ counts.astype(np.float64)
    shifted = np.exp(loglik - loglik.max())
    posterior = shifted / shifted.sum()
    if int((preferred == preferred[top]).sum()) > 1 or posterior[top] < threshold:
        return None, None
    return top, (posterior, float(np.linalg.norm(posterior)))


# ------------------------------------------- toy_media image kernels, stepwise

# The array-at-a-time image kernels, one numpy expression per formula: the
# library's flat-slice kernels must match them bit for bit.


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


def box_blur(pixels: np.ndarray) -> np.ndarray:
    """3x3 box blur with edge replication, per channel."""
    h, w = pixels.shape[:2]
    padded = np.empty((h + 2, w + 2, pixels.shape[2]), pixels.dtype)
    padded[1:-1, 1:-1] = pixels
    padded[0, 1:-1], padded[-1, 1:-1] = pixels[0], pixels[-1]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    windows = (padded[di : di + h, dj : dj + w] for di in range(3) for dj in range(3))
    return sum(windows, np.zeros_like(pixels)) / 9.0
