import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from melita import ToyMediaDomain, characterize
from melita.domains import toy_media
from melita.domains.toy_media import (
    CLASSIFY_THRESHOLD,
    COLOURFULNESS_SCALE,
    EDGE_THRESHOLD,
    IMAGE_VECTOR_LAYOUT,
    MAX_SIDE,
    MAX_TOKENS,
    MIN_TOKENS,
    PROJECTION,
    PROJECTION_SEED,
    TOPIC_ROWS,
    TOPICS,
    VOCAB,
    box_blur,
    combine_features,
    image_analysis,
    splitmix64_stream,
    text_analysis,
    topic_posterior,
)

import oracles
from oracles import colourfulness, luminance, preferred_token_counts, text_features


def media_coherence(tokens, pixels):
    """The formula the binding's ``combine`` takes, on features that
    exist for an unclassified text too."""
    return combine_features((text_features(tokens), image_analysis(pixels)[2]))


def parent_solution(domain, seed):
    return characterize(domain, domain.generate(np.random.default_rng(seed)))


def gray(value, h=8, w=8):
    return np.full((h, w, 3), value, dtype=np.float64)


def solid(r, g, b, h=8, w=8):
    return np.tile(np.array([r, g, b], dtype=np.float64), (h, w, 1))


def checkerboard(h=8, w=8):
    y, x = np.indices((h, w))
    cell = ((x + y) % 2).astype(np.float64)
    return np.stack([cell, cell, cell], axis=-1)


def half_black_white(h=8, w=8):
    img = np.zeros((h, w, 3))
    img[:, w // 2 :] = 1.0
    return img


def edge_complexity(pixels):
    """The fraction of interior pixels with an edge, from the image statistics."""
    return float(image_analysis(pixels)[1][IMAGE_VECTOR_LAYOUT.index("global_edge_complexity")])


# ---------------------------------------------------------------- text model


def test_topic_rows_are_distributions():
    assert TOPIC_ROWS.shape == (16, 64)
    for k in range(TOPICS):
        assert math.fsum(TOPIC_ROWS[k]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(TOPIC_ROWS[k, 4 * k : 4 * k + 4] == 0.2)


def test_preferred_token_counts():
    tokens = np.array([0, 1, 2, 3, 4, 12, 12, 63])
    counts = preferred_token_counts(tokens)
    assert counts[0] == 4  # tokens 0..3
    assert counts[1] == 1  # token 4
    assert counts[3] == 2  # token 12 twice
    assert counts[15] == 1  # token 63
    assert counts.sum() == len(tokens)


def test_posterior_single_preferred_token():
    # One preferred token: likelihood 0.2 for its topic, 1/300 elsewhere,
    # so the posterior is 0.2 / (0.2 + 15/300) = 0.8.
    post = topic_posterior(np.array([12]))
    assert post[3] == pytest.approx(0.8, abs=1e-12)
    for k in range(TOPICS):
        if k != 3:
            assert post[k] == pytest.approx(0.2 / 15, abs=1e-12)


def test_posterior_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(100):
        tokens = rng.integers(0, VOCAB, size=int(rng.integers(8, 65)))
        post = topic_posterior(tokens)
        assert math.fsum(post) == pytest.approx(1.0, abs=1e-9)
        assert np.all(post >= 0)


def test_classify_unique_max():
    assert text_analysis(np.array([0, 1, 4]))[0] == 0
    assert text_analysis(np.array([20, 21, 22, 23, 0]))[0] == 5


def test_classify_tie_is_none():
    assert text_analysis(np.array([0, 4]))[0] is None  # topics 0 and 1 tie
    assert text_analysis(np.array([0, 1, 4, 5]))[0] is None
    assert text_analysis(np.array([32, 36, 40, 44]))[0] is None  # 4-way tie


def test_unique_max_always_passes_threshold():
    # Each preferred token multiplies one topic's likelihood by 60, so a
    # unique count maximum forces that topic's posterior to at least
    # 60/(60+15) = 0.8, beyond the 0.40 threshold. Classification is
    # therefore decided purely by the tie check.
    assert CLASSIFY_THRESHOLD == 0.40
    rng = np.random.default_rng(6)
    for _ in range(300):
        tokens = rng.integers(0, VOCAB, size=int(rng.integers(8, 65)))
        counts = preferred_token_counts(tokens)
        top = int(np.argmax(counts))
        unique = int((counts == counts[top]).sum()) == 1
        got = text_analysis(tokens)[0]
        if unique:
            assert got == top
            assert topic_posterior(tokens)[top] >= 0.8 - 1e-12
        else:
            assert got is None


# ------------------------------------------------------------- image metrics


def sobel_oracle(pixels, threshold):
    """Per-pixel convolution with the explicit 3x3 Sobel kernels over the
    image interior, independent of the library's sliced implementation."""
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    y = 0.299 * pixels[..., 0] + 0.587 * pixels[..., 1] + 0.114 * pixels[..., 2]
    h, w = y.shape
    edges = 0
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            gx = gy = 0.0
            for di in range(3):
                for dj in range(3):
                    gx += kx[di][dj] * y[i + di - 1, j + dj - 1]
                    gy += ky[di][dj] * y[i + di - 1, j + dj - 1]
            if math.hypot(gx / 4.0, gy / 4.0) > threshold:
                edges += 1
    return edges / ((h - 2) * (w - 2))


def test_edge_complexity_constant_is_zero():
    assert edge_complexity(gray(0.5)) == 0.0
    assert edge_complexity(solid(0.9, 0.1, 0.4)) == 0.0


def test_edge_complexity_step_edge():
    # An 8x8 half-black/half-white image: the two interior columns
    # flanking the step see |gx| = 1, everything else is flat, so
    # 12 of the 36 interior pixels are edges.
    assert edge_complexity(half_black_white()) == pytest.approx(1 / 3)


def test_edge_complexity_checkerboard_is_zero():
    # On a one-pixel checkerboard every Sobel tap pairs cells of equal
    # value two steps apart (same parity), so both gradient components
    # cancel exactly and no pixel is an edge.
    assert edge_complexity(checkerboard()) == 0.0


def test_edge_complexity_matches_convolution_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = int(rng.integers(3, 12))
        w = int(rng.integers(3, 12))
        pixels = rng.random((h, w, 3))
        assert edge_complexity(pixels) == pytest.approx(
            sobel_oracle(pixels, EDGE_THRESHOLD), abs=1e-12
        )


def test_edge_complexity_rejects_tiny_images():
    with pytest.raises(ValueError):
        edge_complexity(np.zeros((2, 8, 3)))


def test_mirror_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pixels = rng.random((9, 7, 3))
        c = edge_complexity(pixels)
        assert edge_complexity(pixels[:, ::-1]) == c
        assert edge_complexity(pixels[::-1, :]) == c
        cf = colourfulness(pixels)
        assert colourfulness(pixels[:, ::-1]) == pytest.approx(cf, rel=1e-12)
        assert colourfulness(pixels[::-1, :]) == pytest.approx(cf, rel=1e-12)


def test_colourfulness_gray_is_zero():
    for value in (0.0, 0.25, 0.5, 1.0):
        assert colourfulness(gray(value)) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(50):
        shades = rng.random((6, 6, 1))
        assert colourfulness(np.repeat(shades, 3, axis=2)) == pytest.approx(
            0.0, abs=1e-9
        )


def test_colourfulness_uniform_red():
    got = colourfulness(solid(1.0, 0.0, 0.0))
    assert got == pytest.approx(85.53, abs=1e-2)
    assert got == pytest.approx(0.3 * math.sqrt(255**2 + 127.5**2), abs=1e-9)


def test_colourfulness_red_blue_pair():
    pixels = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
    got = colourfulness(pixels)
    expected = math.sqrt(127.5**2 + 191.25**2) + 0.3 * math.sqrt(
        127.5**2 + 63.75**2
    )
    assert got == pytest.approx(272.62, abs=1e-2)
    assert got == pytest.approx(expected, abs=1e-9)


def test_describe_image_known_bins():
    assert image_analysis(gray(0.5))[0] == 0
    assert image_analysis(solid(1.0, 0.0, 0.0))[0] == 3  # flat but colourful
    assert image_analysis(half_black_white())[0] == 12  # edgy but gray


# ------------------------------------------------------------------ mutation


def box_blur_oracle(pixels):
    h, w = pixels.shape[:2]
    out = np.zeros_like(pixels)
    for i in range(h):
        for j in range(w):
            acc = np.zeros(3)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    acc += pixels[ii, jj]
            out[i, j] = acc / 9.0
    return out


def test_box_blur_matches_oracle():
    rng = np.random.default_rng(10)
    pixels = rng.random((6, 5, 3))
    assert np.allclose(box_blur(pixels), box_blur_oracle(pixels), atol=1e-12)


def test_box_blur_constant_fixed_point():
    assert np.array_equal(box_blur(gray(0.5)), gray(0.5))
    assert np.allclose(box_blur(gray(0.37)), gray(0.37), atol=1e-12)


def test_vary_image_zero_sigma_is_pure_blur():
    domain = ToyMediaDomain(width=8, height=8, noise_sigma=0.0)
    parent = parent_solution(domain, 11)
    child = domain.vary(1, parent, np.random.default_rng(1))
    assert np.allclose(
        child, box_blur_oracle(parent.artefacts[1].payload), atol=1e-12
    )


def test_vary_image_replays_noise_then_blur():
    domain = ToyMediaDomain(width=8, height=8, noise_sigma=0.1)
    parent = parent_solution(domain, 11)
    rng = np.random.default_rng(21)
    replay = np.random.default_rng(21)
    child = domain.vary(1, parent, rng)
    noise = replay.normal(0.0, 0.1, (8, 8, 3))
    expected = box_blur_oracle(
        np.clip(parent.artefacts[1].payload + noise, 0.0, 1.0)
    )
    assert np.allclose(child, expected, atol=1e-12)
    assert np.all(child >= 0.0) and np.all(child <= 1.0)


def branch_for(state):
    probe = np.random.default_rng(0)
    probe.bit_generator.state = state
    return "full" if probe.random() < 0.2 else "partial"


def test_vary_text_partial_preserves_prefix():
    """The suffix is drawn from the parent's top topic, which is its text bin."""
    domain = ToyMediaDomain(width=8, height=8)
    parents = [p for p in (parent_solution(domain, seed) for seed in range(11, 40)) if p is not None]
    assert len(parents) >= 20
    for parent in parents:
        tokens = parent.artefacts[0].payload
        n = len(tokens)
        top = int(np.argmax(preferred_token_counts(tokens)))
        assert top == parent.coords[0]

        rng = np.random.default_rng(0)  # first draw 0.637 -> partial branch
        state = rng.bit_generator.state
        assert branch_for(state) == "partial"
        child = domain.vary(0, parent, rng)

        replay = np.random.default_rng(0)
        assert replay.random() >= 0.2
        split = int(replay.integers(n // 3, 2 * n // 3 + 1))
        suffix = replay.choice(VOCAB, size=n - split, p=TOPIC_ROWS[top]).astype(np.int64)
        assert len(child) == n
        assert np.array_equal(child[:split], tokens[:split])
        assert np.array_equal(child[split:], suffix)


@settings(max_examples=500, deadline=None, database=None)
@given(seed=st.integers(0, 2**63 - 1), length=st.integers(MIN_TOKENS, MAX_TOKENS))
def test_token_sampling_replays_choice(seed, length):
    """For every topic the tokens are the ones ``rng.choice`` draws with
    the topic's row as ``p``, and the generator is left where ``choice``
    leaves it."""
    domain = ToyMediaDomain()
    for topic in range(TOPICS):
        rng, replay = np.random.default_rng([seed, topic]), np.random.default_rng([seed, topic])
        tokens = domain._sample_text(topic, length, rng)
        expected = replay.choice(VOCAB, size=length, p=TOPIC_ROWS[topic]).astype(np.int64)
        assert tokens.dtype == np.int64 and np.array_equal(tokens, expected)
        assert rng.random() == replay.random()


@pytest.mark.parametrize("seed", range(20))
def test_generate_replays_documented_draws(seed):
    """generate draws topic, length, the tokens by ``choice`` and then
    the pixels, and nothing else."""
    domain = ToyMediaDomain(width=6, height=5)
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    tokens, pixels = domain.generate(rng)
    topic = int(replay.integers(TOPICS))
    length = int(replay.integers(MIN_TOKENS, MAX_TOKENS + 1))
    expected = replay.choice(VOCAB, size=length, p=TOPIC_ROWS[topic]).astype(np.int64)
    assert tokens.dtype == np.int64 and np.array_equal(tokens, expected)
    assert pixels.tobytes() == replay.random((5, 6, 3)).tobytes()
    assert rng.random() == replay.random()


def test_vary_text_full_resamples():
    domain = ToyMediaDomain(width=8, height=8)
    parent = parent_solution(domain, 11)

    rng = np.random.default_rng(11)  # first draw 0.129 -> full branch
    assert np.random.default_rng(11).random() < 0.2
    child = domain.vary(0, parent, rng)

    replay = np.random.default_rng(11)
    replay.random()
    topic = int(replay.integers(TOPICS))
    length = int(replay.integers(MIN_TOKENS, MAX_TOKENS + 1))
    expected = replay.choice(VOCAB, size=length, p=TOPIC_ROWS[topic]).astype(np.int64)
    assert np.array_equal(child, expected)


def test_text_mutation_branch_frequency():
    domain = ToyMediaDomain(width=8, height=8)
    parent = parent_solution(domain, 11)
    rng = np.random.default_rng(42)
    fulls = 0
    trials = 10_000
    for _ in range(trials):
        if branch_for(rng.bit_generator.state) == "full":
            fulls += 1
        domain.vary(0, parent, rng)
    assert fulls / trials == pytest.approx(0.2, abs=0.012)


# ----------------------------------------------------------------- coherence


def splitmix_oracle(seed, count):
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_projection_regenerates_from_documented_seed():
    words = splitmix_oracle(PROJECTION_SEED, 256)
    expected = np.array([2.0 * (w / 2.0**64) - 1.0 for w in words]).reshape(16, 16)
    assert np.array_equal(PROJECTION, expected)
    assert splitmix64_stream(PROJECTION_SEED, 256) == words


def image_vector_oracle(pixels):
    y = luminance(pixels)
    h, w = y.shape
    h2, w2 = h // 2, w // 2
    quads = [
        pixels[:h2, :w2],
        pixels[:h2, w2:],
        pixels[h2:, :w2],
        pixels[h2:, w2:],
    ]
    feats = [float(np.mean(luminance(q))) for q in quads]
    for q in quads:
        if q.shape[0] >= 3 and q.shape[1] >= 3:
            feats.append(sobel_oracle(q, EDGE_THRESHOLD))
        else:
            feats.append(0.0)
    feats.extend(float(np.mean(pixels[..., ch])) for ch in range(3))
    feats.append(min(colourfulness(pixels) / COLOURFULNESS_SCALE, 1.0))
    feats.append(sobel_oracle(pixels, EDGE_THRESHOLD))
    feats.append(float(np.std(y)))
    feats.append(float(np.mean(np.abs(np.diff(y, axis=1)))))
    feats.append(float(np.max(y) - np.min(y)))
    return np.array(feats)


def test_image_vector_layout_and_values():
    assert len(IMAGE_VECTOR_LAYOUT) == 16
    rng = np.random.default_rng(13)
    for _ in range(10):
        pixels = rng.random((8, 8, 3))
        vec = image_analysis(pixels)[1]
        assert vec.shape == (16,)
        assert np.allclose(vec, image_vector_oracle(pixels), atol=1e-12)


def test_media_coherence_matches_local_formula():
    rng = np.random.default_rng(14)
    for _ in range(20):
        tokens = rng.integers(0, VOCAB, size=int(rng.integers(8, 65)))
        pixels = rng.random((8, 8, 3))

        counts = np.bincount(tokens, minlength=VOCAB).astype(float)
        loglik = [
            math.fsum(counts[t] * math.log(TOPIC_ROWS[k, t]) for t in range(VOCAB))
            for k in range(TOPICS)
        ]
        peak = max(loglik)
        weights = [math.exp(v - peak) for v in loglik]
        e_txt = np.array(weights) / math.fsum(weights)

        mapped = PROJECTION @ image_vector_oracle(pixels)
        cos = float(np.dot(mapped, e_txt)) / (
            np.linalg.norm(mapped) * np.linalg.norm(e_txt)
        )
        expected = (1.0 + max(-1.0, min(1.0, cos))) / 2.0
        assert media_coherence(tokens, pixels) == pytest.approx(expected, abs=1e-9)


def test_media_coherence_range_and_determinism():
    rng = np.random.default_rng(15)
    for _ in range(200):
        tokens = rng.integers(0, VOCAB, size=int(rng.integers(8, 65)))
        pixels = rng.random((4, 4, 3))
        q = media_coherence(tokens, pixels)
        assert 0.0 <= q <= 1.0
        assert media_coherence(tokens, pixels) == q


# ------------------------------------------------------------ one-pass analysis


def hexed_features(features):
    vector, norm = features
    return [v.hex() for v in vector.tolist()], norm.hex()


def image_layout(pixels, layout):
    """The same pixel values as a float64 C-ordered array, a view with
    gaps between columns, a view with negative strides, a Fortran-ordered
    array, a view with the row and column strides swapped, or float32."""
    if layout == "fortran":
        return np.asfortranarray(pixels)
    if layout == "transposed":
        return np.ascontiguousarray(pixels.transpose(1, 0, 2)).transpose(1, 0, 2)
    if layout == "strided":
        spaced = np.zeros((pixels.shape[0], 2 * pixels.shape[1], 3))
        spaced[:, ::2] = pixels
        return spaced[:, ::2]
    if layout == "reversed":
        return pixels[::-1, ::-1].copy()[::-1, ::-1]
    return pixels.astype(np.float32) if layout == "float32" else pixels


@settings(max_examples=300, deadline=None, database=None)
@given(
    h=st.integers(3, 40),
    w=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "blurred", "gray", "solid"]),
    layout=st.sampled_from(["contiguous", "strided", "reversed", "fortran", "transposed", "float32"]),
)
@example(h=3, w=17, seed=1, kind="random", layout="contiguous")
@example(h=17, w=3, seed=2, kind="blurred", layout="contiguous")
@example(h=4, w=4, seed=3, kind="random", layout="contiguous")
@example(h=5, w=5, seed=4, kind="random", layout="contiguous")
@example(h=5, w=5, seed=5, kind="gray", layout="contiguous")
@example(h=32, w=32, seed=6, kind="solid", layout="contiguous")
@example(h=192, w=190, seed=7, kind="random", layout="contiguous")
@example(h=17, w=3, seed=2, kind="blurred", layout="strided")
@example(h=4, w=4, seed=3, kind="random", layout="reversed")
@example(h=32, w=32, seed=6, kind="solid", layout="float32")
@example(h=192, w=190, seed=7, kind="random", layout="strided")
@example(h=192, w=190, seed=7, kind="random", layout="reversed")
@example(h=192, w=190, seed=7, kind="random", layout="float32")
@example(h=192, w=190, seed=7, kind="random", layout="fortran")
@example(h=192, w=190, seed=7, kind="random", layout="transposed")
def test_image_analysis_matches_two_pass_reference(h, w, seed, kind, layout):
    """One luminance and one Sobel pass give the bin and features of the
    separate passes on the same values C-ordered bit for bit, quadrants
    under 3x3 included, for float64 images in any memory layout and for
    float32 ones. In the 192x190 image each quadrant holds more than the
    8192 elements of numpy's reduction buffer, beyond which a strided
    slice's mean sums in another order than a contiguous array's."""
    rng = np.random.default_rng(seed)
    pixels = {
        "random": lambda: rng.random((h, w, 3)),
        "blurred": lambda: box_blur(rng.random((h, w, 3))),
        "gray": lambda: gray(rng.random(), h, w),
        "solid": lambda: solid(*rng.random(3), h, w),
    }[kind]()
    pixels = image_layout(pixels, layout)
    bin_index, features = oracles.media_image_analysis(np.ascontiguousarray(pixels))
    got_bin, got_features = ToyMediaDomain(width=w, height=h).analyse(1, pixels)
    full_bin, vector, full_features = image_analysis(pixels)
    assert got_bin == full_bin == bin_index
    assert hexed_features(got_features) == hexed_features(full_features)
    assert hexed_features(got_features) == hexed_features(features)
    if min(h // 2, w // 2) < 3:
        assert 0.0 in vector[4:8].tolist()


def signed_zeros(rng, h, w):
    """An image of 0.0 and -0.0 with a few values in (0, 1)."""
    zeros = np.where(rng.random((h, w, 3)) < 0.5, -0.0, 0.0)
    return np.where(rng.random((h, w, 3)) < 0.2, rng.random((h, w, 3)), zeros)


def sobel_ties(rng, h, w):
    """Gray stripes whose Sobel magnitude is EDGE_THRESHOLD up to rounding:
    a sawtooth of step 0.125 along one axis, each line across it offset by
    a few ulps, so that summing one Sobel term out of order moves edges
    across the threshold."""
    n = max(h, w)
    lines = 0.5 * rng.random() + rng.integers(-64, 64, n) * 2.0**-48
    values = lines[:, None] + 0.125 * (np.arange(n) % 4)
    values = (values if rng.random() < 0.5 else values.T)[:h, :w]
    return np.repeat(values[:, :, None], 3, axis=2)


@settings(max_examples=300, deadline=None, database=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "blurred", "gray", "signed_zeros", "sobel_ties"]),
    layout=st.sampled_from(["contiguous", "strided", "reversed", "fortran", "transposed", "float32"]),
)
@example(h=1, w=1, seed=1, kind="random", layout="contiguous")
@example(h=1, w=7, seed=2, kind="signed_zeros", layout="strided")
@example(h=3, w=3, seed=3, kind="random", layout="float32")
@example(h=3, w=40, seed=4, kind="blurred", layout="fortran")
@example(h=40, w=3, seed=5, kind="signed_zeros", layout="contiguous")
@example(h=24, w=24, seed=6, kind="sobel_ties", layout="contiguous")
@example(h=24, w=24, seed=7, kind="sobel_ties", layout="reversed")
@example(h=192, w=190, seed=6, kind="random", layout="contiguous")
@example(h=192, w=190, seed=6, kind="random", layout="strided")
@example(h=192, w=190, seed=6, kind="random", layout="reversed")
@example(h=192, w=190, seed=6, kind="random", layout="fortran")
@example(h=192, w=190, seed=6, kind="random", layout="transposed")
@example(h=192, w=190, seed=6, kind="random", layout="float32")
def test_image_kernels_match_stepwise_reference(h, w, seed, kind, layout):
    """The flat-slice ``image_analysis`` and ``box_blur`` give the bits of
    the array-at-a-time kernels they replaced (``oracles``): the bin, all
    16 statistics and the features, and every blurred value, signed zeros
    included, from 1x1 (blur) and 3x3 (analysis) up, in every layout and
    in float32. Edge counts see a Sobel sum's rounding only at the
    threshold, which ``sobel_ties`` images sit on. The 192x190 image's
    planes and quadrants pass the 8192 elements of numpy's reduction
    buffer."""
    rng = np.random.default_rng(seed)
    pixels = {
        "random": lambda: rng.random((h, w, 3)),
        "blurred": lambda: oracles.box_blur(rng.random((h, w, 3))),
        "gray": lambda: gray(rng.random(), h, w),
        "signed_zeros": lambda: signed_zeros(rng, h, w),
        "sobel_ties": lambda: sobel_ties(rng, h, w),
    }[kind]()
    pixels = image_layout(pixels, layout)
    blurred, expected = box_blur(pixels), oracles.box_blur(pixels)
    assert (blurred.dtype, blurred.shape) == (expected.dtype, expected.shape)
    assert blurred.tobytes() == expected.tobytes()
    if min(h, w) >= 3:
        got_bin, vector, features = image_analysis(pixels)
        want_bin, want_vector, want_features = oracles.image_analysis(pixels)
        assert got_bin == want_bin
        assert [v.hex() for v in vector.tolist()] == [v.hex() for v in want_vector.tolist()]
        assert hexed_features(features) == hexed_features(want_features)


@st.composite
def tied_tokens(draw):
    """Tokens in which two or more topics share one preferred count, in a
    drawn order, with fewer tokens of a drawn subset of the other topics."""
    tied = draw(st.lists(st.integers(0, TOPICS - 1), min_size=2, max_size=5, unique=True))
    count = draw(st.integers(1, 6))
    tokens = [4 * k + draw(st.integers(0, 3)) for k in tied for _ in range(count)]
    for k in draw(st.lists(st.integers(0, TOPICS - 1).filter(lambda k: k not in tied), unique=True)):
        tokens += [4 * k + draw(st.integers(0, 3)) for _ in range(draw(st.integers(0, count - 1)))]
    return draw(st.permutations(tokens))


@settings(max_examples=300, deadline=None, database=None)
@given(
    tokens=st.lists(st.integers(0, VOCAB - 1), max_size=70) | tied_tokens(),
    threshold=st.sampled_from([CLASSIFY_THRESHOLD, 0.85, 0.99]),
)
@example(tokens=[0, 1, 4], threshold=CLASSIFY_THRESHOLD)  # unique top topic
@example(tokens=[0, 1, 4, 5], threshold=CLASSIFY_THRESHOLD)  # tie
@example(tokens=[0] + [4 * k for k in range(TOPICS)], threshold=0.85)  # posterior 0.8
def test_text_analysis_matches_two_pass_reference(tokens, threshold):
    """One topic posterior gives the top-topic bin and the
    ``text_features``, with None features for an unclassified text.
    Under the built-in 0.40 threshold a unique top topic always passes
    (see above), so higher thresholds exercise the posterior check.
    The one token count matches the two-count reference bit for bit:
    preferred counts for the tie test, then the posterior and its norm
    from a second count."""
    tokens = np.array(tokens, dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toy_media, "CLASSIFY_THRESHOLD", threshold)
        got_bin, got_features = ToyMediaDomain().analyse(0, tokens)
        assert text_analysis(tokens)[0] == got_bin
    bin_index, features = oracles.media_text_analysis(tokens, threshold)
    assert got_bin == bin_index
    pref = preferred_token_counts(tokens)
    top = int(np.argmax(pref))
    two_count = text_features(tokens)
    tied = int((pref == pref[top]).sum()) > 1
    assert got_bin == (None if tied or two_count[0][top] < threshold else top)
    if bin_index is None:
        assert got_features is None
    else:
        assert hexed_features(got_features) == hexed_features(features)
        assert hexed_features(got_features) == hexed_features(two_count)


# ------------------------------------------------------------------- binding


def test_generate_is_deterministic_and_valid():
    domain = ToyMediaDomain()
    rng = np.random.default_rng(16)
    seen = 0
    for _ in range(100):
        tokens, pixels = domain.generate(rng)
        assert MIN_TOKENS <= len(tokens) <= MAX_TOKENS
        assert pixels.shape == (32, 32, 3)
        solution = characterize(domain, (tokens, pixels))
        if solution is None:  # unclassifiable text: death penalty
            continue
        seen += 1
        assert 0 <= solution.coords[0] < 16
        assert 0 <= solution.coords[1] < 16
        assert 0.0 <= solution.fitness <= 1.0
    assert seen > 50

    a = ToyMediaDomain().generate(np.random.default_rng(17))
    b = ToyMediaDomain().generate(np.random.default_rng(17))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_domain_validation():
    with pytest.raises(ValueError):
        ToyMediaDomain(width=2)
    assert ToyMediaDomain(width=MAX_SIDE, height=MAX_SIDE).width == MAX_SIDE == 1024
    with pytest.raises(ValueError, match="^height must be an integer <= 1024, got 1025$"):
        ToyMediaDomain(height=MAX_SIDE + 1)
    with pytest.raises(ValueError):
        ToyMediaDomain(noise_sigma=-1.0)
    bad = [("width", True), ("height", 8.7), ("noise_sigma", float("nan")), ("noise_sigma", False)]
    for name, value in bad:
        with pytest.raises(ValueError, match=f"^{name}"):
            ToyMediaDomain(**{name: value})


def test_constants_dict_is_complete():
    constants = ToyMediaDomain.constants
    assert constants["vocabulary_size"] == VOCAB
    assert constants["topic_count"] == TOPICS
    assert constants["token_length_range"] == [MIN_TOKENS, MAX_TOKENS]
    assert constants["classification_threshold"] == CLASSIFY_THRESHOLD
    assert constants["edge_threshold"] == EDGE_THRESHOLD
    assert constants["projection_seed"] == PROJECTION_SEED
    assert np.array_equal(np.array(constants["projection"]), PROJECTION)
    assert np.array_equal(np.array(constants["topic_rows"]), TOPIC_ROWS)
    assert constants["image_vector_layout"] == list(IMAGE_VECTOR_LAYOUT)
