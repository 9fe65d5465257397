import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from melita import OFFSPRING_INVALID, RunConfig, VectorPairDomain, characterize, run
from melita.domains.common import bin4, norm
from melita.domains.vector_pair import combine_features, describe_text

import oracles


def vec(*head):
    values = np.zeros(8)
    values[: len(head)] = head
    return values


def cosine_coherence(t, v):
    return VectorPairDomain().cohere((t, v))


def parent_solution(domain, seed):
    return characterize(domain, domain.generate(np.random.default_rng(seed)))


def test_bin4():
    thresholds = (0.05, 0.15, 0.30)
    assert bin4(0.0, thresholds) == 0
    assert bin4(0.2, thresholds) == 2
    assert bin4(0.30, thresholds) == 3  # boundary falls upward
    assert bin4(0.05, thresholds) == 1
    assert bin4(-math.inf, thresholds) == 0
    assert bin4(math.inf, thresholds) == 3
    assert bin4(math.nan, thresholds) == 3  # NaN compares below no threshold


def test_describe_text_known_angles():
    assert describe_text(vec(1, 0)) == 8  # theta = 0
    assert describe_text(vec(0, 1)) == 12  # theta = pi/2
    assert describe_text(vec(-1, 0)) == 15  # theta = pi, clamped
    assert describe_text(vec(0, 0)) is None


def test_describe_text_range():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        bin_index = describe_text(rng.standard_normal(8))
        assert 0 <= bin_index < 16


def test_describe_visual_known_vectors():
    describe_visual = VectorPairDomain().describe
    assert describe_visual(1, vec(0.5)) == 0  # norm 0.5, roughness ~0.07
    assert describe_visual(1, np.full(8, 2.5)) == 12  # norm ~7.07, roughness 0
    alternating = np.array([2.0, -2.0] * 4)
    assert describe_visual(1, alternating) == 15  # norm ~5.66, roughness 4


def test_cosine_coherence_endpoints():
    t = vec(1, 2, 3)
    assert cosine_coherence(t, t) == pytest.approx(1.0)
    assert cosine_coherence(t, -t) == pytest.approx(0.0, abs=1e-12)
    assert cosine_coherence(vec(1, 0), vec(0, 1)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        cosine_coherence(np.zeros(8), t)


def test_cosine_coherence_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t = rng.standard_normal(8)
        v = rng.standard_normal(8)
        a, b = rng.uniform(0.1, 10, 2)
        assert cosine_coherence(a * t, b * v) == pytest.approx(
            cosine_coherence(t, v), abs=1e-9
        )


def test_generate_is_deterministic_and_valid():
    domain = VectorPairDomain()
    first = domain.generate(np.random.default_rng(9))
    second = domain.generate(np.random.default_rng(9))
    assert len(first) == len(second) == 2
    assert all(np.array_equal(a, b) for a, b in zip(first, second))

    rng = np.random.default_rng(10)
    for _ in range(1000):
        payloads = domain.generate(rng)
        for payload in payloads:
            assert np.linalg.norm(payload) >= 1e-9
        solution = characterize(domain, payloads)
        assert solution is not None
        assert 0 <= solution.coords[0] < 16
        assert 0 <= solution.coords[1] < 16
        assert 0.0 <= solution.fitness <= 1.0


def test_vary_partial_with_zero_sigma_is_identity():
    domain = VectorPairDomain(sigma=0.0)
    parent = parent_solution(domain, 4)
    rng = np.random.default_rng(0)  # first draw 0.637 -> partial branch
    assert rng.random() >= 0.2
    child = domain.vary(0, parent, np.random.default_rng(0))
    assert np.array_equal(child, parent.artefacts[0].payload)


def test_vary_partial_perturbs():
    domain = VectorPairDomain()
    parent = parent_solution(domain, 4)
    rng = np.random.default_rng(0)
    assert rng.random() >= 0.2
    child = domain.vary(1, parent, np.random.default_rng(0))
    assert not np.array_equal(child, parent.artefacts[1].payload)


def test_vary_is_reproducible():
    domain = VectorPairDomain()
    parent = parent_solution(domain, 4)
    a = domain.vary(0, parent, np.random.default_rng(77))
    b = domain.vary(0, parent, np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_full_mutation_frequency():
    # With sigma = 0 the partial branch returns the parent's payload
    # bit-for-bit, so full mutations are exactly countable.
    domain = VectorPairDomain(sigma=0.0)
    parent = parent_solution(domain, 4)
    rng = np.random.default_rng(123)
    fulls = 0
    trials = 10_000
    for _ in range(trials):
        child = domain.vary(0, parent, rng)
        if not np.array_equal(child, parent.artefacts[0].payload):
            fulls += 1
    assert fulls / trials == pytest.approx(0.2, abs=0.012)


def test_sigma_validation():
    with pytest.raises(ValueError):
        VectorPairDomain(sigma=-0.1)
    for bad in (True, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^sigma"):
            VectorPairDomain(sigma=bad)


@st.composite
def vector_pairs(draw):
    """Two vectors of one length: finite float64 values of magnitude 1e-3
    to 1e3 or small integers, each as a contiguous array, a strided or
    negative-stride view, or a plain list."""
    n = draw(st.integers(2, 40))

    def one():
        if draw(st.booleans()):
            base = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=2 * n, max_size=2 * n)))
        else:
            magnitudes = draw(st.lists(st.floats(1e-3, 1e3), min_size=2 * n, max_size=2 * n))
            signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2 * n, max_size=2 * n))
            base = np.array(magnitudes) * np.array(signs)
        layout = draw(st.sampled_from(["contiguous", "strided", "reversed", "reversed-strided", "list"]))
        return {
            "contiguous": base[:n],
            "strided": base[::2],
            "reversed": base[::-1][:n],
            "reversed-strided": base[::-2],
            "list": base[:n].tolist(),
        }[layout]

    return one(), one()


@settings(max_examples=500, deadline=None, database=None)
@given(vector_pairs())
@example(([1.0, 0.0], [0.0, 0.5]))  # norms and roughnesses on bin thresholds
@example((np.arange(1.0, 17.0)[::2], np.arange(16.0, 0.0, -1.0)[::-2]))
@example(([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]))  # an angle-less text
def test_primitives_match_numpy_bit_for_bit(pair):
    """The visual bin's norm and roughness and the coherence take the
    bits of np.linalg.norm, np.mean and np.dot, the oracles' plain calls,
    whatever the input's strides or type."""
    t, v = pair
    assume(np.any(np.asarray(t) != 0) and np.any(np.asarray(v) != 0))
    for x in (t, v):
        assert norm(x).hex() == float(np.linalg.norm(x)).hex()
        assert VectorPairDomain().describe(1, x) == oracles.describe_visual(x)
    expected = oracles.cohere(t, v).hex()
    assert combine_features((np.asarray(t), norm(t)), (np.asarray(v), norm(v))).hex() == expected
    domain = VectorPairDomain()
    (t_bin, t_features), (_, v_features) = domain.analyse(0, t), domain.analyse(1, v)
    if t_bin is None:
        assert oracles.describe_text(np.asarray(t)) is None
        with pytest.raises(ValueError, match="^modality 0: "):
            domain.cohere((t, v))
    else:
        assert domain.combine((t_features, v_features)).hex() == expected
        assert domain.cohere((t, v)).hex() == expected


@pytest.mark.parametrize("modality", [0, 1])
def test_analyse_matches_describe_and_features_bit_for_bit(modality):
    """The one-norm ``analyse`` gives ``describe``'s bin, and for a
    classified payload ``features``' norm, bit for bit, with the payload
    itself as the features' array; an unclassified one has no features.
    The bins are the oracles', and None for a norm that is not finite.
    Payloads: random vectors at several scales, the angle-less text
    (0, 0, ...), components of inf, nan and +-1e308, a large finite norm,
    a strided view, and an int and a float32 payload, which ``norm`` casts."""
    rng = np.random.default_rng(26)
    payloads = [rng.standard_normal(8) * scale for scale in (1e-3, 0.3, 1.0, 2.5, 40.0) for _ in range(20)]
    payloads += [vec(0.0, 0.0, 3.0, 4.0), vec(math.inf, 1.0), vec(1.0, math.nan), vec(-math.inf)]
    payloads += [vec(1e308, -1e308), vec(-1e308), vec(2.0, 1e308), vec(1e153, -1e153)]
    payloads += [np.arange(-8.0, 8.0)[::-2], np.arange(-4, 4), rng.standard_normal(8).astype(np.float32)]
    domain = VectorPairDomain()
    oracle = oracles.describe_text if modality == 0 else oracles.describe_visual
    with np.errstate(over="ignore"):  # the squares of 1e308 overflow
        for payload in payloads:
            bin_index, features = domain.analyse(modality, payload)
            expected_norm = norm(payload)
            expected_bin = oracle(payload) if math.isfinite(expected_norm) else None
            assert bin_index == domain.describe(modality, payload) == expected_bin
            if bin_index is None:
                assert features is None
            else:
                values, length = features
                assert values is payload
                assert length.hex() == expected_norm.hex()


# ------------------------------------------------------------ non-finite norms


@pytest.mark.parametrize(
    "values", [vec(math.inf, 1.0), np.full(8, 1e160)], ids=["inf_component", "norm_overflows"]
)
def test_vector_of_non_finite_norm_is_unclassified(values):
    """A vector whose norm is not finite is unclassified on both axes, and
    coherence with it raises. Its angle bin used to be finite, and its
    cosine inf / inf, which the clamp read as 1."""
    domain = VectorPairDomain()
    other = vec(1.0, 2.0, 3.0)
    with np.errstate(over="ignore"):  # the squares of 1e160 overflow
        for modality in (0, 1):
            assert domain.describe(modality, values) is None
            assert domain.analyse(modality, values) == (None, None)
            assert not math.isfinite(norm(values))
        for modality, payloads in enumerate(((values, other), (other, values))):
            features = [(np.asarray(p), norm(p)) for p in payloads]
            with pytest.raises(ValueError, match="^coherence is undefined for vectors of norm"):
                combine_features(*features)
            with pytest.raises(ValueError, match=f"^modality {modality}: an unclassified payload"):
                domain.cohere(payloads)


@pytest.mark.parametrize("sigma", [1e308, 1e200])
def test_huge_sigma_run_keeps_finite_elites(sigma):
    """Variation at a huge sigma overflows. At 1e308 a NaN component used
    to crash the angle bin partway through the run, and at 1e200 elites of
    infinite norm were kept, scored 0.5. Such offspring are now invalid."""
    config = RunConfig(seed=1, method="melita", init_count=20, steps=300)
    with np.errstate(over="ignore"):
        record = run(VectorPairDomain(sigma=sigma), config, np.random.default_rng(config.seed))
    assert len(record.reports) == 300
    for artefact in (a for s in record.archive.solutions() for a in s.artefacts):
        values, length = artefact.features
        assert np.all(np.isfinite(values)) and math.isfinite(length)
    assert any(report.outcome.kind == OFFSPRING_INVALID for report in record.reports)
