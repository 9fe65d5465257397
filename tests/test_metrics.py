import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melita import Archive, Artefact, Solution, archive_metrics, auc, diversity, k_medoids
from melita import metrics
from melita.domains.toy_media import VOCAB, topic_posterior
from melita.harness import analyze_diversity, medoid_exemplars
from melita.harness.serialize import save_archive
from melita.metrics import RunningMetrics, checked_distances, euclidean_matrix
from tests import oracles
from tests.conftest import distance_matrices, hexed, scalar_solution


def test_archive_metrics_empty():
    sample = archive_metrics(Archive((16, 16)))
    assert sample.step == 0
    assert sample.coverage == 0.0
    assert sample.mean_fitness == 0.0
    assert sample.max_fitness == 0.0
    assert sample.qd_score == 0.0


def test_archive_metrics_three_elites():
    archive = Archive((16, 16))
    archive.insert(scalar_solution((0, 0), 0.5))
    archive.insert(scalar_solution((1, 0), 0.7))
    archive.insert(scalar_solution((2, 5), 0.9))
    sample = archive_metrics(archive, step=42)
    assert sample.step == 42
    assert sample.coverage == pytest.approx(3 / 256)
    assert sample.mean_fitness == pytest.approx(0.7, abs=1e-9)
    assert sample.max_fitness == 0.9
    assert sample.qd_score == pytest.approx(2.1, abs=1e-9)


def test_archive_metrics_full_grid():
    archive = Archive((16, 16))
    for i in range(16):
        for j in range(16):
            archive.insert(scalar_solution((i, j), 1.0))
    sample = archive_metrics(archive)
    assert sample.coverage == 1.0
    assert sample.mean_fitness == 1.0
    assert sample.max_fitness == 1.0
    assert sample.qd_score == 256.0


TINY = 2.0**-1000
EDGE_FITNESS = (
    0.0,
    1.0,
    TINY,
    math.nextafter(TINY, 1.0),
    math.nextafter(TINY, 0.0),
    2.0**-1074,
    0.5,
    math.nextafter(0.5, 0.0),
    math.nextafter(0.5, 1.0),
    math.nextafter(1.0, 0.0),
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.one_of(st.sampled_from(EDGE_FITNESS), st.floats(0.0, 1.0)),
        ),
        max_size=60,
    ),
    st.integers(0, 60),
)
def test_running_metrics_equal_fsum_over_inserts_and_replacements(inserts, seeded):
    # The first ``seeded`` inserts land before the running metrics start,
    # as a run's seeding does; the rest are recorded one by one.
    archive = Archive((3, 3))
    for coords, fitness in inserts[:seeded]:
        archive.insert(scalar_solution(coords, fitness))
    running = RunningMetrics(archive)
    assert hexed(running.sample()) == hexed(archive_metrics(archive))
    for step, (coords, fitness) in enumerate(inserts[seeded:], 1):
        running.record(archive.insert(scalar_solution(coords, fitness)))
        values = [cell.solution.fitness for cell in archive.cells.values()]
        assert running.sample(step).qd_score.hex() == math.fsum(values).hex()
        assert hexed(running.sample(step)) == hexed(archive_metrics(archive, step))


def test_auc_examples():
    assert auc([2.0] * 5) == 10.0
    assert auc([]) == 0.0
    assert auc([0.0, 1.0, 1.0, 0.5]) == 2.5


def test_auc_concat_additivity():
    rng = np.random.default_rng(3)
    a = list(rng.random(40))
    b = list(rng.random(17))
    assert auc(a + b) == pytest.approx(auc(a) + auc(b), abs=1e-12)


def euclid(a, b):
    return abs(a - b)


def test_diversity_two_items():
    report = diversity(oracles.distance_matrix([0.0, 3.0], euclid))
    assert report.per_elite_mean == (3.0, 3.0)
    assert report.per_elite_nearest == (3.0, 3.0)
    assert report.mean_distance == 3.0
    assert report.mean_nearest == 3.0
    assert not report.single_elite


def test_diversity_collinear_triple():
    report = diversity(oracles.distance_matrix([0.0, 1.0, 10.0], euclid))
    assert report.per_elite_nearest == (1.0, 1.0, 9.0)
    assert report.per_elite_mean == pytest.approx((5.5, 5.0, 9.5))
    assert report.mean_distance == pytest.approx(20 / 3)
    assert report.mean_nearest == pytest.approx(11 / 3)


def test_diversity_single_item():
    report = diversity(oracles.distance_matrix([7.0], euclid))
    assert report.single_elite
    assert report.mean_distance == 0.0
    assert report.mean_nearest == 0.0
    assert report.per_elite_mean == (0.0,)


def test_diversity_empty_raises():
    with pytest.raises(ValueError):
        diversity(oracles.distance_matrix([], euclid))


def test_diversity_rejects_asymmetric_distance():
    # Entry (i, j) is items[j] - items[i]: valid above the diagonal,
    # negated below it.
    items = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        diversity(items[None, :] - items[:, None])


def test_nearest_never_exceeds_mean():
    rng = np.random.default_rng(4)
    for _ in range(20):
        points = list(rng.random(int(rng.integers(2, 12))))
        report = diversity(oracles.distance_matrix(points, euclid))
        for mean, nearest in zip(report.per_elite_mean, report.per_elite_nearest):
            assert nearest <= mean + 1e-12
        assert report.mean_nearest <= report.mean_distance + 1e-12
        assert math.isfinite(report.mean_distance)


@settings(max_examples=300, deadline=None, database=None)
@given(distance_matrices())
def test_diversity_matches_the_straight_line_oracle(matrix):
    # Bit for bit, signed zeros included, in any memory layout.
    report = diversity(matrix)
    per_mean, per_nearest, mean, nearest, single = oracles.diversity(matrix)
    assert [v.hex() for v in report.per_elite_mean] == [v.hex() for v in per_mean]
    assert [v.hex() for v in report.per_elite_nearest] == [v.hex() for v in per_nearest]
    assert (report.mean_distance.hex(), report.mean_nearest.hex()) == (mean.hex(), nearest.hex())
    assert report.single_elite == single


# ------------------------------------- distance matrices against per-pair norms


def norm_distance(a, b):
    """The straight-line per-pair distance the matrix must reproduce."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.linalg.norm(a - b))


def assert_matrix_matches_norms(payloads, embed):
    matrix = euclidean_matrix([embed(p) for p in payloads])
    assert matrix.dtype == np.float64 and matrix.shape == (len(payloads),) * 2
    assert np.array_equal(matrix, matrix.T)
    for i, a in enumerate(payloads):
        assert matrix[i, i] == 0.0
        for j in range(i + 1, len(payloads)):
            expected = norm_distance(embed(a), embed(payloads[j])).hex()
            assert (float(matrix[i, j]).hex(), float(matrix[j, i]).hex()) == (expected, expected)


def block_rows(shape):
    """How many later rows euclidean_matrix takes at once for float64 payloads of ``shape``."""
    return max(1, metrics._BLOCK_BYTES // (8 * math.prod(shape)))


# Payload shapes for 24 rows, each with the block case it must reach.
BLOCK_CASES = {
    (8,): lambda rows: rows >= 23,
    (32, 32, 3): lambda rows: 1 < rows < 23,
    (16, 16, 3): lambda rows: rows >= 23,  # the whole remainder of every row in one block
    (64, 32, 3): lambda rows: rows > 1 and 23 % rows,  # the block size does not divide n - 1
    (128, 128, 3): lambda rows: rows == 1,
}


def test_bit_test_shapes_reach_their_block_cases():
    assert all(case(block_rows(shape)) for shape, case in BLOCK_CASES.items())


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("shape", list(BLOCK_CASES))
def test_euclidean_matrix_has_the_bits_of_per_pair_norms(shape, scale):
    rng = np.random.default_rng(40)
    payloads = list(rng.random((24, *shape)) * scale)
    assert_matrix_matches_norms(payloads, lambda p: np.asarray(p, dtype=np.float64).ravel())


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("shape", [(0,), (8,), (128, 128, 3)])
def test_euclidean_matrix_of_few_or_zero_length_payloads(shape, n):
    payloads = list(np.random.default_rng(42).random((n, *shape)))
    assert_matrix_matches_norms(payloads, lambda p: np.asarray(p, dtype=np.float64).ravel())


def test_euclidean_matrix_holds_the_input_the_result_and_one_block():
    vectors = list(np.random.default_rng(44).random((40, 2**16)))
    tracemalloc.start()
    try:
        matrix = euclidean_matrix(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacked = 40 * 2**16 * 8
    block = block_rows((2**16,)) * 2**16 * 8
    assert peak <= stacked + matrix.nbytes + block + 4 * 2**20


def test_euclidean_matrix_has_the_bits_of_topic_posterior_norms():
    # Token texts of ragged lengths share one posterior length.
    rng = np.random.default_rng(41)
    texts = [rng.integers(0, VOCAB, size=int(rng.integers(4, 40))) for _ in range(40)]
    assert_matrix_matches_norms(texts, topic_posterior)


def first_invalid(items, distance):
    """The message of a straight-line scan of ``distance`` over every
    pair i < j in row order, or None when every distance is valid."""
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            d = float(distance(items[i], items[j]))
            if d < 0.0 or not math.isfinite(d):
                return f"invalid distance {d!r} between items {i} and {j}"
    return None


def symmetric(entries):
    """A 6 x 6 distance matrix of points on a line, with each (i, j, value)
    of ``entries`` written at (i, j) and (j, i)."""
    matrix = oracles.distance_matrix(list(np.random.default_rng(43).random(6)), euclid)
    for i, j, value in entries:
        matrix[i, j] = matrix[j, i] = value
    return matrix


MALFORMED = [
    pytest.param(np.zeros((2, 3)), "distance matrix must be square", id="non-square"),
    pytest.param(np.zeros(3), "distance matrix must be square", id="one-dimensional"),
    pytest.param(np.array([[0.0, 1.0], [2.0, 0.0]]), "must be symmetric", id="asymmetric"),
    pytest.param(np.array([[0.0, 1.0], [1.0, 1e-300]]), "zero diagonal", id="nonzero-diagonal"),
    pytest.param(symmetric([(2, 4, np.inf)]), None, id="inf"),
    pytest.param(symmetric([(3, 1, -np.inf)]), None, id="-inf"),
    pytest.param(symmetric([(0, 5, np.nan)]), None, id="nan"),
    pytest.param(symmetric([(1, 2, -1.0), (0, 5, np.nan)]), None, id="nan-before-negative"),
]


@pytest.mark.parametrize("matrix, message", MALFORMED)
def test_distance_matrix_check_rejects_malformed_matrices(matrix, message):
    # Both analysis entry points run the same check. A bad entry is named
    # at the first pair a straight-line scan over i < j finds, with that
    # scan's message; otherwise the shape, symmetry or diagonal is named.
    if message is None:
        message = first_invalid(range(len(matrix)), lambda i, j: matrix[i, j])
        assert message is not None
    for analyse in (diversity, lambda m: k_medoids(m, 1, np.random.default_rng(0))):
        with pytest.raises(ValueError) as got:
            analyse(matrix)
        assert message in str(got.value)


@pytest.mark.parametrize(
    "poison", [[(3, 2, np.inf)], [(4, 0, np.nan)], [(1, 5, np.inf), (4, 5, np.inf)], [(2, 1, -np.inf)]]
)
def test_invalid_payloads_fail_at_the_same_pair_with_the_same_message(poison, tmp_path):
    # Infinite and NaN payloads fail the matrix check at the first bad pair
    # of a straight-line scan over the per-pair norms, with its message:
    # alone, in analyze_diversity and inside the weighted combine of
    # medoid_exemplars.
    rng = np.random.default_rng(42)
    vectors = list(rng.random((7, 8)))
    for i, k, value in poison:
        vectors[i][k] = value
    archive = Archive((7, 1))
    for i, vector in enumerate(vectors):
        archive.insert(Solution((Artefact(0, vector), Artefact(1, np.zeros(1))), 0.5, (i, 0)))
    path = tmp_path / "archive.json"
    save_archive(path, archive)

    def combined_norm(a, b):
        return math.sqrt(math.fsum([0.5 * norm_distance(a, b) ** 2]))

    with np.errstate(invalid="ignore"):
        alone, combined = first_invalid(vectors, norm_distance), first_invalid(vectors, combined_norm)
        for expected, analyse in (
            (alone, lambda: checked_distances(euclidean_matrix(vectors))),
            (alone, lambda: analyze_diversity(path, 0, "euclidean")),
            (combined, lambda: medoid_exemplars(path, 1, (0.5, 0.0))),
        ):
            assert expected is not None and expected.startswith("invalid distance")
            with pytest.raises(ValueError) as got:
                analyse()
            assert str(got.value) == expected
