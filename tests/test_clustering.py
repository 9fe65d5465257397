import copy
import itertools

import numpy as np
import oracles
import pytest

from melita import RunConfig, VectorPairDomain, k_medoids, run
from melita.harness import experiment, medoid_exemplars
from melita.harness.serialize import save_archive


def euclid(a, b):
    return abs(a - b)


def exhaustive_best_cost(items, distance, k):
    best = None
    for combo in itertools.combinations(range(len(items)), k):
        cost = sum(min(distance(x, items[m]) for m in combo) for x in items)
        if best is None or cost < best:
            best = cost
    return best


def test_two_tight_pairs():
    items = [0.0, 1.0, 10.0, 11.0]
    result = k_medoids(oracles.distance_matrix(items, euclid), 2, np.random.default_rng(0))
    assert result.cost == 2.0  # one medoid per pair, each serving a 1-away point
    assert len(result.medoids) == 2
    low, high = result.medoids
    assert low in (0, 1) and high in (2, 3)
    assert result.cost == exhaustive_best_cost(items, euclid, 2)


def test_k_equals_n_is_free():
    items = [3.0, 1.0, 4.0, 1.5]
    result = k_medoids(oracles.distance_matrix(items, euclid), 4, np.random.default_rng(1))
    assert result.cost == 0.0
    assert result.medoids == (0, 1, 2, 3)
    assert result.labels == (0, 1, 2, 3)


def test_identical_points():
    result = k_medoids(oracles.distance_matrix([5.0] * 6, euclid), 2, np.random.default_rng(2))
    assert result.cost == 0.0


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(5)
    items = list(rng.random(20))
    matrix = oracles.distance_matrix(items, euclid)
    a = k_medoids(matrix, 4, np.random.default_rng(7))
    b = k_medoids(matrix, 4, np.random.default_rng(7))
    assert a == b


def test_labels_point_to_nearest_medoid():
    rng = np.random.default_rng(6)
    items = list(rng.random(15))
    result = k_medoids(oracles.distance_matrix(items, euclid), 3, np.random.default_rng(8))
    assert len(result.labels) == len(items)
    total = 0.0
    for i, label in enumerate(result.labels):
        assigned = euclid(items[i], items[result.medoids[label]])
        nearest = min(euclid(items[i], items[m]) for m in result.medoids)
        assert assigned == nearest
        total += assigned
    assert result.cost == pytest.approx(total, abs=1e-12)


def cost_of(items, distance, medoids):
    return sum(min(distance(x, items[m]) for m in medoids) for x in items)


def test_result_is_swap_optimal():
    # PAM guarantees a local optimum: no single medoid/non-medoid swap
    # can strictly lower the cost once it stops.
    rng = np.random.default_rng(9)
    for trial in range(10):
        items = list(rng.random(8))
        result = k_medoids(oracles.distance_matrix(items, euclid), 2, np.random.default_rng(trial))
        assert result.cost == pytest.approx(
            cost_of(items, euclid, result.medoids), abs=1e-12
        )
        for m in result.medoids:
            for candidate in range(len(items)):
                if candidate in result.medoids:
                    continue
                trial_medoids = [candidate if x == m else x for x in result.medoids]
                assert cost_of(items, euclid, trial_medoids) >= result.cost - 1e-9


def test_invalid_k():
    matrix = oracles.distance_matrix([1.0, 2.0], euclid)
    with pytest.raises(ValueError):
        k_medoids(matrix, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        k_medoids(matrix, 3, np.random.default_rng(0))


# ------------------------------------------- straight-line PAM as the oracle


def assert_matches_oracle(items, distance, k, seed):
    matrix = oracles.distance_matrix(items, distance)
    result = k_medoids(matrix, k, np.random.default_rng(seed))
    medoids, labels, cost = oracles.k_medoids(matrix, k, np.random.default_rng(seed))
    assert (result.medoids, result.labels) == (medoids, labels)
    assert result.cost.hex() == cost.hex()


def plane(a, b):
    return float(np.hypot(*(a - b)))


def manhattan(a, b):
    return float(np.abs(a - b).sum())


def test_matches_oracle_on_random_points():
    rng = np.random.default_rng(30)
    for trial in range(60):
        n = int(rng.integers(2, 18))
        points = list(rng.random((n, 2)))
        for k in {1, int(rng.integers(1, n + 1)), n}:
            assert_matches_oracle(points, plane, k, trial)


def test_matches_oracle_with_tied_integer_distances():
    # Points on a 4x4 grid under the Manhattan distance: every distance is
    # a small integer, so many swaps tie exactly.
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(2, 18))
        points = list(rng.integers(0, 4, size=(n, 2)))
        for k in {1, int(rng.integers(1, n + 1)), n}:
            assert_matches_oracle(points, manhattan, k, trial)


def test_matches_oracle_with_rounding_near_ties():
    # Multiples of 0.1 give distances such as 0.30000000000000004, so swaps
    # that tie exactly in real arithmetic differ by an ulp or two, and the
    # 1e-12 tolerance decides which one wins. Multiples of 1000.1 give
    # costs whose ulp exceeds 1e-12, so the order in which each cost is
    # summed decides instead.
    rng = np.random.default_rng(32)
    for scale in (0.1, 1000.1):
        for trial in range(80):
            n = int(rng.integers(8, 24))
            items = list(rng.integers(0, 12, size=n) * scale)
            for k in {1, int(rng.integers(1, n + 1)), n}:
                assert_matches_oracle(items, euclid, k, trial)


def test_matches_oracle_on_vector_pair_medoid_exemplars(tmp_path, monkeypatch):
    # The library and the oracle see the same combined distance matrix
    # and initial draw inside the harness's medoid_exemplars.
    config = RunConfig(domain="vector_pair", seed=7, method="melita", steps=300, init_count=30)
    record = run(VectorPairDomain(), config, np.random.default_rng(7))
    path = tmp_path / "archive.json"
    save_archive(path, record.archive)

    calls = []

    def checked(matrix, k, rng):
        expected = oracles.k_medoids(matrix, k, copy.deepcopy(rng))
        result = k_medoids(matrix, k, rng)
        calls.append((result, expected))
        return result

    monkeypatch.setattr(experiment, "k_medoids", checked)
    for seed in (0, 1):
        medoid_exemplars(path, 5, seed=seed)
    assert len(calls) == 2
    for result, (medoids, labels, cost) in calls:
        assert len(labels) == len(record.archive) > 40
        assert (result.medoids, result.labels) == (medoids, labels)
        assert result.cost.hex() == cost.hex()


def test_medoids_report_matches_payload_oracle(tmp_path):
    # The report's cost and assignments, recomputed pair by pair from the
    # payloads, for equal, unequal and zero weights.
    config = RunConfig(domain="vector_pair", seed=11, method="melita", steps=300, init_count=30)
    record = run(VectorPairDomain(), config, np.random.default_rng(11))
    path = tmp_path / "archive.json"
    save_archive(path, record.archive)
    solutions = record.archive.solutions()
    assert len(solutions) > 40
    for weights in ((1.0, 1.0), (1.0, 0.5), (0.0, 1.0)):
        for seed in (0, 1):
            report = medoid_exemplars(path, 4, weights, seed)
            cost, labels = oracles.medoid_exemplars(solutions, 4, weights, seed)
            assert report["total_cost"].hex() == cost.hex()
            assert [a["coords"] for a in report["assignments"]] == [list(s.coords) for s in solutions]
            assert tuple(a["cluster"] for a in report["assignments"]) == labels
