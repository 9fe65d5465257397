"""Release gate: one test per acceptance criterion.

Every test is named criterion_<n>_<what it guarantees>, so
``pytest -v tests/test_acceptance.py`` prints one PASSED/FAILED line per
criterion. Tolerances are pinned inside each test; a failure here means
the library does not meet its contract, not that the test is flaky —
every run below is fully seeded.
"""
import json
import math
import time

import numpy as np
import pytest

from melita import (
    INSERTED_EMPTY,
    REPLACED,
    Archive,
    RunConfig,
    VectorPairDomain,
    archive_metrics,
    auc,
    diversity,
    k_medoids,
    melita_step,
    rank_sum_test,
    run,
    seed_archive,
    select_ucb,
    vanilla_step,
)
from melita.domains.common import bin4
from melita.harness import ExperimentConfig, run_experiment
from melita.harness.serialize import METRICS_HEADER, archive_to_dict
from tests import oracles
from tests.conftest import scalar_solution


def test_criterion_1_transverse_step_matches_bruteforce_oracle():
    # 100 seeded trials on random archives (<= 16 elites, 16x16 map,
    # vector-pair domain): melita_step's outcome, its evaluation count
    # and the entire archive must match the independent full-enumeration
    # oracle exactly.
    domain = VectorPairDomain()
    start = time.perf_counter()
    steps_checked = 0
    for trial in range(100):
        count = int(np.random.default_rng(10_000 + trial).integers(1, 17))
        archive = Archive((16, 16))
        seed_archive(archive, domain, count, np.random.default_rng(trial))
        cells: dict = {}
        oracles.seed(cells, np.random.default_rng(trial), count)
        assert len(archive) <= 16
        oracles.assert_same_archive(archive, cells)

        lib_rng = np.random.default_rng(trial + 999)
        oracle_rng = np.random.default_rng(trial + 999)
        for _ in range(5):
            report = melita_step(archive, domain, lib_rng)
            kind, coords, scored = oracles.melita_step(cells, oracle_rng)
            assert report.outcome.kind == kind
            assert report.outcome.coords == coords
            assert report.evaluations == scored
            oracles.assert_same_archive(archive, cells)
            steps_checked += 1
    elapsed = time.perf_counter() - start
    assert steps_checked == 500
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s (limit 10s)"


def test_criterion_2_at_most_one_insertion_and_monotone_cells():
    # Instrument every one of 10,000 seeded transverse steps: at most one
    # cell may change, occupied cells never lose fitness, and the change
    # must agree with the reported outcome. Exact.
    domain = VectorPairDomain()
    archive = Archive((16, 16))
    rng = np.random.default_rng(77)
    seed_archive(archive, domain, 100, rng)

    before = {c: archive.cells[c].solution.fitness for c in archive.cells}
    for _ in range(10_000):
        report = melita_step(archive, domain, rng)
        after = {c: archive.cells[c].solution.fitness for c in archive.cells}

        assert not set(before) - set(after), "occupied cell vanished"
        added = set(after) - set(before)
        changed = {c for c in before if after[c] != before[c]}
        assert len(added) + len(changed) <= 1

        outcome = report.outcome
        if outcome.kind == INSERTED_EMPTY:
            assert added == {outcome.coords} and not changed
        elif outcome.kind == REPLACED:
            assert changed == {outcome.coords} and not added
            assert after[outcome.coords] > before[outcome.coords]
        else:
            assert not added and not changed

        total = sum(archive.selected[c] for c in archive.cells)
        assert total == archive.selected.sum(), "counter outside an occupied cell"
        assert archive.total_selections == total + archive.evicted_selections
        before = after

    for coords, cell in archive.cells.items():
        payloads = [a.payload for a in cell.solution.artefacts]
        assert (domain.describe(0, payloads[0]), domain.describe(1, payloads[1])) == coords
        assert 0.0 <= cell.solution.fitness <= 1.0


def test_criterion_3_disabled_transverse_is_bitwise_vanilla():
    # melita_step(transverse=False) must reproduce vanilla_step's archive
    # trajectory bit-for-bit: 2,000 steps x 5 seeds, comparing every step
    # report and the final archives.
    domain = VectorPairDomain()
    for seed in range(5):
        plain_rng = np.random.default_rng(seed)
        reduced_rng = np.random.default_rng(seed)
        plain = Archive((16, 16))
        reduced = Archive((16, 16))
        seed_archive(plain, domain, 100, plain_rng)
        seed_archive(reduced, domain, 100, reduced_rng)
        for _ in range(2000):
            a = vanilla_step(plain, domain, plain_rng)
            b = melita_step(reduced, domain, reduced_rng, transverse=False)
            assert a == b
        assert archive_to_dict(plain) == archive_to_dict(reduced)


def test_criterion_4_transverse_gains_fitness_without_coverage():
    # Trend reproduction: 3 labels x 10 paired runs x 2 methods on the
    # vector-pair domain (16x16 map, init 100, 2000 selections). The
    # transverse method must win on final mean fitness (one-sided
    # rank-sum p < 0.05) on at least 2 of 3 labels and must not beat the
    # plain method's mean coverage by more than 2 percentage points on
    # any label. Runtime budget: 5 minutes.
    domain = VectorPairDomain()
    start = time.perf_counter()
    fitness_wins = 0
    for base_seed in (101_000, 202_000, 303_000):
        finals = {"mapelites": [], "melita": []}
        coverage = {"mapelites": [], "melita": []}
        for method in ("mapelites", "melita"):
            for index in range(10):
                config = RunConfig(seed=base_seed + index, method=method, steps=2000, init_count=100)
                record = run(domain, config, np.random.default_rng(config.seed))
                finals[method].append(record.samples[-1].mean_fitness)
                coverage[method].append(record.samples[-1].coverage)

        p = rank_sum_test(finals["melita"], finals["mapelites"], "greater").p_value
        if p < 0.05:
            fitness_wins += 1
        mean_cov = {m: math.fsum(v) / len(v) for m, v in coverage.items()}
        assert mean_cov["melita"] <= mean_cov["mapelites"] + 0.02, (
            f"label {base_seed}: transverse coverage {mean_cov['melita']:.4f} "
            f"exceeds plain {mean_cov['mapelites']:.4f} by more than 0.02"
        )
    elapsed = time.perf_counter() - start
    assert fitness_wins >= 2, f"significant fitness win on only {fitness_wins}/3 labels"
    assert elapsed < 300.0, f"trend run took {elapsed:.0f}s (limit 300s)"


def test_criterion_5_metric_hand_checks():
    # Hand-evaluated examples; colourfulness within 1e-2 (hand arithmetic
    # rounding), everything else exact or within 1e-9.

    # archive_metrics
    empty = archive_metrics(Archive((16, 16)))
    assert (empty.coverage, empty.mean_fitness, empty.max_fitness, empty.qd_score) == (
        0.0, 0.0, 0.0, 0.0,
    )
    archive = Archive((16, 16))
    for i, fitness in enumerate((0.5, 0.7, 0.9)):
        archive.insert(scalar_solution((i, 0), fitness))
    sample = archive_metrics(archive)
    assert sample.coverage == pytest.approx(3 / 256, abs=1e-9)
    assert sample.mean_fitness == pytest.approx(0.7, abs=1e-9)
    assert sample.max_fitness == 0.9
    assert sample.qd_score == pytest.approx(2.1, abs=1e-9)
    full = Archive((16, 16))
    for i in range(16):
        for j in range(16):
            full.insert(scalar_solution((i, j), 1.0))
    sample = archive_metrics(full)
    assert (sample.coverage, sample.mean_fitness, sample.max_fitness, sample.qd_score) == (
        1.0, 1.0, 1.0, 256.0,
    )

    # auc
    assert auc([2.0] * 5) == 10.0
    assert auc([]) == 0.0
    assert auc([0.0, 1.0, 1.0, 0.5]) == 2.5

    # diversity
    two = diversity(oracles.distance_matrix([0.0, 3.0], lambda a, b: abs(a - b)))
    assert two.per_elite_mean == (3.0, 3.0) and two.per_elite_nearest == (3.0, 3.0)
    collinear = diversity(oracles.distance_matrix([0.0, 1.0, 10.0], lambda a, b: abs(a - b)))
    assert collinear.per_elite_nearest == (1.0, 1.0, 9.0)
    assert collinear.per_elite_mean == pytest.approx((5.5, 5.0, 9.5), abs=1e-9)
    single = diversity(oracles.distance_matrix([4.0], lambda a, b: abs(a - b)))
    assert single.single_elite and single.mean_distance == 0.0

    # bin4
    thresholds = (0.05, 0.15, 0.30)
    assert bin4(0.0, thresholds) == 0
    assert bin4(0.2, thresholds) == 2
    assert bin4(0.30, thresholds) == 3  # boundary falls upward

    # colourfulness
    red = np.tile(np.array([1.0, 0.0, 0.0]), (8, 8, 1))
    assert oracles.colourfulness(red) == pytest.approx(85.53, abs=1e-2)
    pair = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
    assert oracles.colourfulness(pair) == pytest.approx(272.62, abs=1e-2)

    # rank-sum
    same = rank_sum_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert same.statistic == 4.5 and same.p_value == pytest.approx(1.0, abs=1e-9)
    apart = rank_sum_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert apart.statistic == 0.0 and 0.04 <= apart.p_value <= 0.11
    ties = rank_sum_test([1.0] * 3, [1.0] * 3)
    assert ties.p_value == 1.0

    # UCB selection scores (two cells, counts (4,1), successes (2,1), T=5)
    bandit = Archive((2, 1))
    bandit.insert(scalar_solution((0, 0), 0.5))
    bandit.insert(scalar_solution((1, 0), 0.5))
    stats = {(0, 0): (4, 2), (1, 0): (1, 1)}
    for coords, (selections, insertions) in stats.items():
        for _ in range(selections):
            bandit.record_selection(coords)
        for _ in range(insertions):
            bandit.credit_insertion(coords)
    expected = {
        (0, 0): 2 / 4 + math.sqrt(2 * math.log(5) / 4),
        (1, 0): 1 / 1 + math.sqrt(2 * math.log(5) / 1),
    }
    assert expected[(0, 0)] == pytest.approx(1.397, abs=1e-3)
    assert expected[(1, 0)] == pytest.approx(2.794, abs=1e-3)
    assert select_ucb(bandit, np.random.default_rng(0), c=1.0) == (1, 0)

    # k-medoids two tight pairs
    result = k_medoids(oracles.distance_matrix([0.0, 1.0, 10.0, 11.0], lambda a, b: abs(a - b)), 2,
                       np.random.default_rng(0))
    assert result.cost == 2.0
    low, high = result.medoids
    assert low in (0, 1) and high in (2, 3)


def test_criterion_6_rerun_from_manifest_is_byte_identical(tmp_path):
    # Determinism: re-running an experiment from nothing but its manifest
    # must reproduce every CSV/JSON output byte-for-byte.
    config = ExperimentConfig.from_dict(
        {
            "labels": [{"name": "det", "seed": 4_000}],
            "runs_per_method": 2,
            "run": {
                "domain": "vector_pair",
                "steps": 60,
                "init_count": 30,
                "snapshot_every": 30,
            },
        }
    )
    run_experiment(config, tmp_path / "first")

    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    assert manifest["complete"] is True
    rebuilt = ExperimentConfig.from_dict(manifest["experiment"])
    run_experiment(rebuilt, tmp_path / "second")

    first_files = sorted(
        p.relative_to(tmp_path / "first")
        for p in (tmp_path / "first").rglob("*")
        if p.is_file()
    )
    second_files = sorted(
        p.relative_to(tmp_path / "second")
        for p in (tmp_path / "second").rglob("*")
        if p.is_file()
    )
    assert first_files == second_files
    assert any(p.suffix == ".csv" for p in first_files)
    assert any("snapshot" in p.name for p in first_files)
    for rel in first_files:
        assert (tmp_path / "first" / rel).read_bytes() == (
            tmp_path / "second" / rel
        ).read_bytes(), f"{rel} differs between reruns"

    # the same holds for the image/text domain, including its constants file
    media = ExperimentConfig.from_dict(
        {
            "labels": [{"name": "tm", "seed": 5_000}],
            "runs_per_method": 1,
            "run": {
                "domain": "toy_media",
                "steps": 8,
                "init_count": 25,
                "domain_params": {"width": 8, "height": 8},
            },
        }
    )
    run_experiment(media, tmp_path / "m1")
    rebuilt = ExperimentConfig.from_dict(
        json.loads((tmp_path / "m1" / "manifest.json").read_text())["experiment"]
    )
    run_experiment(rebuilt, tmp_path / "m2")
    for rel in sorted(
        p.relative_to(tmp_path / "m1") for p in (tmp_path / "m1").rglob("*") if p.is_file()
    ):
        assert (tmp_path / "m1" / rel).read_bytes() == (tmp_path / "m2" / rel).read_bytes()


def test_criterion_7_full_protocol_completes_at_scale(tmp_path):
    # Protocol shape: 7 labels x 10 runs x 2 methods, 2000 selections
    # each, must finish well under 30 minutes and emit exactly 140 metric
    # series of exactly 2000 rows.
    config = ExperimentConfig.from_dict(
        {
            "labels": [
                {"name": f"label{i}", "seed": 10_000 * (i + 1)} for i in range(7)
            ],
            "runs_per_method": 10,
            "run": {"domain": "vector_pair"},
        }
    )
    start = time.perf_counter()
    manifest = run_experiment(config, tmp_path / "protocol")
    elapsed = time.perf_counter() - start

    assert manifest["complete"] is True
    assert len(manifest["runs"]) == 140
    metrics_files = sorted((tmp_path / "protocol").rglob("*_metrics.csv"))
    assert len(metrics_files) == 140
    for path in metrics_files:
        lines = path.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 2001, f"{path.name}: {len(lines) - 1} rows, wanted 2000"
    assert elapsed < 1800.0, f"protocol took {elapsed:.0f}s (limit 1800s)"
