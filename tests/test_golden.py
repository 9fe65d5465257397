"""Golden output digests: the sha256 of every file a small fixed
experiment writes, pinned so that a change which moves any output byte
fails here even when it moves it identically on every rerun.

The digests cover both domains and both methods, and on vector_pair UCB
selection with one snapshot. They depend on numpy's floating-point
results; a deliberate output change re-pins them and says so in
CHANGES.md.
"""
from __future__ import annotations

import hashlib

from melita.harness import ExperimentConfig, analyze_diversity, medoid_exemplars, run_experiment
from melita.harness.serialize import canonical_json

VECTOR_PAIR = {
    "labels": [{"name": "golden", "seed": 4242}],
    "runs_per_method": 1,
    "run": {
        "domain": "vector_pair",
        "selection": "ucb",
        "ucb_c": 0.5,
        "init_count": 30,
        "steps": 300,
        "snapshot_every": 200,
    },
}

TOY_MEDIA = {
    "labels": [{"name": "golden", "seed": 4243}],
    "runs_per_method": 1,
    "run": {
        "domain": "toy_media",
        "domain_params": {"width": 8, "height": 8},
        "init_count": 40,
        "steps": 200,
    },
}

GOLDEN = {
    "vector_pair": {
        "manifest.json": (
            "1c7584611a0530c78739c8b061fb8334d023e385c5d2c375373cea16f8df7bd0"
        ),
        "mapelites/golden_run0_archive.json": (
            "069577961e3c7530272f4921ee00a68850f4f81e2c3e75fad089d7f4a31edd53"
        ),
        "mapelites/golden_run0_metrics.csv": (
            "0ab46da1a557d7f701f04d1b57ba0b70fb8ac39b742dea893a1e9af6b88e5a08"
        ),
        "mapelites/golden_run0_snapshot200_archive.json": (
            "848089be5986fbdd458f687026bb3f7fc4087139a2d3654f238d291a0628c09c"
        ),
        "melita/golden_run0_archive.json": (
            "070707c3274162b8a192a39c062ef8653efc977fb4bb84a8c3851fea4016757e"
        ),
        "melita/golden_run0_metrics.csv": (
            "f7a5893c857351eb3c206bcd782c5a7c6600a972a6786823bf9559bc6cf25c10"
        ),
        "melita/golden_run0_snapshot200_archive.json": (
            "475581b6d6fd28641e0a99505a31ed952f5edd81bd5487539a2392ed24d5e420"
        ),
    },
    "toy_media": {
        "constants.json": (
            "e35a8b946843d268a9b9b0f91a253b9cb6f773498956dc3218af81b361700bb8"
        ),
        "manifest.json": (
            "197f39980f7bd67c5096873b16e55a7fbffaa5129a4e7f9ad4667f1bcc7ae0f9"
        ),
        "mapelites/golden_run0_archive.json": (
            "a10555338206966288e5aa6cc9d9637fad177de2cbc7e9f2897b35c5680f8220"
        ),
        "mapelites/golden_run0_metrics.csv": (
            "f6862da233dc5682b579b86e0f3a63cfbc92c9111d2c75d24b696cedc8dba479"
        ),
        "melita/golden_run0_archive.json": (
            "3b51e211fb1b3f09a195ba6209b797bfb4aaa64b6b9e4e0f788215604341476b"
        ),
        "melita/golden_run0_metrics.csv": (
            "b7b7bcecf828105ea841bc928f07145938286531b1221e20ebe218fd6c5807d1"
        ),
    },
}


# sha256 of the canonical JSON of each analysis of the vector_pair
# experiment's melita archive, called with the path relative to the
# output directory so that the reports do not depend on where it lies.
# At k=2 both medoid seeds reach the same partition; at k=5 they do not.
GOLDEN_ANALYSIS = {
    "medoids_k2_seed0": "dc0bb4c2e69834e3d67f2ec5a39393e3ed26978210ab14dc40fdabb7d0f82d7c",
    "medoids_k2_seed1": "dc0bb4c2e69834e3d67f2ec5a39393e3ed26978210ab14dc40fdabb7d0f82d7c",
    "medoids_k5_seed0": "66ff1669eb404ad5ae84c5aef3ce21234dedb13a2022f9a853f9b5f7a4fa5f41",
    "medoids_k5_seed1": "2ccaee215bc5774d17494a776945babbd4d4b139cf9ec678d091dcb2007045ff",
    "diversity_0_euclidean": "4cda907c034a02bc34d8040ea8acf9aeb40bb5dd6bd9257e9160e621bf276731",
}

# The same for the toy_media experiment's melita archive. Its texts have
# ragged lengths, so medoids compare images alone (weights 0, 1).
GOLDEN_MEDIA_ANALYSIS = {
    "diversity_0_topic_posterior": "3eae89b23c6507fab85362972975126377b2476dcf822c95968810a4ba30d583",
    "diversity_1_euclidean": "e48ab08793048c2f5fc70df332aa9589809f26cc2a9e9d1bd75d70b39b7adc64",
    "medoids_k2_weights_0_1": "0e1dd47801d03c1497698ef8347515b39390e57d73b0c00caaa7a644f06b600f",
}


def _report_digests(reports: dict) -> dict[str, str]:
    return {
        name: hashlib.sha256(canonical_json(report).encode()).hexdigest()
        for name, report in reports.items()
    }


def _digests(directory) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_vector_pair_outputs_match_golden_digests(tmp_path):
    run_experiment(ExperimentConfig.from_dict(VECTOR_PAIR), tmp_path)
    assert _digests(tmp_path) == GOLDEN["vector_pair"]


def test_toy_media_outputs_match_golden_digests(tmp_path):
    run_experiment(ExperimentConfig.from_dict(TOY_MEDIA), tmp_path)
    assert _digests(tmp_path) == GOLDEN["toy_media"]


def test_vector_pair_analysis_matches_golden_digests(tmp_path, monkeypatch):
    run_experiment(ExperimentConfig.from_dict(VECTOR_PAIR), tmp_path)
    monkeypatch.chdir(tmp_path)
    archive = "melita/golden_run0_archive.json"
    reports = {
        f"medoids_k{k}_seed{seed}": medoid_exemplars(archive, k, seed=seed)
        for k in (2, 5)
        for seed in (0, 1)
    }
    reports["diversity_0_euclidean"] = analyze_diversity(archive, 0, "euclidean")
    assert _report_digests(reports) == GOLDEN_ANALYSIS


def test_toy_media_analysis_matches_golden_digests(tmp_path, monkeypatch):
    run_experiment(ExperimentConfig.from_dict(TOY_MEDIA), tmp_path)
    monkeypatch.chdir(tmp_path)
    archive = "melita/golden_run0_archive.json"
    reports = {
        "diversity_0_topic_posterior": analyze_diversity(archive, 0, "topic_posterior"),
        "diversity_1_euclidean": analyze_diversity(archive, 1, "euclidean"),
        "medoids_k2_weights_0_1": medoid_exemplars(archive, 2, weights=(0.0, 1.0)),
    }
    assert _report_digests(reports) == GOLDEN_MEDIA_ANALYSIS
