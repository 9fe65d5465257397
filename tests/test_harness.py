import ast
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import melita.domains
import melita.harness
from melita import (
    DOMAINS,
    Archive,
    Artefact,
    MetricsSample,
    RunConfig,
    Solution,
    ToyMediaDomain,
    VectorPairDomain,
    run,
)
from melita.harness import (
    ConfigError,
    ExperimentConfig,
    analyze_diversity,
    compare,
    compare_table,
    load_config,
    medoid_exemplars,
    run_experiment,
)
from melita.harness import cli
from melita.harness.cli import main as cli_main
from melita.harness.config import Label
from melita.harness.experiment import distance_table
from melita.harness.serialize import (
    archive_to_dict,
    canonical_json,
    config_hash,
    load_archive,
    load_metrics,
    save_archive,
    save_metrics,
)

MINIMAL = {
    "labels": [{"name": "base", "seed": 100}],
    "run": {"domain": "vector_pair"},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def small_experiment(runs=2, steps=25, label="trend", seed=500):
    return ExperimentConfig.from_dict(
        {
            "labels": [{"name": label, "seed": seed}],
            "runs_per_method": runs,
            "run": {"domain": "vector_pair", "steps": steps, "init_count": 15},
        }
    )


# ------------------------------------------------------------- configuration


def test_load_config_applies_defaults(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.labels == (Label("base", 100),)
    assert config.runs_per_method == 10
    assert config.run_template["steps"] == 2000
    assert config.run_template["init_count"] == 100
    assert config.run_template["axis_sizes"] == [16, 16]
    assert config.run_template["selection"] == "uniform"
    assert config.output_dir is None


def test_axis_sizes_is_optional_and_taken_from_the_domain():
    given = json.loads(json.dumps(MINIMAL))
    given["run"]["axis_sizes"] = [16, 16]
    omitted, stated = ExperimentConfig.from_dict(MINIMAL), ExperimentConfig.from_dict(given)
    assert omitted.to_dict() == stated.to_dict()
    assert config_hash(omitted.to_dict()) == config_hash(stated.to_dict())


def test_config_round_trips_through_to_dict(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert config_hash(again.to_dict()) == config_hash(config.to_dict())


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["run"].update(mystery=2), "run.mystery"),
        (lambda d: d["run"].update(steps=-1), "run.steps"),
        (lambda d: d["run"].update(steps=True), "run.steps"),
        (lambda d: d["run"].update(init_count=0), "run.init_count"),
        (lambda d: d["run"].update(method="melita"), "run"),
        (lambda d: d["run"].update(seed=9), "run"),
        (lambda d: d["run"].update(axis_sizes=[4, 4]), "run.axis_sizes"),
        pytest.param(lambda d: d["run"].update(axis_sizes=[]), "run.axis_sizes", id="empty_axes"),
        pytest.param(lambda d: d["run"].update(axis_sizes=[16.0, 16]), "run.axis_sizes", id="float_axes"),
        pytest.param(lambda d: d["run"].update(axis_sizes=[True, 16]), "run.axis_sizes", id="bool_axes"),
        pytest.param(lambda d: d["run"].update(axis_sizes="16"), "run.axis_sizes", id="string_axes"),
        pytest.param(lambda d: d["run"].pop("domain"), "run.domain", id="missing_domain"),
        pytest.param(lambda d: d["run"].update(domain=""), "run.domain", id="empty_domain"),
        pytest.param(lambda d: d["run"].update(domain=["vector_pair"]), "run.domain", id="list_domain"),
        pytest.param(lambda d: d["run"].update(domain_params=[]), "run.domain_params", id="list_params"),
        (lambda d: d["run"].update(domain="warp_field"), "run.domain"),
        (lambda d: d["run"].update(domain_params={"sigma": -2}), "run.domain"),
        (lambda d: d["run"].update(domain_params={"zeta": 1}), "run.domain_params"),
        (lambda d: d.update(labels=[]), "labels"),
        (lambda d: d.update(labels=[{"name": "a b", "seed": 1}]), "labels[0].name"),
        (lambda d: d.update(labels=[{"name": "x", "seed": -5}]), "labels[0].seed"),
        (
            lambda d: d.update(
                labels=[{"name": "x", "seed": 1}, {"name": "x", "seed": 2}]
            ),
            "unique",
        ),
        (lambda d: d.update(runs_per_method=0), "runs_per_method"),
        (lambda d: d["run"].update(ucb_c=float("nan")), "run.ucb_c"),
        (lambda d: d["run"].update(ucb_c=float("inf")), "run.ucb_c"),
        (lambda d: d["run"].update(domain_params={"sigma": float("nan")}), "run.domain: sigma"),
        (lambda d: d["run"].update(domain_params={"sigma": True}), "run.domain: sigma"),
        (
            lambda d: d["run"].update(domain="toy_media", domain_params={"width": 8.7}),
            "run.domain: width",
        ),
        (
            lambda d: d["run"].update(domain="toy_media", domain_params={"noise_sigma": float("nan")}),
            "run.domain: noise_sigma",
        ),
    ],
)
def test_config_validation_names_the_field(tmp_path, mutate, needle):
    data = json.loads(json.dumps(MINIMAL))
    mutate(data)
    with pytest.raises(ConfigError, match=needle.replace("[", r"\[").replace("]", r"\]")):
        ExperimentConfig.from_dict(data)


# ---------------------------------------------------------- batch experiment


def test_run_experiment_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    manifest = run_experiment(small_experiment(), out)

    assert manifest["complete"] is True
    assert manifest["library"] == "melita"
    assert len(manifest["runs"]) == 4  # 1 label x 2 methods x 2 runs
    assert manifest["config_hash"] == config_hash(small_experiment().to_dict())

    for method in ("mapelites", "melita"):
        for index in range(2):
            assert (out / method / f"trend_run{index}_metrics.csv").is_file()
            assert (out / method / f"trend_run{index}_archive.json").is_file()
    assert json.loads((out / "manifest.json").read_text()) == manifest

    for entry in manifest["runs"]:
        assert entry["seed"] == 500 + entry["run_index"]
        samples = load_metrics(out / entry["metrics_path"])
        assert len(samples) == 25
        assert [s.step for s in samples] == list(range(1, 26))


def test_paired_methods_share_seeds(tmp_path):
    manifest = run_experiment(small_experiment(), tmp_path / "out")
    by_key = {(e["method"], e["run_index"]): e["seed"] for e in manifest["runs"]}
    for index in range(2):
        assert by_key[("mapelites", index)] == by_key[("melita", index)]


def test_rerun_is_byte_identical(tmp_path):
    config = small_experiment()
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert a_files == b_files and a_files
    for rel in a_files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_archive_file_round_trips_bytewise(tmp_path):
    run_experiment(small_experiment(), tmp_path / "out")
    path = tmp_path / "out" / "melita" / "trend_run0_archive.json"
    original = path.read_text()
    data = json.loads(original)
    archive = load_archive(path)
    assert canonical_json(archive_to_dict(archive, data["config_hash"])) == original


def test_toy_media_run_emits_constants(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "labels": [{"name": "tm", "seed": 9}],
            "runs_per_method": 1,
            "run": {
                "domain": "toy_media",
                "steps": 5,
                "init_count": 30,
                "domain_params": {"width": 8, "height": 8},
            },
        }
    )
    run_experiment(config, tmp_path / "out")
    constants = json.loads((tmp_path / "out" / "constants.json").read_text())
    assert constants["vocabulary_size"] == 64
    assert len(constants["projection"]) == 16


# ------------------------------------------------------ domain independence


def test_harness_names_no_domain():
    """No harness module imports a domain's own module or spells a
    registered domain's name; what it needs of a domain it reads from the
    registry."""
    submodules = {m.name for m in pkgutil.iter_modules(melita.domains.__path__)}
    for path in sorted(Path(melita.harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                package = ["melita", "harness"][: 3 - node.level] if node.level else []
                module = ".".join(package + ([node.module] if node.module else []))
                names = {alias.name for alias in node.names}
                assert not module.startswith("melita.domains."), f"{path.name}: imports {module}"
                assert module != "melita.domains" or not names & submodules, f"{path.name}: {names}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("melita.domains."), f"{path.name}: {alias.name}"
            elif isinstance(node, ast.Constant):
                assert node.value not in DOMAINS, f"{path.name}:{node.lineno}: {node.value!r}"


def test_run_writes_the_registered_domains_constants(tmp_path, monkeypatch):
    class Stub(VectorPairDomain):
        name = "stub"
        constants = {"scale": 0.5, "layout": ["a", "b"], "seed": 7}

    monkeypatch.setitem(DOMAINS, "stub", Stub)
    config = ExperimentConfig.from_dict(
        {
            "labels": [{"name": "s", "seed": 3}],
            "runs_per_method": 1,
            "run": {"domain": "stub", "steps": 5, "init_count": 10},
        }
    )
    run_experiment(config, tmp_path)
    assert (tmp_path / "constants.json").read_text() == canonical_json(Stub.constants)


def test_unregistered_domain_fails_inside_the_run_loop(tmp_path):
    config = ExperimentConfig(labels=(Label("x", 1),), run_template={"domain": "nowhere"}, runs_per_method=1)
    with pytest.raises(ValueError, match="^unknown domain 'nowhere'"):
        run_experiment(config, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["complete"] is False and manifest["runs"] == []
    assert not (tmp_path / "constants.json").exists()


def test_distances_are_euclidean_and_each_registered_domains():
    table = distance_table()
    assert set(table) == {"euclidean"}.union(*(cls.distances for cls in DOMAINS.values()))
    assert table["topic_posterior"] is ToyMediaDomain.distances["topic_posterior"]


def test_a_domain_registered_after_import_brings_its_distances(tmp_path, monkeypatch):
    class Late(VectorPairDomain):
        name = "late"
        distances = {"norm": lambda payload: np.array([np.linalg.norm(payload)])}

    path = tmp_path / "archive.json"
    save_pair_archive(
        path, [pair_solution((0, 0), 0.5, [0.0, 0.0], [1.0]), pair_solution((1, 2), 0.6, [3.0, 4.0], [2.0])]
    )
    with pytest.raises(ValueError, match=r"^unknown distance 'norm'; available: \['euclidean', "):
        analyze_diversity(path, 0, "norm")
    monkeypatch.setitem(DOMAINS, "late", Late)
    report = analyze_diversity(path, 0, "norm")
    assert report["distance"] == "norm" and report["mean_distance"] == 5.0


# ------------------------------------------------------------------- compare


def fake_series(final):
    return [
        MetricsSample(step=i, coverage=final / 2, mean_fitness=final,
                      max_fitness=min(1.0, final + 0.05), qd_score=10 * final)
        for i in range(1, 4)
    ]


def write_runs(directory, finals, label="trend"):
    directory.mkdir(parents=True, exist_ok=True)
    for index, final in enumerate(finals):
        save_metrics(directory / f"{label}_run{index}_metrics.csv", fake_series(final))


def test_compare_identical_directories(tmp_path):
    write_runs(tmp_path / "a", [0.5, 0.6, 0.7])
    report = compare(tmp_path / "a", tmp_path / "a")
    assert len(report.rows) == 8  # 4 final + 4 AUC quantities
    for row in report.rows:
        assert row.mean_a == row.mean_b
        assert row.p_two_tail == pytest.approx(1.0, abs=0.05)
        assert not row.significant
    assert report.warnings == ()


def test_compare_detects_dominance(tmp_path):
    rng = np.random.default_rng(0)
    write_runs(tmp_path / "a", list(0.85 + 0.01 * rng.random(10)))
    write_runs(tmp_path / "b", list(0.30 + 0.01 * rng.random(10)))
    report = compare(tmp_path / "a", tmp_path / "b")
    for row in report.rows:
        assert row.mean_a > row.mean_b
        assert row.p_two_tail < 0.05
        assert row.significant

    table = compare_table(report)
    lines = table.strip().splitlines()
    assert lines[0].startswith("# AUC")
    assert lines[1] == "label,metric,mean_a,mean_b,u_statistic,p_two_tail,significant"
    assert len(lines) == 2 + 8


def test_compare_requires_two_runs(tmp_path):
    write_runs(tmp_path / "a", [0.5])
    write_runs(tmp_path / "b", [0.5])
    with pytest.raises(ValueError, match="insufficient"):
        compare(tmp_path / "a", tmp_path / "b")


def test_compare_warns_on_unequal_counts(tmp_path):
    write_runs(tmp_path / "a", [0.5, 0.6, 0.7])
    write_runs(tmp_path / "b", [0.5, 0.6])
    report = compare(tmp_path / "a", tmp_path / "b")
    assert any("unequal" in w for w in report.warnings)
    assert len(report.rows) == 8


def test_compare_label_mismatch(tmp_path):
    write_runs(tmp_path / "a", [0.5, 0.6], label="one")
    write_runs(tmp_path / "b", [0.5, 0.6], label="two")
    with pytest.raises(ValueError, match="no labels in common"):
        compare(tmp_path / "a", tmp_path / "b")

    write_runs(tmp_path / "a", [0.4, 0.5], label="two")
    report = compare(tmp_path / "a", tmp_path / "b")
    assert any("'one'" in w for w in report.warnings)


def test_compare_empty_directory(tmp_path):
    (tmp_path / "a").mkdir()
    with pytest.raises(ValueError, match="no metrics files"):
        compare(tmp_path / "a", tmp_path / "a")


@pytest.mark.parametrize("duplicate_final", [0.6, 0.9], ids=["equal_values", "different_values"])
def test_compare_rejects_two_files_with_one_run_index(tmp_path, capsys, duplicate_final):
    # run1 and run01 share run index 1, whether or not their values differ.
    write_runs(tmp_path / "a", [0.5, 0.6, 0.7])
    first, second = tmp_path / "a" / "trend_run01_metrics.csv", tmp_path / "a" / "trend_run1_metrics.csv"
    save_metrics(first, fake_series(duplicate_final))
    message = f"{first} and {second} share run index 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        compare(tmp_path / "a", tmp_path / "a")
    assert cli_main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "a"),
                     "--out", str(tmp_path / "table.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "table.csv").exists()


# ------------------------------------------------- diversity / medoids tools


def pair_solution(coords, fitness, text, visual):
    return Solution(
        artefacts=(
            Artefact(0, np.asarray(text, dtype=np.float64)),
            Artefact(1, np.asarray(visual, dtype=np.float64)),
        ),
        fitness=fitness,
        coords=coords,
    )


def save_pair_archive(path, solutions):
    archive = Archive((4, 4))
    for solution in solutions:
        archive.insert(solution)
    save_archive(path, archive, "test")
    return archive


def test_analyze_diversity_two_elites(tmp_path):
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            pair_solution((0, 0), 0.5, [0.0, 0.0], [1.0]),
            pair_solution((1, 2), 0.6, [3.0, 4.0], [2.0]),
        ],
    )
    report = analyze_diversity(path, 0, "euclidean")
    assert report["elites"] == 2
    assert report["mean_distance"] == pytest.approx(5.0)
    assert report["mean_nearest"] == pytest.approx(5.0)
    assert report["per_elite"][0]["coords"] == [0, 0]

    visual = analyze_diversity(path, 1, "euclidean")
    assert visual["mean_distance"] == pytest.approx(1.0)


def test_analyze_diversity_single_elite(tmp_path):
    path = tmp_path / "archive.json"
    save_pair_archive(path, [pair_solution((0, 0), 0.5, [1.0], [1.0])])
    report = analyze_diversity(path, 0, "euclidean")
    assert report["single_elite"] is True
    assert report["mean_distance"] == 0.0


def test_analyze_diversity_errors(tmp_path):
    path = tmp_path / "archive.json"
    save_pair_archive(path, [pair_solution((0, 0), 0.5, [1.0], [1.0])])
    with pytest.raises(ValueError, match="unknown distance"):
        analyze_diversity(path, 0, "manhattan")
    with pytest.raises(ValueError, match="modality"):
        analyze_diversity(path, 5, "euclidean")

    empty = tmp_path / "empty.json"
    save_pair_archive(empty, [])
    with pytest.raises(ValueError, match="no elites"):
        analyze_diversity(empty, 0, "euclidean")


def test_topic_posterior_distance(tmp_path):
    from melita.domains.toy_media import topic_posterior

    a = np.array([0, 1, 2, 3] * 3)
    b = np.array([60, 61, 62, 63] * 2)
    expected = float(np.linalg.norm(topic_posterior(a) - topic_posterior(b)))
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            Solution((Artefact(0, a), Artefact(1, np.zeros(2))), 0.5, (0, 0)),
            Solution((Artefact(0, b), Artefact(1, np.zeros(2))), 0.6, (1, 0)),
        ],
    )
    report = analyze_diversity(path, 0, "topic_posterior")
    assert report["mean_distance"] == report["mean_nearest"] == expected
    assert [e["mean"] for e in report["per_elite"]] == [expected, expected]


def test_mismatched_payload_shapes_name_the_modality(tmp_path, capsys):
    # (1,) against (2,) would broadcast to a wrong distance. The shapes are
    # rejected before any distance is computed, in numpy's words.
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            pair_solution((0, 0), 0.5, [1.0], [0.0]),
            pair_solution((1, 0), 0.6, [1.0, 2.0], [3.0]),
        ],
    )
    message = "modality 0: operands could not be broadcast together with shapes (1,) (2,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        analyze_diversity(path, 0, "euclidean")
    with pytest.raises(ValueError, match=re.escape(message)):
        medoid_exemplars(path, 1)
    assert medoid_exemplars(path, 1, weights=(0.0, 1.0))["total_cost"] == 3.0
    assert analyze_diversity(path, 1, "euclidean")["mean_distance"] == 3.0

    assert cli_main(["medoids", "--archive", str(path), "-k", "1"]) == 2
    assert message in capsys.readouterr().err
    assert cli_main(["medoids", "--archive", str(path), "-k", "1", "--weights", "0,1"]) == 0


def test_medoid_exemplars(tmp_path):
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            pair_solution((0, 0), 0.5, [0.0], [0.0]),
            pair_solution((0, 1), 0.6, [0.1], [0.1]),
            pair_solution((3, 0), 0.7, [10.0], [10.0]),
            pair_solution((3, 1), 0.8, [10.1], [10.1]),
        ],
    )
    report = medoid_exemplars(path, 2)
    assert report["k"] == 2
    assert sorted(m["cluster_size"] for m in report["medoids"]) == [2, 2]
    low, high = sorted(m["coords"][0] for m in report["medoids"])
    assert (low, high) == (0, 3)
    assert len(report["assignments"]) == 4

    with pytest.raises(ValueError, match="weights"):
        medoid_exemplars(path, 2, weights=(1.0,))
    with pytest.raises(ValueError):
        medoid_exemplars(path, 9)


def test_medoid_weights_select_modality(tmp_path):
    # Modality 0 separates {0,1} from {2,3}; modality 1 separates {0,2}
    # from {1,3}. Weighting one modality to zero flips the clustering.
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            pair_solution((0, 0), 0.5, [0.0], [0.0]),
            pair_solution((0, 1), 0.6, [0.1], [50.0]),
            pair_solution((3, 0), 0.7, [10.0], [0.1]),
            pair_solution((3, 1), 0.8, [10.1], [50.1]),
        ],
    )
    by_text = medoid_exemplars(path, 2, weights=(1.0, 0.0))
    groups = {}
    for entry in by_text["assignments"]:
        groups.setdefault(entry["cluster"], set()).add(tuple(entry["coords"]))
    assert set(map(frozenset, groups.values())) == {
        frozenset({(0, 0), (0, 1)}),
        frozenset({(3, 0), (3, 1)}),
    }

    by_visual = medoid_exemplars(path, 2, weights=(0.0, 1.0))
    groups = {}
    for entry in by_visual["assignments"]:
        groups.setdefault(entry["cluster"], set()).add(tuple(entry["coords"]))
    assert set(map(frozenset, groups.values())) == {
        frozenset({(0, 0), (3, 0)}),
        frozenset({(0, 1), (3, 1)}),
    }


def test_medoid_weights_must_be_finite_and_non_negative(tmp_path, capsys):
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            pair_solution((0, 0), 0.5, [0.0], [0.0]),
            pair_solution((3, 1), 0.8, [10.0], [10.0]),
        ],
    )
    # All-zero weights are rejected too: every distance would be zero, and
    # all but one "exemplar" would represent nothing.
    for weights, field in (((math.nan, 1.0), "weights[0]"), ((1.0, math.inf), "weights[1]"),
                           ((1.0, -1.0), "weights[1]"),
                           ((0.0, 0.0), "weights must include a positive weight")):
        with pytest.raises(ValueError, match=re.escape(field)):
            medoid_exemplars(path, 2, weights=weights)
    assert cli_main(["medoids", "--archive", str(path), "-k", "2", "--weights", "nan,1"]) == 2
    assert "weights[0] must be a finite non-negative number" in capsys.readouterr().err
    assert cli_main(["medoids", "--archive", str(path), "-k", "2", "--weights", "0,0"]) == 2
    assert "weights must include a positive weight" in capsys.readouterr().err


def test_analysis_k_and_modality_must_be_integers(tmp_path):
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            pair_solution((0, 0), 0.5, [0.0], [0.0]),
            pair_solution((3, 1), 0.8, [10.0], [10.0]),
        ],
    )
    for k in (2.5, True, 0, None):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer >= 1, got {k!r}")):
            medoid_exemplars(path, k)
    for modality in (1.0, True, -1, "0"):
        message = f"modality must be an integer >= 0, got {modality!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            analyze_diversity(path, modality, "euclidean")
    # The range checks keep their messages.
    with pytest.raises(ValueError, match=re.escape("k must be in [1, 2], got 3")):
        medoid_exemplars(path, 3)
    with pytest.raises(ValueError, match="modality 2 out of range"):
        analyze_diversity(path, 2, "euclidean")
    assert medoid_exemplars(path, 2)["k"] == 2
    assert analyze_diversity(path, 1, "euclidean")["modality"] == 1


def test_medoid_combine_squares_with_python_pow(tmp_path):
    # x ** 2 (libm pow) and x * x differ in the last bit for some x, and
    # the medoids report keeps the bits of **. A payload [x] against [0.0]
    # is at distance exactly x, so the cost of a two-elite archive at k=1
    # is the combine of (x, y) itself.
    rng = np.random.default_rng(50)
    for x, y in np.sqrt(rng.random((100000, 2)) * 10).tolist():
        expected = math.sqrt(math.fsum([x**2, y**2]))
        if expected != math.sqrt(math.fsum([x * x, y * y])):
            break
    else:
        pytest.fail("no pair whose squares differ between ** and *")
    path = tmp_path / "archive.json"
    save_pair_archive(
        path, [pair_solution((0, 0), 0.5, [0.0], [0.0]), pair_solution((1, 1), 0.6, [x], [y])]
    )
    assert medoid_exemplars(path, 1)["total_cost"].hex() == expected.hex()


def test_medoid_zero_weight_skips_toy_media_text(tmp_path):
    # Token payloads differ in length, so only the image modality can be
    # compared; a zero text weight must leave it out entirely.
    config = RunConfig(seed=4, steps=20, init_count=30)
    record = run(ToyMediaDomain(width=8, height=8), config, np.random.default_rng(4))
    path = tmp_path / "archive.json"
    save_archive(path, record.archive)

    report = medoid_exemplars(path, 3, weights=(0.0, 1.0))
    assert sum(m["cluster_size"] for m in report["medoids"]) == len(record.archive)
    assert len(report["assignments"]) == len(record.archive)
    with pytest.raises(ValueError, match="modality 0: operands could not be broadcast together"):
        medoid_exemplars(path, 3, weights=(1.0, 1.0))


def test_analysis_decodes_only_the_modalities_it_reads(tmp_path):
    config = RunConfig(seed=4, steps=20, init_count=30)
    data = archive_to_dict(run(ToyMediaDomain(width=8, height=8), config, np.random.default_rng(4)).archive)
    path = tmp_path / "archive.json"

    def write(mutate):
        changed = json.loads(json.dumps(data))
        mutate(changed["cells"][2]["artefacts"])
        path.write_text(json.dumps(changed))

    def text_diversity():
        return analyze_diversity(path, 0, "topic_posterior")

    def image_medoids():
        return medoid_exemplars(path, 2, weights=(0, 1))

    write(lambda artefacts: None)
    expected = text_diversity(), image_medoids()
    reads_images = [lambda: analyze_diversity(path, 1, "euclidean"), image_medoids,
                    lambda: medoid_exemplars(path, 2), lambda: load_archive(path)]

    write(lambda artefacts: artefacts[1]["payload"].update(pixels="AAAA!AAA"))
    assert text_diversity() == expected[0]
    for call in reads_images:
        with pytest.raises(ValueError, match=re.escape(f"{path}: field 'payload': field 'pixels': ")):
            call()

    write(lambda artefacts: artefacts[0].update(payload=[True]))
    assert image_medoids() == expected[1]
    with pytest.raises(ValueError, match=re.escape(f"{path}: field 'payload': payload holds a boolean")):
        text_diversity()

    write(lambda artefacts: artefacts[1].pop("payload"))
    for call in [text_diversity, *reads_images]:
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing field 'payload'")):
            call()


# ----------------------------------------------------------------------- CLI


def test_cli_run_and_compare(tmp_path, capsys):
    config = {
        "labels": [{"name": "cli", "seed": 7}],
        "runs_per_method": 2,
        "run": {"domain": "vector_pair", "steps": 20, "init_count": 10},
    }
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"

    assert cli_main(["run", "--config", str(config_path), "--out", str(out), "--quiet"]) == 0
    assert (out / "manifest.json").is_file()
    capsys.readouterr()

    table_path = tmp_path / "comparison.csv"
    code = cli_main(
        ["compare", "--a", str(out / "melita"), "--b", str(out / "mapelites"),
         "--out", str(table_path)]
    )
    assert code == 0
    assert table_path.read_text().startswith("# AUC")
    capsys.readouterr()


def test_cli_diversity_and_medoids(tmp_path, capsys):
    path = tmp_path / "archive.json"
    save_pair_archive(
        path,
        [
            pair_solution((0, 0), 0.5, [0.0, 0.0], [1.0]),
            pair_solution((1, 2), 0.6, [3.0, 4.0], [2.0]),
        ],
    )
    assert cli_main(["diversity", "--archive", str(path), "--modality", "0",
                     "--distance", "euclidean"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mean_distance"] == pytest.approx(5.0)

    assert cli_main(["medoids", "--archive", str(path), "-k", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total_cost"] == pytest.approx(0.0)


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["run", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err

    bad = write_config(tmp_path, {"labels": [], "run": {"domain": "vector_pair"}})
    assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "labels" in capsys.readouterr().err

    path = tmp_path / "archive.json"
    save_pair_archive(path, [pair_solution((0, 0), 0.5, [1.0], [1.0])])
    assert cli_main(["diversity", "--archive", str(path), "--modality", "0",
                     "--distance", "cosine"]) == 2
    assert "unknown distance" in capsys.readouterr().err

    assert cli_main(["medoids", "--archive", str(path), "-k", "1", "--weights", "a,b"]) == 2
    assert "error: --weights: could not convert string to float: 'a'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [np.zeros((3, 3, 3)), np.array([3, 64]), np.array([-1, 2]), np.array([0.5, 1.0])],
    ids=["image", "token_too_large", "negative_token", "vector_pair_floats"],
)
def test_cli_topic_posterior_rejects_non_token_payloads(tmp_path, capsys, payload):
    path = tmp_path / "archive.json"
    tokens = np.array([0, 1, 2])
    save_pair_archive(
        path,
        [
            Solution((Artefact(0, tokens), Artefact(1, np.zeros(2))), 0.5, (0, 0)),
            Solution((Artefact(0, payload), Artefact(1, np.zeros(2))), 0.6, (1, 0)),
        ],
    )
    assert cli_main(["diversity", "--archive", str(path), "--modality", "0",
                     "--distance", "topic_posterior"]) == 2
    message = "payload is not a 1-D integer token array in [0, 64)"
    assert capsys.readouterr().err == f"error: modality 0, distance 'topic_posterior': {message}\n"


def archive_without_fitness():
    archive = Archive((4, 4))
    archive.insert(pair_solution((0, 0), 0.5, [1.0], [1.0]))
    data = archive_to_dict(archive)
    del data["cells"][0]["fitness"]
    return data


@pytest.mark.parametrize("command", ["diversity", "medoids"])
@pytest.mark.parametrize(
    "make, field",
    [(dict, "axis_sizes"), (lambda: {"axis_sizes": [4, 4]}, "cells"),
     (archive_without_fitness, "fitness")],
    ids=["empty", "no_cells", "cell_without_fitness"],
)
def test_malformed_archive_names_file_and_field(tmp_path, capsys, command, make, field):
    path = tmp_path / "archive.json"
    path.write_text(json.dumps(make()))
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing field '{field}'")):
        load_archive(path)
    argv = {
        "diversity": ["diversity", "--archive", str(path), "--modality", "0",
                      "--distance", "euclidean"],
        "medoids": ["medoids", "--archive", str(path), "-k", "1"],
    }[command]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: missing field '{field}'\n"


def cells(*cells):
    """A 4 x 4 archive's dict holding one well-formed cell per (coords,
    fitness) given, in that order."""
    artefacts = [{"modality": 0, "payload": [1.0]}, {"modality": 1, "payload": [1.0]}]
    return {
        "axis_sizes": [4, 4],
        "cells": [
            {"coords": coords, "fitness": fitness, "birth_step": 0, "artefacts": artefacts}
            for coords, fitness in cells
        ],
    }


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "expected an object with field 'axis_sizes', got list"),
        ({"axis_sizes": 4, "cells": []}, "field 'axis_sizes': 'int' object is not iterable"),
        ({"axis_sizes": [4, 4], "cells": [[]]}, "expected an object with field 'artefacts', got list"),
        (cells(([0, 0], 0.5), ([1, 1], 0.5), ([2, 1], 0.7), ([1, 1], 0.9)),
         "field 'coords' of cell 3: [1, 1] repeats cell 1"),
        (cells(([0, 0], 0.5), ([1.7, 1], 0.5)), "field 'coords' of cell 1: expected integers, got [1.7, 1]"),
        (cells(([0, True], 0.5)), "field 'coords' of cell 0: expected integers, got [0, True]"),
        (cells(([0, 0], 0.5), ([2, 1], "0.5")), "field 'fitness' of cell 1: expected a number, got '0.5'"),
        (cells(([0, 0], True)), "field 'fitness' of cell 0: expected a number, got True"),
        (cells(([0, 0], 0.5), ([2, 1], 1.5)), "cell 1: fitness must lie in [0, 1], got 1.5"),
        (cells(([0, 0], float("nan"))), "cell 0: fitness must lie in [0, 1], got nan"),
        (cells(([0, 0], 10**400)), "field 'fitness' of cell 0: int too large to convert to float"),
        (cells(([0, 0], 0.5), ([1, 1], 0.5), ([4, 0], 0.5)),
         "cell 2: coords (4, 0) out of range for axes (4, 4)"),
        (cells(([0, 0], 0.5), ([1], 0.5)), "cell 1: coords must have one entry per modality"),
        ({"axis_sizes": [4, 4], "cells": [{
            "coords": [0, 0], "fitness": 0.5, "birth_step": 0,
            "artefacts": [{"modality": 1, "payload": [1.0]}, {"modality": 0, "payload": [1.0]}],
        }]},
         "cell 0: artefacts must cover modalities 0..N-1 in order, got (1, 0)"),
    ],
    ids=["list", "int_axis_sizes", "list_cell", "repeated_coords", "float_coords", "bool_coords",
         "string_fitness", "bool_fitness", "fitness_above_one", "nan_fitness", "huge_int_fitness",
         "coords_out_of_range", "short_coords", "reversed_artefacts"],
)
def test_wrongly_typed_archive_names_file_and_field(tmp_path, capsys, data, message):
    path = tmp_path / "archive.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_archive(path)
    assert cli_main(["diversity", "--archive", str(path), "--modality", "0",
                     "--distance", "euclidean"]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "rows, problem, parses",
    [
        ({3: "2,0.5"}, "line 3: not enough values to unpack", False),
        ({3: "2,0.5,0.5,0.5,x"}, "line 3: could not convert", False),
        # The readers keep non-finite values; compare rejects them.
        ({4: "3,nan,0.5,0.5,0.5"}, "line 4: coverage must be finite, got nan", True),
        ({3: "2,0.5,inf,0.5,5", 4: "3,0.5,-inf,0.5,5"}, "line 3: mean_fitness must be finite, got inf", True),
        ({3: "2,0.5,0.5,0.5,1e308", 4: "3,0.5,0.5,0.5,1e308"}, "intermediate overflow in fsum", True),
    ],
    ids=["2,0.5-not enough values to unpack", "2,0.5,0.5,0.5,x-could not convert", "nan_last_row",
         "inf_and_minus_inf", "sum_beyond_float_range"],
)
def test_malformed_metrics_row_names_file_and_line(tmp_path, capsys, rows, problem, parses):
    write_runs(tmp_path / "a", [0.5, 0.6])
    path = tmp_path / "a" / "trend_run0_metrics.csv"
    lines = path.read_text().splitlines()
    for number, row in rows.items():
        lines[number - 1] = row
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: {problem}"
    if parses:
        load_metrics(path)
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            load_metrics(path)
    with pytest.raises(ValueError, match=re.escape(message)):
        compare(tmp_path / "a", tmp_path / "a")
    assert cli_main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "a"),
                     "--out", str(tmp_path / "table.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_undecodable_metrics_and_config_name_their_file(tmp_path, capsys):
    write_runs(tmp_path / "a", [0.5, 0.6])
    metrics = tmp_path / "a" / "trend_run1_metrics.csv"
    data = metrics.read_bytes()
    metrics.write_bytes(data[:60] + b"\xff" + data[61:])
    assert cli_main(["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "a"),
                     "--out", str(tmp_path / "table.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {metrics}: 'utf-8' codec can't decode byte 0xff in position 60")
    assert err.count("\n") == 1

    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(MINIMAL).encode().replace(b"base", b"b\xffse"))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: invalid JSON: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compare", "diversity", "medoids"])
@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_cli_failed_report_write_leaves_no_partial_file(tmp_path, monkeypatch, command, existing):
    path = tmp_path / "archive.json"
    save_pair_archive(path, [pair_solution((0, 0), 0.5, [1.0], [1.0])])
    # A lone surrogate has no encoding, so writing the text fails once its
    # file is open.
    unwritable = "line\n" * 1000 + "\ud800"
    monkeypatch.setattr(cli, "compare", lambda a, b: {})
    monkeypatch.setattr(cli, "compare_table", lambda report: unwritable)
    monkeypatch.setattr(cli, "canonical_json", lambda report: unwritable)
    argv = {
        "compare": ["compare", "--a", "a", "--b", "b"],
        "diversity": ["diversity", "--archive", str(path), "--modality", "0",
                      "--distance", "euclidean"],
        "medoids": ["medoids", "--archive", str(path), "-k", "1"],
    }[command]
    out = tmp_path / "out"
    out.mkdir()
    target = out / "report"
    if existing is not None:
        target.write_bytes(existing)
    assert cli_main(argv + ["--out", str(target)]) == 2
    if existing is None:
        assert list(out.iterdir()) == []
    else:
        assert list(out.iterdir()) == [target]
        assert target.read_bytes() == existing


def test_cli_run_without_output_dir(tmp_path, capsys):
    config_path = write_config(tmp_path, MINIMAL)
    assert cli_main(["run", "--config", str(config_path)]) == 2
    assert "output" in capsys.readouterr().err
