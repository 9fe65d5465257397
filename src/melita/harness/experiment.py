"""Batch execution and the analysis commands behind the CLI."""
from __future__ import annotations

import copy
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .. import __version__
from ..checks import require_finite, require_int
from ..clustering import k_medoids
from ..domains import DOMAINS, make_domain
from ..metrics import MetricsSample, auc, diversity, euclidean_matrix
from ..run import METHODS, run, seeded_archive
from ..stats import rank_sum_test
from ..types import Solution
from .config import ExperimentConfig
from .serialize import config_hash, load_archive, metric_columns, save_archive, save_metrics, write_json
# Not called here; perfbench's tracer swaps it (and load_archive) by attribute and fails without it.
from .serialize import load_metrics  # noqa: F401

AUC_NOTE = "AUC: left Riemann sum over per-selection metric samples (unit step)."


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Execute every (label, method, run) cell and persist the results.

    Both methods for the same (label, run index) share a seed, so their
    initial populations match. Each such start is seeded once: the first
    method's run seeds its archive, and the second method's run starts
    from a copy of that archive and of the generator as seeding left
    them. Since ``generate`` draws only from its generator, that gives
    the files seeding again would. The manifest is written even when a
    run fails, with complete=false, and carries the resolved config so
    the experiment can be reproduced from the manifest alone.
    """
    target = out_dir if out_dir is not None else config.output_dir
    if target is None:
        raise ValueError("no output directory: pass out_dir or set output_dir in the config")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)

    digest = config_hash(config.to_dict())
    runs: list[dict] = []
    starts: dict[tuple[int, int], tuple] = {}  # (seed, init_count) -> (archive, generator)
    complete = False
    try:
        # Read from the registered class: an unregistered name has none and
        # fails in make_domain below, and a wrapped instance may not forward it.
        name, params = config.run_template["domain"], config.run_template.get("domain_params")
        constants = getattr(DOMAINS.get(name), "constants", None)
        if constants is not None:
            write_json(out / "constants.json", constants)
        for label in config.labels:
            for method in METHODS:
                (out / method).mkdir(exist_ok=True)
                for index in range(config.runs_per_method):
                    rc = config.run_config(label, index, method)
                    domain = make_domain(name, params)
                    # The first method seeds and keeps a copy; the second takes it over.
                    start = starts.pop((rc.seed, rc.init_count), None)
                    if start is None:
                        rng = np.random.default_rng(rc.seed)
                        start = seeded_archive(domain, rc.init_count, rng), rng
                        starts[rc.seed, rc.init_count] = copy.deepcopy(start)
                    archive, rng = start
                    # A variation may overflow; the binding bins what it yields
                    # (vector_pair leaves a vector of non-finite norm unclassified).
                    with np.errstate(over="ignore"):
                        record = run(domain, rc, rng, archive)

                    stem = f"{method}/{label.name}_run{index}"
                    blocks = {} if record.snapshots else None  # cells and artefacts its files share
                    save_metrics(out / f"{stem}_metrics.csv", record.samples)
                    save_archive(out / f"{stem}_archive.json", record.archive, digest, blocks)
                    entry = {
                        "label": label.name,
                        "method": method,
                        "run_index": index,
                        "seed": rc.seed,
                        "metrics_path": f"{stem}_metrics.csv",
                        "archive_path": f"{stem}_archive.json",
                    }
                    if record.snapshots:
                        snapshot_paths = []
                        for step, snapshot in record.snapshots:
                            rel = f"{stem}_snapshot{step}_archive.json"
                            save_archive(out / rel, snapshot, digest, blocks)
                            snapshot_paths.append(rel)
                        entry["snapshot_paths"] = snapshot_paths
                    runs.append(entry)
                    if progress is not None:
                        final = record.samples[-1] if record.samples else None
                        tail = (
                            f" coverage={final.coverage:.3f} mean_fitness={final.mean_fitness:.4f}"
                            if final
                            else ""
                        )
                        progress(f"{label.name} {method} run {index}: done{tail}")
        complete = True
    finally:
        manifest = {
            "library": "melita",
            "version": __version__,
            "complete": complete,
            "config_hash": digest,
            "experiment": config.to_dict(),
            "runs": runs,
        }
        write_json(out / "manifest.json", manifest)
    return manifest


_METRICS_FILE = re.compile(r"^(?P<label>.+)_run(?P<index>\d+)_metrics\.csv$")

FINAL_METRICS = ("final_mean_fitness", "final_max_fitness", "final_coverage", "final_qd_score")
AUC_METRICS = ("auc_mean_fitness", "auc_max_fitness", "auc_coverage", "auc_qd_score")
COMPARE_METRICS = FINAL_METRICS + AUC_METRICS


def _run_quantities(path: Path) -> dict[str, float]:
    _, *columns = metric_columns(path)  # each metric's whole series, step left out
    if not columns[0]:
        raise ValueError(f"{path}: empty metric series")
    series = dict(zip(MetricsSample._fields[1:], columns))
    try:  # a sum is finite exactly when its series is, so only a failure scans the rows
        aucs = {f"auc_{m}": auc(v) for m, v in series.items()}
        if not all(map(math.isfinite, aucs.values())):
            raise ValueError("a metric value is not finite")
    except (ValueError, OverflowError) as exc:  # also -inf + inf, or a sum beyond float range
        for number, row in enumerate(zip(*columns), start=2):
            for name, value in zip(series, row):
                if not math.isfinite(value):
                    raise ValueError(f"{path}: line {number}: {name} must be finite, got {value}") from None
        raise ValueError(f"{path}: {exc}") from None
    return {f"final_{m}": v[-1] for m, v in series.items()} | aucs | {"steps": len(columns[0])}


def _collect(directory: Path) -> dict[str, list[dict[str, float]]]:
    by_label: dict[str, dict[int, str]] = {}  # label -> run index -> file name
    for name in sorted(os.listdir(directory)):  # str order: Path comparisons cost more
        match = _METRICS_FILE.match(name)
        if match is None:
            continue
        index = int(match["index"])
        if (first := by_label.setdefault(match["label"], {}).setdefault(index, name)) != name:
            raise ValueError(f"{directory / first} and {directory / name} share run index {index}")
    if not by_label:
        raise ValueError(f"{directory}: no metrics files matching *_run<N>_metrics.csv")
    return {
        label: [_run_quantities(directory / runs[i]) for i in sorted(runs)]
        for label, runs in by_label.items()
    }


@dataclass(frozen=True)
class CompareRow:
    label: str
    metric: str
    mean_a: float
    mean_b: float
    statistic: float
    p_two_tail: float
    significant: bool


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]
    warnings: tuple[str, ...]


def compare(a_dir: str | Path, b_dir: str | Path) -> CompareReport:
    """Rank-sum comparison of two methods' metric files, per label and
    per final/AUC quantity."""
    a_runs = _collect(Path(a_dir))
    b_runs = _collect(Path(b_dir))

    warnings = []
    shared = sorted(set(a_runs) & set(b_runs))
    if not shared:
        raise ValueError("no labels in common between the two directories")
    for label in sorted(set(a_runs) ^ set(b_runs)):
        warnings.append(f"label {label!r} present on one side only; skipped")

    rows = []
    for label in shared:
        qa, qb = a_runs[label], b_runs[label]
        if len(qa) < 2 or len(qb) < 2:
            raise ValueError(
                f"label {label!r}: insufficient samples ({len(qa)} vs {len(qb)} runs; need >= 2 each)"
            )
        if len(qa) != len(qb):
            warnings.append(f"label {label!r}: unequal run counts ({len(qa)} vs {len(qb)})")
        a_steps, b_steps = (sorted({q["steps"] for q in runs}) for runs in (qa, qb))
        if len({*a_steps, *b_steps}) > 1:
            a_text, b_text = ("/".join(map(str, steps)) for steps in (a_steps, b_steps))
            warnings.append(f"label {label!r}: unequal run lengths ({a_text} vs {b_text} steps)")
        for metric in COMPARE_METRICS:
            va = [q[metric] for q in qa]
            vb = [q[metric] for q in qb]
            result = rank_sum_test(va, vb)
            rows.append(
                CompareRow(
                    label=label,
                    metric=metric,
                    mean_a=math.fsum(va) / len(va),
                    mean_b=math.fsum(vb) / len(vb),
                    statistic=result.statistic,
                    p_two_tail=result.p_value,
                    significant=result.p_value < 0.05,
                )
            )
    return CompareReport(tuple(rows), tuple(warnings))


def compare_table(report: CompareReport) -> str:
    lines = [f"# {AUC_NOTE}"]
    lines.append("label,metric,mean_a,mean_b,u_statistic,p_two_tail,significant")
    for r in report.rows:
        lines.append(
            f"{r.label},{r.metric},{r.mean_a:.9g},{r.mean_b:.9g},"
            f"{r.statistic:.9g},{r.p_two_tail:.9g},{str(r.significant).lower()}"
        )
    return "\n".join(lines) + "\n"


def compare_summary(report: CompareReport) -> str:
    lines = [AUC_NOTE]
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    width = max(len(m) for m in COMPARE_METRICS)
    for r in report.rows:
        flag = " *" if r.significant else ""
        lines.append(
            f"{r.label:>8}  {r.metric:<{width}}  a={r.mean_a:<12.6g} b={r.mean_b:<12.6g} "
            f"U={r.statistic:<8.6g} p={r.p_two_tail:.4g}{flag}"
        )
    lines.append("* two-tailed rank-sum p < 0.05")
    return "\n".join(lines) + "\n"


def distance_table() -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """``euclidean`` plus every domain's ``distances``, read from ``DOMAINS`` at each call."""
    return {
        "euclidean": lambda payload: np.asarray(payload, dtype=np.float64).ravel(),
        **{name: embed for cls in DOMAINS.values() for name, embed in cls.distances.items()},
    }


def _distance_matrix(solutions: list[Solution], modality: int, name: str) -> np.ndarray:
    """One modality's matrix of distance ``name``, each payload embedded once."""
    embed = distance_table()[name]
    try:
        vectors = [embed(s.artefacts[modality].payload) for s in solutions]
    except ValueError as exc:
        raise ValueError(f"modality {modality}, distance {name!r}: {exc}") from None
    odd = next((v.shape for v in vectors if v.shape != vectors[0].shape), None)
    if odd is not None:
        shapes = f"shapes {vectors[0].shape} {odd}"
        raise ValueError(f"modality {modality}: operands could not be broadcast together with {shapes}")
    # An inf or nan distance fails checked_distances, which names its pair.
    with np.errstate(over="ignore", invalid="ignore"):
        return euclidean_matrix(vectors)


def _fsum_or_inf(terms: tuple[float, ...]) -> float:
    """``math.fsum`` of non-negative terms, or inf where their sum passes float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _load_elites(archive_path: str | Path, modalities: tuple[int, ...] | None) -> list[Solution]:
    """A stored archive's elites in ascending coordinate order, decoding ``modalities``' payloads."""
    solutions = load_archive(archive_path, modalities=modalities).solutions()
    if not solutions:
        raise ValueError(f"{archive_path}: archive holds no elites")
    return solutions


def analyze_diversity(archive_path: str | Path, modality: int, distance_name: str) -> dict:
    """Per-elite mean and nearest-neighbour payload distances for one
    modality of a stored archive."""
    if distance_name not in (table := distance_table()):
        raise ValueError(f"unknown distance {distance_name!r}; available: {sorted(table)}")
    modality = require_int("modality", modality, 0)
    solutions = _load_elites(archive_path, (modality,))
    if modality >= len(solutions[0].artefacts):
        raise ValueError(f"modality {modality} out of range")
    report = diversity(_distance_matrix(solutions, modality, distance_name))
    return {
        "archive": str(archive_path),
        "modality": modality,
        "distance": distance_name,
        "elites": len(solutions),
        "single_elite": report.single_elite,
        "mean_distance": report.mean_distance,
        "mean_nearest": report.mean_nearest,
        "per_elite": [
            {
                "coords": list(s.coords),
                "mean": report.per_elite_mean[i],
                "nearest": report.per_elite_nearest[i],
            }
            for i, s in enumerate(solutions)
        ],
    }


def medoid_exemplars(
    archive_path: str | Path,
    k: int,
    weights: tuple[float, ...] | None = None,
    seed: int = 0,
) -> dict:
    """k representative elites under d = sqrt(sum_m w_m * d_m^2), with one
    Euclidean d_m matrix per modality of nonzero weight (so only those need
    a common payload shape); some weight must be positive. Terms square with
    ``np.float_power`` (libm ``pow`` per element, as Python's ``**``; ``d * d``
    and ``np.power`` differ in some last bits). One or two terms add in IEEE
    arithmetic, which is ``fsum`` for them; three or more take ``fsum`` per pair.
    A sum beyond float range is inf, which ``k_medoids`` rejects as a distance."""
    k = require_int("k", k, 1)
    seed = require_int("seed", seed, 0)
    read = None if weights is None else tuple(m for m, w in enumerate(weights) if w)
    solutions = _load_elites(archive_path, read)
    modalities = len(solutions[0].artefacts)
    if weights is None:
        weights = (1.0,) * modalities
    if len(weights) != modalities:
        raise ValueError(f"expected {modalities} weights, got {len(weights)}")
    for m, w in enumerate(weights):
        require_finite(f"weights[{m}]", w)
    if not any(weights):
        raise ValueError(f"weights must include a positive weight, got {list(weights)}")

    upper = np.triu_indices(len(solutions), 1)
    with np.errstate(over="ignore"):
        terms = [w * np.float_power(_distance_matrix(solutions, m, "euclidean")[upper], 2.0)
                 for m, w in enumerate(weights) if w]
        sums = (terms[0] if len(terms) == 1 else np.add(*terms) if len(terms) == 2
                else [_fsum_or_inf(pair) for pair in zip(*map(np.ndarray.tolist, terms))])
    combined = np.zeros((len(solutions),) * 2)
    combined[upper] = combined[upper[::-1]] = np.sqrt(sums)
    result = k_medoids(combined, k, np.random.default_rng(seed))
    sizes = [result.labels.count(cluster) for cluster in range(k)]
    return {
        "archive": str(archive_path),
        "k": k,
        "weights": list(weights),
        "total_cost": result.cost,
        "medoids": [
            {
                "coords": list(solutions[m].coords),
                "fitness": solutions[m].fitness,
                "cluster_size": sizes[i],
            }
            for i, m in enumerate(result.medoids)
        ],
        "assignments": [
            {"coords": list(s.coords), "cluster": int(result.labels[i])}
            for i, s in enumerate(solutions)
        ],
    }
