"""Workloads, measurement and output checks behind ``run.py``.

Each workload is a closed loop with one client: one process, one
thread, experiments executed back to back through the public API
(``run_experiment``, then the analysis calls on the files it just wrote)
while another iteration fits in ``--seconds``, and at least twice (three
times when traced) so that iterations can be compared and averaged.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's entry points from outside (see ``spans.py``) and prints the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
status is 0 when every output checked out, 1 when a check failed and 2
when the benchmark could not start. See README.md for the metric table.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import melita
from melita.harness import (
    analyze_diversity,
    compare,
    compare_table,
    load_config,
    medoid_exemplars,
    run_experiment,
)
from melita.harness.experiment import COMPARE_METRICS
from melita.harness.serialize import canonical_json, load_archive, load_metrics
from spans import Tracer, install

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_PROBE = BENCH_DIR / "setup_probe.py"

DEFAULT_SEED = 101000
LABEL = "bench"
SETUP_PROBES = 7
METHODS = ("mapelites", "melita")
# medoid_exemplars on any toy_media archive: the token payloads of the
# text modality have different lengths, so the Euclidean distance fails.
KNOWN_DEFECT = "operands could not be broadcast together"

# The speed probe: a fixed pure-Python loop timed in chunks of about a
# millisecond and a half between the timed operations, for PROBE_SHARE of
# the time measured. Timings are reported scaled to a core on which one
# chunk takes PROBE_REFERENCE_S, about the median on the machine the
# benchmark was tuned on (see README.md, "Machine speed").
PROBE_LOOP = 20_000
PROBE_SHARE = 0.02
PROBE_REFERENCE_S = 1.5e-3

_VP = {"domain": "vector_pair", "steps": 2000, "init_count": 100, "axis_sizes": [16, 16]}


@dataclass(frozen=True)
class Workload:
    """One experiment config plus its analysis. ``compare`` runs once per
    pass; every other analysis runs on each final archive of the methods
    in ``analysis_methods``, so that the analysis time averages over
    archives of different sizes."""

    why: str
    run: dict
    analysis: tuple[tuple, ...]
    runs_per_method: int
    analysis_passes: int = 1
    analysis_methods: tuple[str, ...] = ("melita",)
    known_defect: tuple | None = None

    def analysis_plan(self, out: Path) -> list[tuple[tuple, Path | None]]:
        archives = [
            _archive(out, method, i)
            for method in self.analysis_methods
            for i in range(self.runs_per_method)
        ]
        return [
            (op, archive)
            for op in self.analysis
            for archive in ([None] if op[0] == "compare" else archives)
        ]


WORKLOADS = {
    "vp_protocol": Workload(
        why="criterion-7 run template; cheap coherence, so archive, step and metrics code dominate; "
        "k-medoids makes analysis the clustering layer's workload",
        run={**_VP, "selection": "uniform"},
        # Two initial medoid draws per archive: the number of PAM swaps
        # varies with the draw, and averaging two about halves the spread of
        # the analysis work between workload seeds (README.md).
        analysis=(("compare",), ("medoids", 5, 0), ("medoids", 5, 1), ("diversity", 0, "euclidean")),
        runs_per_method=3,
    ),
    "media": Workload(
        why="toy_media 32x32; coherence is most of a transverse step and image payloads make "
        "the heaviest file writes",
        run={
            "domain": "toy_media",
            "steps": 500,
            "init_count": 100,
            "axis_sizes": [16, 16],
            "selection": "uniform",
            "domain_params": {"width": 32, "height": 32},
        },
        analysis=(("compare",), ("diversity", 0, "topic_posterior"), ("diversity", 1, "euclidean")),
        runs_per_method=2,
        analysis_passes=2,
        analysis_methods=METHODS,
        known_defect=("medoids", 5, 0),
    ),
    "vp_ucb_snapshots": Workload(
        why="UCB selection scans every cell each step, and snapshots add deepcopies and many "
        "small archive writes",
        run={**_VP, "selection": "ucb", "snapshot_every": 100},
        analysis=(("compare",),),
        runs_per_method=3,
        analysis_passes=30,
    ),
}


class SpeedProbe:
    """Measures how fast this core runs the same pure-Python loop while the
    benchmark runs: other tenants of a shared host slow every process on it
    by up to 1.7x, for seconds to minutes at a time."""

    def __init__(self) -> None:
        self.chunks: list[float] = []

    def after(self, seconds: float) -> None:
        """Probe for PROBE_SHARE of ``seconds`` just measured, at least one
        chunk, so that the chunks sample the run evenly in time."""
        end = time.perf_counter() + PROBE_SHARE * seconds
        while True:
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOP):
                total += i * i % 7
            now = time.perf_counter()
            self.chunks.append(now - start)
            if now >= end:
                return

    def scale(self) -> float:
        """Reference chunk time over the mean chunk time of this run."""
        return PROBE_REFERENCE_S / statistics.fmean(self.chunks)


class Ledger:
    """Operations attempted and failed. An operation is one run or one
    analysis call; the known medoids defect is counted apart from
    unexpected failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.problems: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


@dataclass
class Iteration:
    wall_s: float
    run_s: dict[str, float]
    analysis_s: dict[str, list[float]]
    analysis_outputs: list[str]
    file_digests: dict[str, str] = field(default_factory=dict)
    run_digests: dict[str, str] = field(default_factory=dict)
    run_files: dict[str, list[str]] = field(default_factory=dict)
    bytes_written: int = 0


def _run_digest(out: Path, paths: list[str]) -> str:
    """Digest of a run's values: metric series (at the CSV's 9 significant
    digits, so a more precise CSV format keeps the digest), then per elite
    its coords, fitness bits and payload bytes."""
    h = hashlib.sha256()
    for s in load_metrics(out / paths[0]):
        h.update(
            b"%d,%.9g,%.9g,%.9g,%.9g\n"
            % (s.step, s.coverage, s.mean_fitness, s.max_fitness, s.qd_score)
        )
    for rel in paths[1:]:
        archive = load_archive(out / rel)
        h.update(f"archive {len(archive)}\n".encode())
        for coords in archive.occupied():
            solution = archive.cells[coords].solution
            h.update(f"{coords} {solution.fitness.hex()}\n".encode())
            for artefact in solution.artefacts:
                payload = np.asarray(artefact.payload)
                kind = "<i8" if np.issubdtype(payload.dtype, np.integer) else "<f8"
                payload = np.ascontiguousarray(payload, dtype=kind)
                h.update(f"{artefact.modality} {kind} {payload.shape}\n".encode())
                h.update(payload.tobytes())
    return h.hexdigest()


def _check_analysis(op: tuple, archive: Path | None, result, elite_counts: dict[Path, int]) -> str:
    """Raise ValueError when an analysis result is malformed; otherwise
    return its canonical text for the cross-iteration check.
    ``elite_counts`` caches the size of each archive already loaded."""
    if op[0] == "compare":
        if result.warnings:
            raise ValueError(f"compare warned: {result.warnings}")
        if len(result.rows) != len(COMPARE_METRICS):
            raise ValueError(f"compare gave {len(result.rows)} rows")
        for row in result.rows:
            if not 0.0 <= row.p_two_tail <= 1.0:
                raise ValueError(f"compare {row.metric}: p = {row.p_two_tail}")
        return compare_table(result)
    if archive not in elite_counts:
        elite_counts[archive] = len(load_archive(archive))
    elites = elite_counts[archive]
    if op[0] == "diversity":
        if result["elites"] != elites or len(result["per_elite"]) != elites:
            raise ValueError(f"diversity covers {result['elites']} of {elites} elites")
        if not result["mean_distance"] >= result["mean_nearest"] >= 0.0:
            raise ValueError("diversity: nearest distance exceeds mean distance")
    elif op[0] == "medoids":
        sizes = [m["cluster_size"] for m in result["medoids"]]
        if len(sizes) != op[1] or sum(sizes) != elites or len(result["assignments"]) != elites:
            raise ValueError(f"medoids: clusters {sizes} do not partition {elites} elites")
    return canonical_json(result)


def _archive(out: Path, method: str, index: int) -> Path:
    return out / method / f"{LABEL}_run{index}_archive.json"


def _call_analysis(op: tuple, archive: Path | None, out: Path):
    if op[0] == "compare":
        return compare(out / "melita", out / "mapelites")
    if op[0] == "diversity":
        return analyze_diversity(archive, op[1], op[2])
    if op[0] == "medoids":
        return medoid_exemplars(archive, op[1], seed=op[2])
    raise ValueError(f"unknown analysis {op!r}")


def run_iteration(workload: Workload, config, out: Path, ledger: Ledger, tracer=None,
                  probe: SpeedProbe | None = None) -> Iteration:
    """One experiment and its analysis passes. With a tracer, every call
    runs inside ``spans.install`` and the benchmark's own calls are spans
    too. With a probe, it runs after every run and analysis call, and its
    time is kept out of every timing. Outputs are digested afterwards,
    outside any span."""
    if out.exists():
        shutil.rmtree(out)
    if tracer is None:
        scope = contextlib.nullcontext()
        experiment = run_experiment
        analyse = _call_analysis
    else:
        scope = install(tracer)
        experiment = tracer.wrap("harness.run_experiment", run_experiment)
        analyse = tracer.wrap("harness.analysis", _call_analysis)

    # stamps[i] ends run i; marks[i] is where run i started, after the
    # previous run's probe.
    stamps: list[float] = []
    marks: list[float] = []

    def progress(message: str) -> None:
        stamps.append(time.perf_counter())
        if probe is not None:
            probe.after(stamps[-1] - marks[-1])
        marks.append(time.perf_counter())

    runs = workload.runs_per_method * len(METHODS)
    ledger.attempted += runs
    results = []
    analysis_s: dict[str, list[float]] = {}
    with scope:
        start = time.perf_counter()
        marks.append(start)
        manifest = experiment(config, out, progress=progress)
        wall = time.perf_counter() - start - sum(m - s for s, m in zip(stamps, marks[1:]))
        plan = workload.analysis_plan(out)
        for _ in range(workload.analysis_passes):
            for op, archive in plan:
                call_start = time.perf_counter()
                try:
                    results.append((op, archive, analyse(op, archive, out)))
                except Exception as exc:
                    results.append((op, archive, exc))
                key = f"{op} {archive.name if archive else ''}"
                elapsed = time.perf_counter() - call_start
                analysis_s.setdefault(key, []).append(elapsed)
                if probe is not None:
                    probe.after(elapsed)

    outputs = []
    elite_counts: dict[Path, int] = {}
    for op, archive, result in results:
        ledger.attempted += 1
        try:
            if isinstance(result, Exception):
                raise result
            outputs.append(_check_analysis(op, archive, result, elite_counts))
        except Exception as exc:
            ledger.fail(f"analysis {op} on {archive} failed: {exc!r}")
            outputs.append(f"failed: {exc!r}")

    it = Iteration(wall, {}, analysis_s, outputs)
    if not manifest["complete"] or len(manifest["runs"]) != runs or len(stamps) != runs:
        ledger.fail(f"manifest lists {len(manifest['runs'])} of {runs} runs", runs)
    # The progress callback fires once per run, after its files, in
    # manifest order; a run's time is the gap since the previous call.
    for entry, stamp, previous in zip(manifest["runs"], stamps, marks):
        key = f"{entry['method']}/{entry['label']}_run{entry['run_index']}"
        it.run_s[key] = stamp - previous
        it.run_files[key] = [entry["metrics_path"], entry["archive_path"], *entry.get("snapshot_paths", [])]
        it.run_digests[key] = _run_digest(out, it.run_files[key])
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        it.bytes_written += len(data)
        it.file_digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return it


def probe_known_defect(workload: Workload, out: Path, ledger: Ledger) -> str:
    """Attempt the known failing analysis once on the last iteration's
    files, outside every timing and span."""
    op = workload.known_defect
    archive = _archive(out, "melita", 0)
    ledger.attempted += 1
    try:
        result = _call_analysis(op, archive, out)
    except ValueError as exc:
        if KNOWN_DEFECT in str(exc):
            ledger.known += 1
            return f"known defect: {op[0]} raised {exc}"
        ledger.fail(f"known-defect probe {op} raised an unexpected error: {exc!r}")
        return "unexpected failure"
    try:
        _check_analysis(op, archive, result, {})
    except ValueError as exc:
        ledger.fail(f"known-defect probe {op} returned a malformed result: {exc}")
        return "malformed result"
    return f"known defect no longer reproduces: {op[0]} succeeded"


def compare_iterations(name: str, first: Iteration, other: Iteration, ledger: Ledger) -> None:
    """Count every run and analysis output of ``other`` that differs from
    ``first`` as a failed operation."""
    shared = {
        path for path in set(first.file_digests) | set(other.file_digests)
        if not any(path in files for files in other.run_files.values())
    }
    shared_ok = all(first.file_digests.get(p) == other.file_digests.get(p) for p in shared)
    for key, files in other.run_files.items():
        same = shared_ok and first.run_digests.get(key) == other.run_digests[key] and all(
            first.file_digests.get(p) == other.file_digests.get(p) for p in files
        )
        if not same:
            ledger.fail(f"{name}: run {key} differs from the first iteration")
    for i, (a, b) in enumerate(zip(first.analysis_outputs, other.analysis_outputs)):
        if a != b:
            ledger.fail(f"{name}: analysis output {i} differs from the first iteration")


def check_reference(workload_name: str, it: Iteration, ledger: Ledger) -> None:
    pinned = json.loads(REFERENCE.read_text())["workloads"].get(workload_name)
    if pinned is None:
        ledger.fail(f"no reference for {workload_name} in {REFERENCE.name}", len(it.run_digests))
        return
    for key in sorted(set(pinned) | set(it.run_digests)):
        if pinned.get(key) != it.run_digests.get(key):
            ledger.fail(f"run {key} differs from the pinned reference at seed {DEFAULT_SEED}")


def write_reference(workload_name: str, it: Iteration) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
    data["workloads"][workload_name] = it.run_digests
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _fits(done: int, start: float, seconds: float, minimum: int) -> bool:
    """Whether to start another iteration: always until ``minimum`` are
    done, then only when one more of average length ends nearer to
    ``seconds`` after ``start`` than stopping now would."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 <= seconds


def measure_setup(config_path: Path, probe: SpeedProbe) -> float:
    """Median wall time from spawning a fresh interpreter until it has
    imported melita, parsed the config and built the domain."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(SETUP_PROBE), str(config_path)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if status != 0 or line != "ready":
            raise RuntimeError(f"setup probe exited with {status} after printing {line!r}")
        times.append(elapsed)
        probe.after(elapsed)
    return statistics.median(times)


def end_to_end(workload: Workload, iterations: list[Iteration], setup_s: float, scale: float) -> dict:
    """Every timing is a mean over all the time measured in the process,
    multiplied by the speed probe's ``scale``: the same timing on a core
    that runs the probe loop at the reference speed. The note gives each
    timing unscaled."""
    selections = workload.run["steps"] * workload.runs_per_method * len(METHODS)
    repeats = len(iterations)

    def timed(seconds: float, note: str) -> tuple:
        return (seconds * scale, "s", f"{note}; {seconds:.4g} s unscaled")

    def run_mean(method: str) -> tuple:
        times = [t for it in iterations for k, t in it.run_s.items() if k.startswith(method + "/")]
        return timed(statistics.fmean(times), f"mean of {len(times)} runs")

    passes = repeats * workload.analysis_passes
    rate = selections * repeats / sum(it.wall_s for it in iterations)
    return {
        "selections_per_s": (rate / scale, "1/s", f"{repeats} iterations; {rate:.4g}/s unscaled"),
        "melita_run_s": run_mean("melita"),
        "mapelites_run_s": run_mean("mapelites"),
        "analysis_s": timed(
            sum(t for it in iterations for ts in it.analysis_s.values() for t in ts) / passes,
            f"mean of {passes} passes",
        ),
        "setup_s": timed(setup_s, f"median of {SETUP_PROBES}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", ""),
    }


def per_layer(summaries: list[dict], steps: dict, untraced: list[Iteration],
              traced: list[Iteration]) -> dict:
    """Per-layer metrics from the traced iterations: call counts of the
    first (they repeat exactly), seconds averaged over all of them."""
    def avg(names: tuple[str, ...], key: str) -> float:
        return statistics.fmean(sum(s.get(n, {}).get(key, 0) for n in names) for s in summaries)

    def calls(*names: str) -> tuple:
        return (int(sum(summaries[0].get(n, {}).get("calls", 0) for n in names)), "count", "")

    def secs(*names: str) -> tuple:
        return (avg(names, "s"), "s", "")

    metrics = {}
    for fn in ("describe", "cohere", "vary", "generate"):
        metrics[f"domains.{fn}.calls"] = calls(f"domains.{fn}")
        metrics[f"domains.{fn}.s"] = secs(f"domains.{fn}")
    for fn in ("occupied", "insert"):
        metrics[f"archive.{fn}.calls"] = calls(f"archive.{fn}")
        metrics[f"archive.{fn}.s"] = secs(f"archive.{fn}")
    metrics["selection.calls"] = calls("selection.uniform", "selection.ucb")
    metrics["selection.s"] = secs("selection.uniform", "selection.ucb")
    step_spans = ("steps.melita_step", "steps.vanilla_step", "steps.transverse_candidates")
    metrics["steps.self_s"] = (avg(step_spans, "self_s"), "s", "")
    metrics["metrics.archive_metrics.s"] = secs("metrics.archive_metrics")
    metrics["run.seed_archive.s"] = secs("run.seed_archive")
    metrics["run.self_s"] = (avg(("run.run",), "self_s"), "s", "")
    metrics["run.snapshot.calls"] = calls("run.snapshot")
    metrics["run.snapshot.s"] = secs("run.snapshot")
    metrics["serialize.save_archive.calls"] = calls("serialize.save_archive")
    metrics["serialize.save_archive.s"] = secs("serialize.save_archive")
    metrics["serialize.save_metrics.s"] = secs("serialize.save_metrics")
    metrics["serialize.bytes_written"] = (traced[0].bytes_written, "B", "")
    metrics["serialize.load.s"] = secs("serialize.load_archive", "serialize.load_metrics")
    metrics["clustering.k_medoids.s"] = secs("clustering.k_medoids")
    metrics["metrics.diversity.s"] = secs("metrics.diversity")
    metrics["stats.rank_sum_test.calls"] = calls("stats.rank_sum_test")
    metrics["stats.rank_sum_test.s"] = secs("stats.rank_sum_test")

    metrics["steps.evaluations"] = (sum(steps.get(f"{m}.evaluations", 0) for m in METHODS), "count", "")
    for m in METHODS:
        n = steps.get(f"{m}.selections", 0)
        base = f"of {n} selections"
        metrics[f"steps.evaluations_per_selection.{m}"] = (steps.get(f"{m}.evaluations", 0) / n, "ratio", base)
        metrics[f"steps.useful_ratio.{m}"] = (steps.get(f"{m}.useful", 0) / n, "ratio", base)
        metrics[f"steps.invalid_ratio.{m}"] = (steps.get(f"{m}.invalid", 0) / n, "ratio", base)

    overhead = statistics.median(it.wall_s for it in traced) / statistics.median(it.wall_s for it in untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio", "untraced/traced selections_per_s")
    top = ("harness.run_experiment",)
    metrics["trace.uncovered_ratio"] = (
        avg(top, "self_s") / avg(top, "s"), "ratio", "run_experiment time outside child spans",
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help=f"pin this workload's run digests at seed {DEFAULT_SEED} in {REFERENCE.name}",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 0")

    workload = WORKLOADS[args.workload]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "melita": melita.__version__,
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_DIR))
    ledger = Ledger()
    notes: list[str] = []
    try:
        config_path = scratch / "experiment.json"
        config_path.write_text(json.dumps({
            "labels": [{"name": LABEL, "seed": args.seed}],
            "runs_per_method": workload.runs_per_method,
            "run": workload.run,
        }))
        config = load_config(config_path)
        out = scratch / "out"

        if args.trace:
            iterations: list[Iteration] = []
            traced: list[Iteration] = []
            summaries: list[dict] = []
            step_counts: list[dict] = []
            start = time.perf_counter()
            # Untraced, traced, traced, then alternating: the overhead ratio
            # compares neighbours in time, and counts repeat across >= 2.
            for kind in itertools.chain("utt", itertools.cycle("ut")):
                if not _fits(len(iterations) + len(traced), start, args.seconds, 3):
                    break
                if kind == "u":
                    iterations.append(run_iteration(workload, config, out, ledger))
                    continue
                tracer = Tracer()
                traced.append(run_iteration(workload, config, out, ledger, tracer))
                summaries.append(tracer.summary())
                step_counts.append(dict(tracer.steps))
            for i, it in enumerate(iterations[1:], start=1):
                compare_iterations(f"iteration {i}", iterations[0], it, ledger)
            for i, it in enumerate(traced):
                compare_iterations(f"traced iteration {i}", iterations[0], it, ledger)
            calls = [{name: s["calls"] for name, s in summary.items()} for summary in summaries]
            if any(c != calls[0] for c in calls) or any(s != step_counts[0] for s in step_counts):
                ledger.fail("span call counts or step counts differ between traced iterations")
            metrics = per_layer(summaries, step_counts[0], iterations, traced)
        else:
            probe = SpeedProbe()
            setup_s = measure_setup(config_path, probe)
            iterations = []
            start = time.perf_counter()
            while _fits(len(iterations), start, args.seconds, 2):
                iterations.append(run_iteration(workload, config, out, ledger, probe=probe))
            for i, it in enumerate(iterations[1:], start=1):
                compare_iterations(f"iteration {i}", iterations[0], it, ledger)
            metrics = end_to_end(workload, iterations, setup_s, probe.scale())
            notes.append(f"speed probe: {len(probe.chunks)} chunks, mean "
                         f"{statistics.fmean(probe.chunks) * 1e3:.4g} ms, scale {probe.scale():.4g}")

        if workload.known_defect is not None:
            notes.append(probe_known_defect(workload, out, ledger))
        if args.seed == DEFAULT_SEED:
            if args.write_reference:
                write_reference(args.workload, iterations[0])
                notes.append(f"wrote {REFERENCE.name} for {args.workload}")
            else:
                check_reference(args.workload, iterations[0], ledger)
    except Exception:
        ledger.problems.append(traceback.format_exc())
        ledger.failed = max(ledger.failed, 1)
        ledger.attempted = max(ledger.attempted, 1)
        metrics = {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    correct = ledger.failed == 0 and bool(metrics)
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for note in notes:
        print(note)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit:<6} {note}")
    failures = ledger.failed + ledger.known
    print(f"{'ops_failed_ratio':<40} {failures / ledger.attempted:>14.6g} {'ratio':<6} "
          f"{failures} of {ledger.attempted} ops, {ledger.known} of them the known defect")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
