import copy
import importlib
from pathlib import Path

import numpy as np
import pytest

from melita import (
    METHODS,
    OFFSPRING_INVALID,
    REJECTED,
    SELECTIONS,
    Archive,
    NoElitesError,
    RunConfig,
    VectorPairDomain,
    archive_metrics,
    melita_step,
    run,
    seed_archive,
    select_ucb,
)
from melita.harness.serialize import archive_to_dict, canonical_json, save_archive
from tests.conftest import ScriptedDomain, hexed

# The package exports the run function under the module's own name.
run_module = importlib.import_module("melita.run")


def vp_config(**overrides):
    base = dict(seed=3, steps=50, init_count=20)
    base.update(overrides)
    return RunConfig(**base)


def test_zero_steps_returns_seeded_archive_only():
    record = run(VectorPairDomain(), vp_config(steps=0), np.random.default_rng(3))
    assert record.samples == ()
    assert record.reports == ()
    assert len(record.archive) > 0


def test_series_lengths_match_budget():
    record = run(VectorPairDomain(), vp_config(steps=75), np.random.default_rng(3))
    assert len(record.samples) == 75
    assert len(record.reports) == 75
    assert [s.step for s in record.samples] == list(range(1, 76))


def test_runs_are_reproducible():
    config = vp_config(method="melita", steps=120)
    a = run(VectorPairDomain(), config, np.random.default_rng(5))
    b = run(VectorPairDomain(), config, np.random.default_rng(5))
    assert a.samples == b.samples
    assert a.reports == b.reports
    assert archive_to_dict(a.archive) == archive_to_dict(b.archive)


def test_methods_diverge():
    a = run(VectorPairDomain(), vp_config(method="mapelites", steps=200),
            np.random.default_rng(6))
    b = run(VectorPairDomain(), vp_config(method="melita", steps=200),
            np.random.default_rng(6))
    assert archive_to_dict(a.archive) != archive_to_dict(b.archive)


def test_config_validation():
    with pytest.raises(ValueError):
        vp_config(method="hillclimb")
    with pytest.raises(ValueError):
        vp_config(selection="roulette")
    with pytest.raises(ValueError):
        vp_config(seed=-1)
    with pytest.raises(ValueError):
        vp_config(seed=2**64)
    with pytest.raises(ValueError):
        vp_config(steps=-1)
    with pytest.raises(ValueError):
        vp_config(ucb_c=-0.5)
    with pytest.raises(ValueError, match="^ucb_c"):
        vp_config(ucb_c=float("nan"))
    with pytest.raises(ValueError, match="^steps"):
        vp_config(steps=True)


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    coverage, mean_fitness, qd_score = map(float, capsys.readouterr().out.split())
    assert 0 < coverage <= 1 and 0 < mean_fitness <= 1 and qd_score > 0


def test_empty_archive_propagates_no_elites():
    domain = ScriptedDomain()  # generate() always returns None
    config = RunConfig(seed=0, init_count=10, steps=5)
    with pytest.raises(NoElitesError):
        run(domain, config, np.random.default_rng(0))


def test_snapshots():
    record = run(
        VectorPairDomain(),
        vp_config(steps=100, snapshot_every=25),
        np.random.default_rng(7),
    )
    assert [step for step, _ in record.snapshots] == [25, 50, 75, 100]
    final_steps, final_archive = record.snapshots[-1]
    assert archive_to_dict(final_archive) == archive_to_dict(record.archive)
    # snapshots are frozen copies, not views of the live archive
    coverage = [len(archive) for _, archive in record.snapshots]
    assert coverage == sorted(coverage)


def archive_state(archive):
    """Saved form plus every selection counter the saved form omits."""
    return (
        canonical_json(archive_to_dict(archive)),
        archive.total_selections,
        archive.evicted_selections,
        archive.selected.tolist(),
        archive.inserted.tolist(),
    )


def test_snapshot_copies_cells_and_shares_solutions(tmp_path):
    domain = VectorPairDomain()
    rng = np.random.default_rng(11)
    archive = Archive(domain.axis_sizes)
    seed_archive(archive, domain, 30, rng)

    def select(a, r):
        return select_ucb(a, r, c=0.5)

    for _ in range(100):
        melita_step(archive, domain, rng, select)
    snapshot = copy.deepcopy(archive)
    assert snapshot.cells is not archive.cells
    for coords, cell in archive.cells.items():
        assert snapshot.cells[coords] is cell
    for grid in (snapshot.selected, snapshot.inserted):
        assert not np.shares_memory(grid, archive.selected)
        assert not np.shares_memory(grid, archive.inserted)
    before = archive_state(archive)
    save_archive(tmp_path / "before.json", snapshot)

    for _ in range(300):
        melita_step(archive, domain, rng, select)
    assert archive_state(archive) != before
    assert archive_state(snapshot) == before
    save_archive(tmp_path / "after.json", snapshot)
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_snapshot_equals_shorter_run():
    config = vp_config(method="melita", selection="ucb", steps=200, snapshot_every=100)
    record = run(VectorPairDomain(), config, np.random.default_rng(config.seed))
    shorter = vp_config(method="melita", selection="ucb", steps=100)
    short = run(VectorPairDomain(), shorter, np.random.default_rng(shorter.seed))
    assert archive_state(record.snapshots[0][1]) == archive_state(short.archive)
    assert archive_state(record.snapshots[1][1]) == archive_state(record.archive)


def test_ucb_selection_runs():
    record = run(
        VectorPairDomain(),
        vp_config(selection="ucb", ucb_c=0.7, method="melita", steps=60),
        np.random.default_rng(8),
    )
    assert len(record.samples) == 60
    assert record.archive.total_selections == 60


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("method", METHODS)
def test_samples_equal_recomputed_metrics_bit_for_bit(monkeypatch, method, selection):
    recomputed = []

    def recording(step):
        def wrapped(archive, *args, **kwargs):
            report = step(archive, *args, **kwargs)
            recomputed.append(archive_metrics(archive, step=len(recomputed) + 1))
            return report

        return wrapped

    for name in ("melita_step", "vanilla_step"):
        monkeypatch.setattr(run_module, name, recording(getattr(run_module, name)))
    for seed in (1, 2, 3):
        recomputed.clear()
        config = RunConfig(seed=seed, method=method, selection=selection)
        record = run(VectorPairDomain(), config, np.random.default_rng(seed))
        assert len(recomputed) == config.steps
        assert [hexed(s) for s in record.samples] == [hexed(s) for s in recomputed]


@pytest.mark.parametrize("method", METHODS)
def test_step_loop_checks_one_solution_per_insertion(monkeypatch, method):
    # Archive.check runs once per stored solution: once in a step that
    # inserts, never in a rejected or invalid one.
    checks, per_step, recomputes = [], [], []
    check, recompute = Archive.check, run_module.archive_metrics

    def counting_check(self, solution):
        checks.append(1)
        check(self, solution)

    def counting(step):
        def wrapped(*args, **kwargs):
            before = len(checks)
            report = step(*args, **kwargs)
            per_step.append((report.source, len(checks) - before))
            return report

        return wrapped

    def counting_recompute(*args, **kwargs):
        recomputes.append(1)
        return recompute(*args, **kwargs)

    monkeypatch.setattr(Archive, "check", counting_check)
    for name in ("melita_step", "vanilla_step"):
        monkeypatch.setattr(run_module, name, counting(getattr(run_module, name)))
    monkeypatch.setattr(run_module, "archive_metrics", counting_recompute)
    kinds = set()
    # At sigma 1e200 variation overflows, so some offspring are invalid.
    for domain, steps in ((VectorPairDomain(), 2000), (VectorPairDomain(sigma=1e200), 300)):
        per_step.clear()
        recomputes.clear()
        config = RunConfig(seed=101000, method=method, steps=steps)
        with np.errstate(over="ignore"):
            record = run(domain, config, np.random.default_rng(101000))
        assert [source for source, _ in per_step] == [r.source for r in record.reports]
        inserted = sum(r.source != "none" for r in record.reports)
        assert 0 < inserted < steps
        assert all(count == (source != "none") for source, count in per_step)
        assert len(recomputes) <= 1
        kinds |= {r.outcome.kind for r in record.reports if r.source == "none"}
    assert kinds == {REJECTED, OFFSPRING_INVALID}
