import copy
import importlib

import numpy as np
import pytest

from melita import (
    METHODS,
    SELECTIONS,
    Archive,
    NoElitesError,
    RunConfig,
    Solution,
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
    base = dict(domain="vector_pair", seed=3, steps=50, init_count=20)
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
    with pytest.raises(ValueError):
        vp_config(axis_sizes=())
    with pytest.raises(ValueError):
        RunConfig(domain="", seed=0)
    with pytest.raises(ValueError, match="^ucb_c"):
        vp_config(ucb_c=float("nan"))
    with pytest.raises(ValueError, match="^steps"):
        vp_config(steps=True)


def test_domain_mismatch_rejected():
    with pytest.raises(ValueError):
        run(VectorPairDomain(), vp_config(domain="toy_media"), np.random.default_rng(0))
    with pytest.raises(ValueError):
        run(VectorPairDomain(), vp_config(axis_sizes=(4, 4)), np.random.default_rng(0))


def test_empty_archive_propagates_no_elites():
    domain = ScriptedDomain()  # generate() always returns None
    config = RunConfig(domain="scripted", seed=0, axis_sizes=(4, 4),
                       init_count=10, steps=5)
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
        config = RunConfig(domain="vector_pair", seed=seed, method=method, selection=selection)
        record = run(VectorPairDomain(), config, np.random.default_rng(seed))
        assert len(recomputed) == config.steps
        assert [hexed(s) for s in record.samples] == [hexed(s) for s in recomputed]


@pytest.mark.parametrize("method", METHODS)
def test_step_loop_builds_one_solution_per_insertion(monkeypatch, method):
    built, recomputes = [], []
    post_init = Solution.__post_init__
    seed_archive, recompute = run_module.seed_archive, run_module.archive_metrics

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def seeding(*args, **kwargs):
        count = seed_archive(*args, **kwargs)
        built.clear()
        return count

    def counting_recompute(*args, **kwargs):
        recomputes.append(1)
        return recompute(*args, **kwargs)

    monkeypatch.setattr(Solution, "__post_init__", counting_post_init)
    monkeypatch.setattr(run_module, "seed_archive", seeding)
    monkeypatch.setattr(run_module, "archive_metrics", counting_recompute)
    config = RunConfig(domain="vector_pair", seed=101000, method=method, steps=2000)
    record = run(VectorPairDomain(), config, np.random.default_rng(101000))
    inserted = sum(r.source != "none" for r in record.reports)
    assert 0 < inserted < 2000
    assert len(built) == inserted
    assert len(recomputes) <= 1
