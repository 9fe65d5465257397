import math

import numpy as np
import pytest

from melita import (
    INSERTED_EMPTY,
    REJECTED,
    REPLACED,
    Archive,
    Artefact,
    Solution,
)
from melita.harness.serialize import archive_to_dict, canonical_json, save_archive
from conftest import scalar_solution


def test_insert_into_empty_cell():
    archive = Archive((4, 4))
    outcome = archive.insert(scalar_solution((1, 2), 0.5))
    assert outcome.kind == INSERTED_EMPTY
    assert outcome.coords == (1, 2)
    assert len(archive) == 1
    assert archive.cells[(1, 2)].birth_step == 0


def test_strictly_fitter_replaces():
    archive = Archive((4, 4))
    archive.insert(scalar_solution((1, 2), 0.5))
    outcome = archive.insert(scalar_solution((1, 2), 0.7))
    assert outcome.kind == REPLACED
    assert outcome.old_fitness == 0.5
    assert outcome.new_fitness == 0.7
    assert archive.cells[(1, 2)].solution.fitness == 0.7


def test_equal_fitness_rejected():
    archive = Archive((4, 4))
    archive.insert(scalar_solution((1, 2), 0.5))
    assert archive.insert(scalar_solution((1, 2), 0.5)).kind == REJECTED
    assert archive.insert(scalar_solution((1, 2), 0.4)).kind == REJECTED
    assert archive.cells[(1, 2)].solution.fitness == 0.5


def test_eviction_folds_selection_stats():
    archive = Archive((4, 4))
    archive.insert(scalar_solution((0, 0), 0.3))
    archive.record_selection((0, 0))
    archive.record_selection((0, 0))
    archive.credit_insertion((0, 0))

    archive.insert(scalar_solution((0, 0), 0.9))
    assert archive.selected[(0, 0)] == 0
    assert archive.inserted[(0, 0)] == 0
    assert archive.evicted_selections == 2
    assert archive.total_selections == 2


def test_cells_are_frozen():
    archive = Archive((4, 4))
    archive.insert(scalar_solution((0, 0), 0.3))
    for name in ("birth_step", "times_selected", "offspring_inserted"):
        with pytest.raises(AttributeError):
            setattr(archive.cells[(0, 0)], name, 1)


def test_selection_count_invariant():
    rng = np.random.default_rng(5)
    archive = Archive((4, 4))
    for _ in range(300):
        coords = (int(rng.integers(4)), int(rng.integers(4)))
        archive.insert(scalar_solution(coords, float(rng.random())))
        if archive.cells.get(coords):
            archive.record_selection(coords)
    held = sum(archive.selected[c] for c in archive.cells)
    assert held == archive.selected.sum()
    assert archive.total_selections == held + archive.evicted_selections


def test_occupied_is_sorted():
    archive = Archive((4, 4))
    for coords in [(3, 1), (0, 2), (3, 0), (1, 1)]:
        archive.insert(scalar_solution(coords, 0.5))
    assert archive.occupied() == [(0, 2), (1, 1), (3, 0), (3, 1)]


def test_birth_step_records_selection_clock():
    archive = Archive((4, 4))
    archive.insert(scalar_solution((0, 0), 0.2))
    for _ in range(7):
        archive.record_selection((0, 0))
    archive.insert(scalar_solution((1, 1), 0.4))
    assert archive.cells[(1, 1)].birth_step == 7


def test_credit_insertion_lands_on_new_occupant():
    archive = Archive((4, 4))
    archive.insert(scalar_solution((2, 2), 0.4))
    archive.insert(scalar_solution((2, 2), 0.8))
    archive.credit_insertion((2, 2))
    assert archive.inserted[(2, 2)] == 1


def test_coords_validation():
    archive = Archive((4, 4))
    with pytest.raises(ValueError):
        archive.insert(scalar_solution((4, 0), 0.5))
    with pytest.raises(ValueError):
        archive.check_coords((1, 1, 1))
    with pytest.raises(ValueError):
        Archive((0, 4))


def test_cell_count():
    assert Archive((16, 16)).cell_count == 256
    assert Archive((3, 5, 2)).cell_count == 30


def archive_state(archive):
    archive.ordered()  # which marks the occupancy mask
    return (
        dict(archive.cells),
        archive.selected.tobytes(),
        archive.inserted.tobytes(),
        archive.occupancy.tobytes(),
        archive.total_selections,
        archive.evicted_selections,
        archive.ordered(),
    )


def test_insert_rejects_malformed_solutions(tmp_path):
    # Archive.check is the one gate for what an archive stores: each
    # malformed solution raises at insert, not at construction, and leaves
    # the archive as it was, even where it would replace a weaker elite.
    archive = Archive((4, 4))
    archive.insert(scalar_solution((1, 1), 0.5))
    archive.record_selection((1, 1))
    archive.credit_insertion((1, 1))
    archive.insert(scalar_solution((2, 3), np.float64(0.25)))
    a0, a1 = scalar_solution((1, 1), 0.5).artefacts
    table = [
        ((a1, a0), 0.9, (1, 1), "modalities 0..N-1 in order"),
        ((a0, a1), 0.9, (1,), "one entry per modality"),
        ((a0, a1), 0.9, (4, 0), r"out of range for axes \(4, 4\)"),
        ((a0, a1), 1.5, (1, 1), r"fitness must lie in \[0, 1\]"),
        ((a0, a1), -0.1, (1, 1), r"fitness must lie in \[0, 1\]"),
        ((a0, a1), math.nan, (0, 0), r"fitness must lie in \[0, 1\]"),
        ((a0, a1), 0.9, (np.int64(1), 1), "coords must be ints"),
        ((a0, a1), 0.9, (True, 1), "coords must be ints"),
        ((a0, a1), 1, (1, 1), "fitness must be a float"),
        ((a0, a1), True, (0, 0), "fitness must be a float"),
    ]
    for artefacts, fitness, coords, message in table:
        before = archive_state(archive)
        with pytest.raises(ValueError, match=message):
            archive.insert(Solution(artefacts, fitness, coords))
        assert archive_state(archive) == before
    assert archive.occupied() == [(1, 1), (2, 3)]
    save_archive(tmp_path / "archive.json", archive)
    assert (tmp_path / "archive.json").read_text() == canonical_json(archive_to_dict(archive))
