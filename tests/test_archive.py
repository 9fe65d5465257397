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


def test_solution_validation():
    good = (Artefact(0, np.array([1.0])), Artefact(1, np.array([1.0])))
    with pytest.raises(ValueError):
        Solution(good, 1.5, (0, 0))
    with pytest.raises(ValueError):
        Solution(good, 0.5, (0,))
    with pytest.raises(ValueError):
        Solution((good[1], good[0]), 0.5, (0, 0))
