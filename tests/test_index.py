"""The archive's occupied-cell index: lexicographic order, rows and the
occupancy mask after every kind of write the library makes, callers
cannot corrupt it, and a step changes only the entries its new cell
joins."""
import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from melita import INSERTED_EMPTY, Archive, Artefact, Solution, VectorPairDomain
from melita.archive import Cell
from melita.harness.serialize import archive_from_dict, archive_to_dict
from melita.selection import select_uniform
from melita.steps import melita_step, seed_archive


def solution(coords, fitness):
    artefacts = tuple(Artefact(m, np.array([float(c)])) for m, c in enumerate(coords))
    return Solution(artefacts, fitness, tuple(coords))


def assert_index(archive):
    scan = sorted(archive.cells)
    assert archive.occupied() == scan
    assert np.argwhere(archive.occupancy).tolist() == [list(c) for c in scan]
    for axis, size in enumerate(archive.axis_sizes):
        for index in range(size):
            assert archive.row(axis, index) == tuple(c for c in scan if c[axis] == index)


@st.composite
def histories(draw):
    """Small grids and interleaved writes: inserts, direct cell writes,
    snapshot copies and serialization round trips."""
    axes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    coords = st.tuples(*(st.integers(0, s - 1) for s in axes))
    fitness = st.floats(0.0, 1.0)
    op = st.one_of(
        st.tuples(st.just("insert"), coords, fitness),
        st.tuples(st.just("write"), coords, fitness),
        st.tuples(st.just("copy")),
        st.tuples(st.just("load")),
    )
    return axes, draw(st.lists(op, max_size=40))


@settings(max_examples=150, deadline=None, database=None)
@given(histories())
def test_index_matches_sorted_scan_after_every_write(history):
    axes, ops = history
    archive = Archive(axes)
    for kind, *args in ops:
        if kind == "insert":
            archive.insert(solution(*args))
        elif kind == "write":
            archive.cells[args[0]] = Cell(solution(*args), birth_step=0)
        elif kind == "copy":
            original = archive
            archive = copy.deepcopy(archive)
            assert_index(original)
        else:
            archive = archive_from_dict(archive_to_dict(archive))
        assert_index(archive)


def test_occupied_hands_out_a_copy():
    archive = Archive((3, 3))
    for coords in ((2, 1), (0, 2), (1, 0)):
        archive.insert(solution(coords, 0.5))
    archive.occupied().append((9, 9))
    archive.occupied().clear()
    archive.occupied().reverse()
    assert archive.occupied() == [(0, 2), (1, 0), (2, 1)]


def test_snapshot_index_is_independent():
    archive = Archive((3, 3))
    archive.insert(solution((1, 1), 0.5))
    snapshot = copy.deepcopy(archive)
    archive.insert(solution((0, 0), 0.5))
    snapshot.insert(solution((2, 2), 0.5))
    assert archive.occupied() == [(0, 0), (1, 1)]
    assert snapshot.occupied() == [(1, 1), (2, 2)]
    assert np.argwhere(archive.occupancy).tolist() == [[0, 0], [1, 1]]
    assert np.argwhere(snapshot.occupancy).tolist() == [[1, 1], [2, 2]]


def test_a_step_changes_only_the_entries_its_new_cell_joins():
    domain, rng = VectorPairDomain(), np.random.default_rng(101000)
    archive = Archive(domain.axis_sizes)
    seed_archive(archive, domain, 100, rng)
    keys = [(axis, i) for axis, size in enumerate(archive.axis_sizes) for i in range(size)]
    order, rows = archive.ordered(), {key: archive.row(*key) for key in keys}
    filled = 0
    for _ in range(2000):
        outcome = melita_step(archive, domain, rng, select_uniform).outcome
        before_order, before_rows = order, rows
        order, rows = archive.ordered(), {key: archive.row(*key) for key in keys}
        changed = {key for key in keys if rows[key] is not before_rows[key]}
        if outcome.kind == INSERTED_EMPTY:
            filled += 1
            assert order is not before_order
            assert changed == set(enumerate(outcome.coords))
        else:
            assert order is before_order and not changed
    assert 0 < filled < 2000
    assert_index(archive)
