"""The archive's occupied-cell index: lexicographic order, rows and
row-major flat indices after every kind of write the library makes,
callers cannot corrupt it, a step that fills no new cell does not sort
the archive again, and only UCB selection builds the flat indices."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import melita.archive
import melita.metrics
import melita.selection
import melita.steps
from melita import INSERTED_EMPTY, Archive, Artefact, RunConfig, Solution, VectorPairDomain, run
from melita.archive import Cell
from melita.harness.serialize import archive_from_dict, archive_to_dict


def solution(coords, fitness):
    artefacts = tuple(Artefact(m, np.array([float(c)])) for m, c in enumerate(coords))
    return Solution(artefacts, fitness, tuple(coords))


def assert_index(archive):
    scan = sorted(archive.cells)
    assert archive.occupied() == scan
    flat = [np.ravel_multi_index(c, archive.axis_sizes) for c in scan]
    assert archive.flat_order().tolist() == flat
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


def test_steps_that_fill_no_cell_do_not_sort(monkeypatch):
    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    for module in (melita.archive, melita.metrics, melita.selection, melita.steps):
        monkeypatch.setattr(module, "sorted", counting_sorted, raising=False)
    config = RunConfig(domain="vector_pair", seed=101000, method="melita", steps=2000)
    record = run(VectorPairDomain(), config, np.random.default_rng(101000))
    filled = sum(r.outcome.kind == INSERTED_EMPTY for r in record.reports)
    assert 0 < filled < 2000
    assert 0 < len(sorts) <= filled + 1


@pytest.mark.parametrize("selection", ["uniform", "ucb"])
def test_only_ucb_builds_flat_indices_once_per_filled_cell(monkeypatch, selection):
    builds = []
    ravel = np.ravel_multi_index

    def counting_ravel(*args, **kwargs):
        builds.append(1)
        return ravel(*args, **kwargs)

    monkeypatch.setattr(np, "ravel_multi_index", counting_ravel)
    config = RunConfig(
        domain="vector_pair", seed=101000, method="melita", selection=selection, steps=2000
    )
    record = run(VectorPairDomain(), config, np.random.default_rng(101000))
    filled = sum(r.outcome.kind == INSERTED_EMPTY for r in record.reports)
    assert 0 < filled < 2000
    if selection == "uniform":
        assert builds == []
    else:
        assert 0 < len(builds) <= filled + 1
