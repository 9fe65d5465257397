import itertools
import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from melita import Archive, Artefact, NoElitesError, Solution, select_ucb, select_uniform
from melita.archive import Cell
from conftest import scalar_solution


def _archive_with(coords_list):
    archive = Archive((4, 4))
    for coords in coords_list:
        archive.insert(scalar_solution(coords, 0.5))
    return archive


def test_empty_archive_raises():
    archive = Archive((4, 4))
    with pytest.raises(NoElitesError):
        select_uniform(archive, np.random.default_rng(0))
    with pytest.raises(NoElitesError):
        select_ucb(archive, np.random.default_rng(0))


def test_uniform_consumes_one_indexed_draw():
    # The documented contract: one integers draw over the sorted
    # occupied list. Replaying it from the same rng state must land on
    # the same cell.
    coords_list = [(2, 3), (0, 1), (1, 0), (3, 3), (0, 0)]
    for seed in range(50):
        archive = _archive_with(coords_list)
        rng = np.random.default_rng(seed)
        replay = np.random.default_rng(seed)
        chosen = select_uniform(archive, rng)
        expected = sorted(archive.cells)[int(replay.integers(len(archive.cells)))]
        assert chosen == expected
        assert archive.selected[chosen] == 1
        assert archive.total_selections == 1


def test_uniform_is_roughly_uniform():
    rng = np.random.default_rng(7)
    archive = _archive_with([(0, 0), (1, 1), (2, 2)])
    counts = {(0, 0): 0, (1, 1): 0, (2, 2): 0}
    for _ in range(3000):
        counts[select_uniform(archive, rng)] += 1
    for count in counts.values():
        assert 850 <= count <= 1150


def test_ucb_hand_example():
    # Two cells, n = (4, 1), successes = (2, 1), T = 5, c = 1:
    # scores 0.5 + sqrt(2 ln 5 / 4) ~= 1.397 and 1.0 + sqrt(2 ln 5) ~= 2.794.
    archive = _archive_with([(0, 0), (1, 1)])
    archive.selected[(0, 0)], archive.inserted[(0, 0)] = 4, 2
    archive.selected[(1, 1)], archive.inserted[(1, 1)] = 1, 1
    archive.total_selections = 5

    score_a = 2 / 4 + math.sqrt(2 * math.log(5) / 4)
    score_b = 1 / 1 + math.sqrt(2 * math.log(5) / 1)
    assert score_a == pytest.approx(1.397, abs=1e-3)
    assert score_b == pytest.approx(2.794, abs=1e-3)

    assert select_ucb(archive, np.random.default_rng(0)) == (1, 1)


def test_ucb_prefers_unvisited():
    archive = _archive_with([(0, 0), (1, 1), (2, 2)])
    archive.selected[(0, 0)] = 3
    archive.selected[(2, 2)] = 5
    archive.total_selections = 8
    assert select_ucb(archive, np.random.default_rng(1)) == (1, 1)


def test_ucb_breaks_exact_ties_uniformly():
    counts = {(0, 0): 0, (1, 1): 0, (2, 2): 0}
    for seed in range(900):
        archive = _archive_with([(0, 0), (1, 1), (2, 2)])
        for coords in counts:
            archive.selected[coords], archive.inserted[coords] = 2, 1
        archive.total_selections = 6
        counts[select_ucb(archive, np.random.default_rng(seed))] += 1
    for count in counts.values():
        assert 220 <= count <= 380


def test_ucb_updates_counters():
    archive = _archive_with([(0, 0)])
    select_ucb(archive, np.random.default_rng(0))
    assert archive.selected[(0, 0)] == 1
    assert archive.total_selections == 1


@st.composite
def ucb_cases(draw):
    """Grids of 1-3 axes with random occupancy and selection counters:
    every cell unvisited, some unvisited, or none, ``n`` up to 2**40.
    Counters come from a small pool, some scaled by a common factor, so
    that exact score ties are common, between equal counters and (at
    ``c == 0``) between equal success rates."""
    axes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    grid = list(itertools.product(*map(range, axes)))
    occupied = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
    mode = draw(st.sampled_from(["all visited", "some unvisited", "all unvisited"]))
    low = 0 if mode == "some unvisited" else 1
    n = st.one_of(st.integers(low, 4), st.integers(low, 2**40), st.integers(2**39, 2**40))
    pair = n.flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k)))
    pool = draw(st.lists(pair, min_size=1, max_size=3))
    scaled = st.tuples(st.sampled_from(pool), st.integers(1, 7)).map(
        lambda p: (p[0][0] * p[1], p[0][1] * p[1])
    )
    counters = {}
    for coords in occupied:
        counters[coords] = (0, 0) if mode == "all unvisited" else draw(
            st.one_of(st.sampled_from(pool), scaled, pair)
        )
    if mode == "some unvisited":
        counters[draw(st.sampled_from(occupied))] = (0, 0)
    total = sum(k for k, _ in counters.values()) + draw(st.integers(0, 50))
    c = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 1e6]), st.floats(0.0, 10.0)))
    direct = draw(st.sets(st.sampled_from(occupied)))
    return axes, counters, total, c, direct, draw(st.integers(0, 2**32 - 1))


# Equal success rates that a reciprocal-then-multiply would round apart:
# 5 * (1 / 6) falls below 5 / 6 and 25 * (1 / 30) does not.
RATE_TIES = {(0,): (6, 5), (1,): (30, 25), (2,): (12, 10), (3,): (6, 1)}


@settings(max_examples=400, deadline=None, database=None)
@given(ucb_cases())
@example(((4,), RATE_TIES, 54, 0.0, set(), 3))
@example(((4,), RATE_TIES, 54, 5e-324, {(1,), (3,)}, 3))
def test_ucb_matches_straight_line_oracle(case):
    """Cells in ``direct`` are written straight into ``cells`` after the
    index has last been read, so the occupancy mask must catch up on them."""
    axes, counters, total, c, direct, seed = case
    archive = Archive(axes)
    for coords, (n, inserted) in counters.items():
        artefacts = tuple(Artefact(m, np.array([float(x)])) for m, x in enumerate(coords))
        solution = Solution(artefacts, 0.5, coords)
        if coords in direct:
            archive.cells[coords] = Cell(solution, birth_step=0)
        else:
            archive.insert(solution)
            archive.ordered()
        archive.selected[coords], archive.inserted[coords] = n, inserted
    archive.total_selections = total
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    assert select_ucb(archive, rng, c=c) == oracles.select_ucb(counters, total, replay, c)
    assert rng.bit_generator.state == replay.bit_generator.state
