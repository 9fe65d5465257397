"""Parent selection policies over the archive.

Both policies consume exactly one ``rng.integers`` draw per call and scan
occupied cells in ascending lexicographic coordinate order, so a given
archive state and rng state always yield the same parent. UCB scores
every occupied cell in one numpy pass over the archive's counter grids,
read through its boolean ``occupancy`` mask in that same order;
numpy's division and square root are correctly rounded, as ``math``'s
are, so each score has the bits of a cell-by-cell loop.
"""
from __future__ import annotations

import math

import numpy as np

from .archive import Archive
from .types import Coords


class NoElitesError(RuntimeError):
    """Raised when a parent is requested from an empty archive."""


def select_uniform(archive: Archive, rng: np.random.Generator) -> Coords:
    """Pick an occupied cell uniformly at random and update its counters."""
    occupied = archive.ordered()
    if not occupied:
        raise NoElitesError("cannot select a parent from an empty archive")
    coords = occupied[int(rng.integers(len(occupied)))]
    archive.record_selection(coords)
    return coords


def select_ucb(archive: Archive, rng: np.random.Generator, c: float = 1.0) -> Coords:
    """UCB1 parent selection.

    Score per occupied cell: insertion success rate plus
    ``c * sqrt(2 ln T / n)`` where ``n`` is how often the occupant was
    selected and ``T`` the archive-wide selection count. Never-selected
    occupants score infinite and are chosen first; exact score ties are
    broken uniformly at random.
    """
    occupied = archive.ordered()
    if not occupied:
        raise NoElitesError("cannot select a parent from an empty archive")
    # ordered() has updated the mask, which reads the grids in ``occupied`` order.
    n = archive.selected[archive.occupancy]
    (ties,) = (n == 0).nonzero()
    if not len(ties):
        two_log_t = 2.0 * math.log(max(archive.total_selections, 1))
        score = archive.inserted[archive.occupancy] / n + c * np.sqrt(two_log_t / n)
        (ties,) = (score == score.max()).nonzero()
    coords = occupied[ties[int(rng.integers(len(ties)))]]
    archive.record_selection(coords)
    return coords
