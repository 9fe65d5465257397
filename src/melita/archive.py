"""Grid archive of elites with per-occupant selection statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .types import INSERTED_EMPTY, REJECTED_OUTCOME, REPLACED, Candidate, Coords, Outcome, Solution


class Cell(NamedTuple):
    """One occupied grid cell: its elite and the selection clock when it
    took the cell. Its selection statistics live in the archive's grids."""

    solution: Solution
    birth_step: int


@dataclass
class Archive:
    """N-dimensional grid holding at most one elite per cell.

    Replacement uses strict fitness inequality, so per-cell occupant
    fitness never decreases over a run. Cells are filled or replaced but
    never removed, by ``insert`` and by direct writes to ``cells`` alike,
    and ``cells`` keeps fill order, so a read of the index (the occupied
    order and each row, sorted tuples) sorts again only the entries that
    the newest keys join, and marks those in the ``occupancy`` mask.

    ``selected`` and ``inserted`` hold, per cell, how often its current
    occupant was selected and how many of its offspring were inserted:
    float64 grids of shape ``axis_sizes``, exact below 2**53. When a new
    solution takes a cell, ``insert`` folds its old ``selected`` count
    into ``evicted_selections`` and zeroes both.
    """

    axis_sizes: tuple[int, ...]
    cells: dict[Coords, Cell] = field(default_factory=dict)
    total_selections: int = 0
    evicted_selections: int = 0
    selected: np.ndarray = field(init=False, repr=False, compare=False)
    inserted: np.ndarray = field(init=False, repr=False, compare=False)
    occupancy: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict = field(default_factory=lambda: {None: ()}, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.axis_sizes = tuple(int(s) for s in self.axis_sizes)
        if not self.axis_sizes or any(s < 1 for s in self.axis_sizes):
            raise ValueError(f"axis sizes must be positive, got {self.axis_sizes}")
        self.selected, self.inserted = np.zeros(self.axis_sizes), np.zeros(self.axis_sizes)
        self.occupancy = np.zeros(self.axis_sizes, dtype=bool)

    def __len__(self) -> int:
        return len(self.cells)

    def __deepcopy__(self, memo: dict) -> Archive:
        """Share the frozen cells and index tuples and copy the grids, so a
        snapshot costs two dict copies and three array copies."""
        copy = Archive(
            self.axis_sizes, dict(self.cells), self.total_selections, self.evicted_selections
        )
        copy.selected, copy.inserted = self.selected.copy(), self.inserted.copy()
        copy.occupancy, copy._index = self.occupancy.copy(), dict(self._index)
        return copy

    @property
    def cell_count(self) -> int:
        return math.prod(self.axis_sizes)

    def ordered(self) -> tuple[Coords, ...]:
        """Occupied coordinates in ascending lexicographic order. Cells
        filled since the last read join the entries they belong to."""
        if len(self.cells) > (seen := len(self._index[None])):
            new = list(self.cells)[seen:]
            groups: dict[tuple[int, int] | None, list[Coords]] = {None: new}
            for coords in new:
                self.occupancy[coords] = True
                for key in enumerate(coords):
                    groups.setdefault(key, []).append(coords)
            for key, coords in groups.items():
                self._index[key] = tuple(sorted([*self._index.get(key, ()), *coords]))
        return self._index[None]

    def occupied(self) -> list[Coords]:
        """A fresh list of ``ordered()``, safe for the caller to change."""
        return list(self.ordered())

    def row(self, axis: int, index: int) -> tuple[Coords, ...]:
        """Occupied coordinates whose ``axis`` coordinate is ``index``, in
        ascending lexicographic order."""
        self.ordered()
        return self._index.get((axis, index), ())

    def solutions(self) -> list[Solution]:
        return [self.cells[c].solution for c in self.ordered()]

    def check_coords(self, coords: Coords) -> None:
        if len(coords) != len(self.axis_sizes) or any(
            not 0 <= c < s for c, s in zip(coords, self.axis_sizes)
        ):
            raise ValueError(f"coords {coords} out of range for axes {self.axis_sizes}")

    def accepts(self, candidate: Candidate | Solution) -> bool:
        """True when the candidate's cell is empty or the candidate is
        strictly fitter than the occupant: the rule ``insert`` applies."""
        cell = self.cells.get(candidate.coords)
        return cell is None or candidate.fitness > cell.solution.fitness

    def insert(self, candidate: Solution) -> Outcome:
        """Place a candidate at its own coordinates if ``accepts`` it."""
        self.check_coords(candidate.coords)
        if not self.accepts(candidate):
            return REJECTED_OUTCOME
        cell = self.cells.get(candidate.coords)
        self.cells[candidate.coords] = Cell(candidate, birth_step=self.total_selections)
        if cell is None:
            return Outcome(INSERTED_EMPTY, coords=candidate.coords)
        self.evicted_selections += int(self.selected[candidate.coords])
        self.selected[candidate.coords] = self.inserted[candidate.coords] = 0.0
        return Outcome(
            REPLACED,
            coords=candidate.coords,
            old_fitness=cell.solution.fitness,
            new_fitness=candidate.fitness,
        )

    def record_selection(self, coords: Coords) -> None:
        self.selected[coords] += 1
        self.total_selections += 1

    def credit_insertion(self, parent_coords: Coords) -> None:
        """Credit the parent's cell with a successful offspring insertion.

        If the parent was just evicted by its own offspring, the credit
        lands on the cell's new occupant.
        """
        if parent_coords in self.cells:
            self.inserted[parent_coords] += 1
