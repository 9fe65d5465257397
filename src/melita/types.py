"""Core value types shared across the archive and step procedures."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

Coords = tuple[int, ...]


@dataclass(frozen=True)
class Artefact:
    """One single-modality payload, tagged with its modality index.

    The library wraps every payload a binding returns; only the binding
    knows how to vary, describe, or score it.

    ``features`` holds the features ``analyse`` returned.
    ``characterize`` and the step procedures fill it when they build the
    artefact, from the one ``analyse`` call that also bins the payload,
    so each artefact's coherence features are computed once per run,
    seeded ones included. Only those artefacts carry features and can be
    scored; one built elsewhere, such as one that ``archive_from_dict``
    loads, keeps None. It is not an init argument, so
    ``dataclasses.replace`` never carries it to a new payload, and it
    takes no part in equality, repr or serialization.
    """

    modality: int
    payload: Any
    features: Any = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Solution:
    """An ordered collection of artefacts, one per modality.

    Fitness and per-axis bin coordinates are cached at construction and
    never recomputed, so a Solution is immutable by design.
    """

    artefacts: tuple[Artefact, ...]
    fitness: float
    coords: Coords

    def __post_init__(self) -> None:
        modalities = tuple(a.modality for a in self.artefacts)
        if modalities != tuple(range(len(self.artefacts))):
            raise ValueError(f"artefacts must cover modalities 0..N-1 in order, got {modalities}")
        if len(self.coords) != len(self.artefacts):
            raise ValueError("coords must have one entry per modality")
        require_fitness(self.fitness)


class Candidate(NamedTuple):
    """A Solution's fields without its validation: a step scores every
    candidate as one and builds ``Solution(*candidate)`` for the winner."""

    artefacts: tuple[Artefact, ...]
    fitness: float
    coords: Coords


def require_fitness(fitness: float) -> float:
    """A fitness in [0, 1]; NaN and every value outside raise ValueError."""
    if not 0.0 <= fitness <= 1.0:
        raise ValueError(f"fitness must lie in [0, 1], got {fitness}")
    return fitness


def payloads_equal(a: tuple[Artefact, ...], b: tuple[Artefact, ...]) -> bool:
    """True when two equally long artefact tuples carry identical payloads
    in every modality; an artefact object always matches itself, NaN or not."""
    return all(x is y or np.array_equal(x.payload, y.payload) for x, y in zip(a, b))


# Outcome kinds for archive insertions and evolutionary steps.
INSERTED_EMPTY = "inserted_empty"
REPLACED = "replaced"
REJECTED = "rejected"
OFFSPRING_INVALID = "offspring_invalid"


@dataclass(frozen=True)
class Outcome:
    """What a single insertion attempt (or whole step) did to the archive.

    At most one cell is named: ``coords`` is set for inserted_empty and
    replaced outcomes, and the fitness pair is set for replacements only.
    """

    kind: str
    coords: Coords | None = None
    old_fitness: float | None = None
    new_fitness: float | None = None


# The outcomes that name no cell, shared: a frozen Outcome is a value.
REJECTED_OUTCOME = Outcome(REJECTED)
INVALID_OUTCOME = Outcome(OFFSPRING_INVALID)


@dataclass(frozen=True)
class StepReport:
    """Observability record for one evolutionary step. ``evaluations`` counts
    the candidates scored, accepted or not: 0 for an invalid offspring, else 1
    plus the ``scored`` count that ``transverse_candidates`` returns.
    ``source`` names what changed the archive: "offspring" (the direct
    offspring), "transverse" (another candidate) or "none" (rejected or invalid)."""

    parent_coords: Coords
    mutated_modality: int
    evaluations: int
    outcome: Outcome
    source: str = "none"
