"""Evolutionary step procedures: the plain MAP-Elites cycle and the
transverse-assessment variant that cross-pollinates a freshly mutated
artefact with every elite sharing its behavioural bin.

Each step consumes rng draws in a fixed order (one selection draw, one
modality draw, then whatever the variation operator needs), after which
everything is deterministic. That makes a step replayable by independent
code from the same rng state.
"""
from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .archive import Archive
from .binding import DomainBinding
from .selection import select_uniform
from .types import (
    INVALID_OUTCOME,
    REJECTED_OUTCOME,
    Artefact,
    Candidate,
    Coords,
    Solution,
    StepReport,
    payloads_equal,
    require_fitness,
)

SelectFn = Callable[[Archive, np.random.Generator], Coords]


def characterize(domain: DomainBinding, payloads: tuple[Any, ...]) -> Solution | None:
    """Analyse, wrap and score one payload per modality, in modality order.

    Returns None (the death penalty) at the first unclassified payload,
    whose successors are not analysed; such a solution never enters the
    archive. Fitness comes from ``_score``, as in the steps.
    """
    if len(payloads) != domain.modality_count:
        raise ValueError(f"expected {domain.modality_count} payloads, got {len(payloads)}")
    artefacts, coords = [], []
    for modality, payload in enumerate(payloads):
        bin_index, features = domain.analyse(modality, payload)
        if bin_index is None:
            return None
        artefacts.append(_analysed(modality, payload, features))
        coords.append(int(bin_index))
    return Solution(tuple(artefacts), _score(domain, [a.features for a in artefacts]), tuple(coords))


def _analysed(modality: int, payload: Any, features: Any) -> Artefact:
    """A new artefact carrying the features its ``analyse`` call returned."""
    artefact = Artefact(modality, payload)
    object.__setattr__(artefact, "features", features)
    return artefact


def _score(domain: DomainBinding, features: list[Any]) -> float:
    """One coherence evaluation: a candidate's fitness from its features in
    modality order, through the binding's split form, checked to lie in [0, 1]."""
    return require_fitness(float(domain.combine(tuple(features))))


def vanilla_step(
    archive: Archive,
    domain: DomainBinding,
    rng: np.random.Generator,
    select: SelectFn = select_uniform,
) -> StepReport:
    """One steady-state MAP-Elites cycle: the offspring competes only at
    its own cell, as in the transverse cycle without candidates."""
    return melita_step(archive, domain, rng, select, transverse=False)


def transverse_candidates(
    archive: Archive,
    domain: DomainBinding,
    offspring: Candidate,
    modality: int,
) -> tuple[int, list[Candidate]]:
    """Score the offspring's mutated artefact with every elite sharing its
    bin: ``(scored, accepted)``.

    Each candidate keeps its elite's other artefacts, so it maps to the
    elite's own cell; it is scored from the elite's cached features and
    the new artefact's, and ``scored`` counts it. Only candidates strictly
    fitter than their elite (those the archive accepts) are built and
    listed. A candidate payload-identical to the direct offspring is
    neither scored nor listed; only the elite in the offspring's own
    cell can produce one.
    """
    new_artefact = offspring.artefacts[modality]
    new_features = new_artefact.features
    scored, accepted = 0, []
    for coords in archive.row(modality, offspring.coords[modality]):
        elite = archive.cells[coords].solution
        if coords == offspring.coords and payloads_equal(
            elite.artefacts[:modality] + (new_artefact,) + elite.artefacts[modality + 1 :],
            offspring.artefacts,
        ):
            continue
        features = [a.features for a in elite.artefacts]
        features[modality] = new_features
        fitness = _score(domain, features)
        scored += 1
        if fitness > elite.fitness:
            artefacts = elite.artefacts[:modality] + (new_artefact,) + elite.artefacts[modality + 1 :]
            accepted.append(Candidate(artefacts, fitness, coords))
    return scored, accepted


def melita_step(
    archive: Archive,
    domain: DomainBinding,
    rng: np.random.Generator,
    select: SelectFn = select_uniform,
    transverse: bool = True,
) -> StepReport:
    """One transverse-assessment cycle.

    Selects a parent, mutates one uniformly chosen modality and analyses
    the new payload once. A failed variation (``vary`` returns None) or an
    unclassified payload ends the step as ``OFFSPRING_INVALID``, with no
    evaluation. Otherwise the direct offspring keeps the parent's other
    artefacts, bins and features, and scoring it is one evaluation. Of
    it and all transverse candidates, the members the archive accepts
    compete, and the one with the least key
    (-fitness, 0 for the direct offspring else 1, coords) is inserted:
    at most one cell changes. With ``transverse=False`` the direct
    offspring is the only member: the plain cycle.
    """
    parent_coords = select(archive, rng)
    parent = archive.cells[parent_coords].solution
    modality = int(rng.integers(domain.modality_count))
    payload = domain.vary(modality, parent, rng)
    new_bin, features = (None, None) if payload is None else domain.analyse(modality, payload)
    if new_bin is None:
        return StepReport(parent_coords, modality, 0, INVALID_OUTCOME)

    new_artefact = _analysed(modality, payload, features)
    artefacts = parent.artefacts[:modality] + (new_artefact,) + parent.artefacts[modality + 1 :]
    coords = parent.coords[:modality] + (int(new_bin),) + parent.coords[modality + 1 :]
    offspring = Candidate(artefacts, _score(domain, [a.features for a in artefacts]), coords)

    members = [offspring] if archive.accepts(offspring) else []
    scored = 0
    if transverse:
        scored, accepted = transverse_candidates(archive, domain, offspring, modality)
        members += accepted
    if not members:
        return StepReport(parent_coords, modality, 1 + scored, REJECTED_OUTCOME)
    winner = min(members, key=lambda c: (-c.fitness, c is not offspring, c.coords))
    outcome = archive.insert(Solution(*winner))
    archive.credit_insertion(parent_coords)
    source = "offspring" if winner is offspring else "transverse"
    return StepReport(parent_coords, modality, 1 + scored, outcome, source)


def seed_archive(
    archive: Archive,
    domain: DomainBinding,
    count: int,
    rng: np.random.Generator,
) -> int:
    """Fill an empty archive with generated solutions.

    Performs ``count`` generation attempts, discards failed and
    unclassifiable ones, and inserts the rest under normal competition.
    Returns the number of occupied cells.
    """
    if archive.cells:
        raise ValueError("seed_archive requires an empty archive")
    for _ in range(count):
        payloads = domain.generate(rng)
        if payloads is not None and (solution := characterize(domain, payloads)) is not None:
            archive.insert(solution)
    return len(archive)
