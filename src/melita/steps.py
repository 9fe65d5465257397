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
    OFFSPRING_INVALID,
    REJECTED,
    Artefact,
    Candidate,
    Coords,
    Outcome,
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
    archive. Fitness comes from ``_coherence``, as in the steps.
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
    return Solution(tuple(artefacts), _coherence(domain, tuple(artefacts)), tuple(coords))


def _analysed(modality: int, payload: Any, features: Any) -> Artefact:
    """A new artefact carrying the features its ``analyse`` call returned."""
    artefact = Artefact(modality, payload)
    object.__setattr__(artefact, "features", features)
    return artefact


def _coherence(domain: DomainBinding, artefacts: tuple[Artefact, ...]) -> float:
    """Coherence through the binding's split form. Every scored candidate
    passes the [0, 1] check here, inserted or not.

    New artefacts arrive with their features; the fill below serves
    artefacts built elsewhere, such as those ``archive_from_dict`` loads.
    """
    for artefact in artefacts:
        if artefact.features is None:
            features = domain.features(artefact.modality, artefact.payload)
            object.__setattr__(artefact, "features", features)
    return require_fitness(float(domain.combine(tuple([a.features for a in artefacts]))))


def _make_offspring(
    archive: Archive,
    domain: DomainBinding,
    rng: np.random.Generator,
    select: SelectFn,
) -> tuple[Coords, int, Candidate | None]:
    """Shared stochastic prefix of both step procedures.

    Selects a parent, mutates one uniformly chosen modality, analyses the
    new payload once, and builds the direct offspring with cached bins
    and features carried over for the unchanged modalities (one
    coherence evaluation). The offspring is None when variation failed
    or the new artefact is unclassified.
    """
    parent_coords = select(archive, rng)
    parent = archive.cells[parent_coords].solution
    modality = int(rng.integers(domain.modality_count))

    payload = domain.vary(modality, parent, rng)
    new_bin, features = (None, None) if payload is None else domain.analyse(modality, payload)
    if new_bin is None:
        return parent_coords, modality, None

    new = (_analysed(modality, payload, features),)
    artefacts = parent.artefacts[:modality] + new + parent.artefacts[modality + 1 :]
    coords = parent.coords[:modality] + (int(new_bin),) + parent.coords[modality + 1 :]
    return parent_coords, modality, Candidate(artefacts, _coherence(domain, artefacts), coords)


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
) -> list[Candidate]:
    """Pair the offspring's mutated artefact with every elite sharing its
    bin.

    For each elite whose coordinate on the mutated axis equals the
    offspring's, builds the candidate that keeps the elite's other
    artefacts (so it maps to the elite's own cell, with cached bins) and
    re-scores coherence. The direct offspring is not a member; a
    candidate payload-identical to it is dropped so it appears exactly
    once among the step's members. Equal payloads give equal bins, so
    only the elite in the offspring's own cell can produce one.
    """
    new_artefact = offspring.artefacts[modality]
    new_bin = offspring.coords[modality]
    candidates: list[Candidate] = []
    for coords in archive.row(modality, new_bin):
        elite = archive.cells[coords].solution
        artefacts = elite.artefacts[:modality] + (new_artefact,) + elite.artefacts[modality + 1 :]
        if coords == offspring.coords and payloads_equal(artefacts, offspring.artefacts):
            continue
        candidates.append(Candidate(artefacts, _coherence(domain, artefacts), elite.coords))
    return candidates


def melita_step(
    archive: Archive,
    domain: DomainBinding,
    rng: np.random.Generator,
    select: SelectFn = select_uniform,
    transverse: bool = True,
) -> StepReport:
    """One transverse-assessment cycle.

    Of the direct offspring and all transverse candidates, the members
    the archive accepts compete, and the one with the least key
    (-fitness, 0 for the direct offspring else 1, coords) is inserted:
    at most one cell changes. With ``transverse=False`` the direct
    offspring is the only member: the plain cycle.
    """
    parent_coords, modality, offspring = _make_offspring(archive, domain, rng, select)
    if offspring is None:
        return StepReport(parent_coords, modality, 0, Outcome(OFFSPRING_INVALID))

    members = [offspring]
    if transverse:
        members += transverse_candidates(archive, domain, offspring, modality)
    winner = min(
        filter(archive.accepts, members),
        key=lambda c: (-c.fitness, c is not offspring, c.coords),
        default=None,
    )

    outcome, source = Outcome(REJECTED), "none"
    if winner is not None:
        outcome = archive.insert(Solution(*winner))
        source = "offspring" if winner is offspring else "transverse"
        archive.credit_insertion(parent_coords)
    return StepReport(
        parent_coords=parent_coords,
        mutated_modality=modality,
        evaluations=len(members),
        outcome=outcome,
        source=source,
    )


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
