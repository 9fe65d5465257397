import numpy as np
import pytest

from melita import (
    INSERTED_EMPTY,
    OFFSPRING_INVALID,
    REJECTED,
    REPLACED,
    Archive,
    Outcome,
    VectorPairDomain,
    characterize,
    melita_step,
    seed_archive,
    transverse_candidates,
    vanilla_step,
)
from melita.harness.serialize import archive_to_dict

import oracles
from conftest import ScriptedDomain, scripted_solution


def find_seed(n_occupied, parent_index, modality, max_seed=100000):
    """First seed whose (selection, modality) draws hit the wanted pair."""
    for seed in range(max_seed):
        rng = np.random.default_rng(seed)
        if int(rng.integers(n_occupied)) == parent_index and int(rng.integers(2)) == modality:
            return seed
    raise AssertionError("no matching seed found")


def with_payload(domain, parent, modality, payload):
    """The direct offspring: the parent with one modality's payload replaced."""
    return characterize(
        domain,
        tuple(payload if i == modality else a.payload for i, a in enumerate(parent.artefacts)),
    )


def test_characterize_builds_solution():
    domain = ScriptedDomain(fitness_table={(1.0, 2.0): 0.8})
    solution = scripted_solution(domain, 1, 2)
    assert solution.coords == (1, 2)
    assert solution.fitness == 0.8


def test_characterize_death_penalty():
    domain = ScriptedDomain()
    assert characterize(domain, (np.array([-1.0]), np.array([2.0]))) is None


class MiscountedGenerate(ScriptedDomain):
    def generate(self, rng):
        return (np.array([1.0]),)


def test_characterize_rejects_a_wrong_payload_count():
    domain = MiscountedGenerate()
    archive = Archive(domain.axis_sizes)
    with pytest.raises(ValueError, match="expected 2 payloads, got 1"):
        seed_archive(archive, domain, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="expected 2 payloads, got 3"):
        characterize(domain, (np.array([1.0]),) * 3)


def test_vanilla_replaces_own_cell():
    # Parent with fitness 0.6 mutates onto its own cell with fitness 0.7.
    table = {(1.0, 1.0): 0.6, (1.0, 1.5): 0.7}
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 1, 1))

    domain.push(1, 1.5)  # still bin 1 on the visual axis
    seed = find_seed(1, 0, 1)
    report = vanilla_step(archive, domain, np.random.default_rng(seed))
    assert report.outcome.kind == REPLACED
    assert report.outcome.coords == (1, 1)
    assert report.evaluations == 1
    assert archive.cells[(1, 1)].solution.fitness == 0.7
    assert archive.inserted[(1, 1)] == 1


def test_vanilla_fills_empty_cell_regardless_of_parent_fitness():
    table = {(1.0, 1.0): 0.9, (1.0, 3.0): 0.1}
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 1, 1))

    domain.push(1, 3.0)
    report = vanilla_step(archive, domain, np.random.default_rng(find_seed(1, 0, 1)))
    assert report.outcome.kind == INSERTED_EMPTY
    assert report.outcome.coords == (1, 3)
    assert archive.inserted[(1, 1)] == 1


def test_vanilla_invalid_offspring():
    domain = ScriptedDomain(fitness_table={(1.0, 1.0): 0.5})
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 1, 1))

    domain.push(1, -1.0)  # unclassifiable
    report = vanilla_step(archive, domain, np.random.default_rng(find_seed(1, 0, 1)))
    assert report.outcome.kind == OFFSPRING_INVALID
    assert report.evaluations == 0
    assert len(archive) == 1


def test_transverse_candidates_empty_row():
    domain = ScriptedDomain(fitness_table={(1.0, 1.0): 0.5})
    archive = Archive(domain.axis_sizes)
    parent = scripted_solution(domain, 1, 1)
    archive.insert(parent)
    # Mutated visual artefact lands in bin 3: no elite has visual bin 3.
    offspring = with_payload(domain, parent, 1, np.array([3.0]))
    assert transverse_candidates(archive, domain, offspring, 1) == (0, [])


def test_transverse_candidates_dedups_direct_offspring():
    # The parent itself sits in the mutated artefact's row; its candidate
    # is payload-identical to the direct offspring and must be dropped.
    domain = ScriptedDomain(fitness_table={(1.0, 1.0): 0.5})
    archive = Archive(domain.axis_sizes)
    parent = scripted_solution(domain, 1, 1)
    archive.insert(parent)
    offspring = with_payload(domain, parent, 1, np.array([1.5]))
    assert transverse_candidates(archive, domain, offspring, 1) == (0, [])


class CountingCombine(ScriptedDomain):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.combines = 0

    def combine(self, features):
        self.combines += 1
        return super().combine(features)


def test_nan_payload_offspring_in_its_parents_cell_is_scored_once():
    # The parent's text payload holds NaN, which np.array_equal calls
    # unequal to itself; describe and cohere read only element 0. The
    # parent's own recombination shares every artefact object with the
    # direct offspring, so it is dropped as a duplicate all the same.
    domain = CountingCombine(fitness_table={(1.0, 1.0): 0.5, (1.0, 1.5): 0.6})
    archive = Archive(domain.axis_sizes)
    archive.insert(characterize(domain, (np.array([1.0, np.nan]), np.array([1.0]))))
    domain.push(1, 1.5)  # still bin 1 on the visual axis
    domain.combines = 0
    report = melita_step(archive, domain, np.random.default_rng(find_seed(1, 0, 1)))
    assert report.evaluations == 1
    assert domain.combines == 1
    assert report.source == "offspring"
    assert report.outcome == Outcome(REPLACED, (1, 1), 0.5, 0.6)


def test_transverse_candidates_two_foreign_elites():
    table = {
        (0.0, 1.0): 0.5,  # parent
        (2.0, 1.2): 0.6,  # elite R1 at (2, 1)
        (3.0, 1.4): 0.7,  # elite R2 at (3, 1)
        (2.0, 1.5): 0.65,  # R1's artefacts with the new visual payload
        (3.0, 1.5): 0.75,  # R2's artefacts with the new visual payload
    }
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    parent = scripted_solution(domain, 0, 1.0)
    archive.insert(parent)
    archive.insert(scripted_solution(domain, 2, 1.2))
    archive.insert(scripted_solution(domain, 3, 1.4))

    offspring = with_payload(domain, parent, 1, np.array([1.5]))
    scored, candidates = transverse_candidates(archive, domain, offspring, 1)
    assert scored == 2
    assert [c.coords for c in candidates] == [(2, 1), (3, 1)]
    assert [c.fitness for c in candidates] == [0.65, 0.75]
    for candidate in candidates:
        assert float(candidate.artefacts[1].payload[0]) == 1.5


def test_transverse_candidates_map_to_borrowed_cells():
    # Soundness: every row elite but the one payload-identical to the
    # offspring is scored, and each accepted candidate targets the cell
    # of the elite whose artefacts it borrowed, with the mutated axis
    # already matching, and beats that elite. Completeness: the accepted
    # list is every recombination that beats its elite, in row order.
    domain = VectorPairDomain()
    rng = np.random.default_rng(42)
    archive = Archive(domain.axis_sizes)
    seed_archive(archive, domain, 60, rng)
    accepted_total = 0
    for parent_coords in archive.occupied():
        parent = archive.cells[parent_coords].solution
        new_payload = domain.vary(1, parent, rng)
        new_bin = domain.describe(1, new_payload)
        if new_bin is None:
            continue
        offspring = with_payload(domain, parent, 1, new_payload)
        row = [c for c in archive.occupied() if c[1] == new_bin]
        recombined = {
            c: with_payload(domain, archive.cells[c].solution, 1, new_payload) for c in row
        }
        duplicate = offspring.coords in recombined and np.array_equal(
            recombined[offspring.coords].artefacts[0].payload, offspring.artefacts[0].payload
        )
        scored, candidates = transverse_candidates(archive, domain, offspring, 1)
        assert scored == len(row) - duplicate
        if duplicate:
            del recombined[offspring.coords]
        beaten = [c for c, s in recombined.items() if s.fitness > archive.cells[c].solution.fitness]
        assert [c.coords for c in candidates] == beaten
        for candidate in candidates:
            assert candidate.coords in archive.cells
            assert candidate.coords[1] == new_bin
            elite = archive.cells[candidate.coords].solution
            assert np.array_equal(candidate.artefacts[0].payload, elite.artefacts[0].payload)
            assert candidate.artefacts[1] is offspring.artefacts[1]
            assert candidate.fitness == recombined[candidate.coords].fitness
            assert candidate.fitness > elite.fitness
        accepted_total += len(candidates)
    assert accepted_total > 0


def test_melita_replaces_row_elite():
    # Staged two-row scenario: the mutated artefact recombined with a
    # row elite beats that elite, and that candidate tops the list, so
    # the row elite's cell changes while the offspring's own empty cell
    # stays empty.
    table = {
        (0.0, 1.0): 0.50,  # parent E at (0, 1)
        (2.0, 1.2): 0.60,  # R1 at (2, 1)
        (3.0, 1.4): 0.70,  # R2 at (3, 1)
        (0.0, 1.5): 0.55,  # direct offspring E' -> empty (0, 1)... same cell
        (2.0, 1.5): 0.58,  # R1' loses to R1
        (3.0, 1.5): 0.90,  # R2' beats R2 and tops L
    }
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 0, 1.0))
    archive.insert(scripted_solution(domain, 2, 1.2))
    archive.insert(scripted_solution(domain, 3, 1.4))

    domain.push(1, 1.5)
    seed = find_seed(3, 0, 1)  # parent E is first in sorted order
    report = melita_step(archive, domain, np.random.default_rng(seed))
    assert report.outcome.kind == REPLACED
    assert report.outcome.coords == (3, 1)
    assert report.evaluations == 3
    assert archive.cells[(3, 1)].solution.fitness == 0.90
    # E' was payload-identical to the parent's cell content only on the
    # text side; its own cell keeps the parent.
    assert archive.cells[(0, 1)].solution.fitness == 0.50
    assert archive.inserted[(0, 1)] == 1


def test_melita_falls_back_to_empty_cell():
    # Same stage, but every recombination loses to its row elite; the
    # direct offspring lands in an empty cell.
    table = {
        (1.0, 1.0): 0.50,  # parent at (1, 1)
        (2.0, 1.2): 0.60,
        (3.0, 1.4): 0.70,
        (1.0, 2.5): 0.40,  # direct offspring E' -> empty (1, 2)
    }
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 1, 1.0))
    archive.insert(scripted_solution(domain, 2, 1.2))
    archive.insert(scripted_solution(domain, 3, 1.4))

    domain.push(1, 2.5)
    seed = find_seed(3, 0, 1)
    report = melita_step(archive, domain, np.random.default_rng(seed))
    assert report.outcome.kind == INSERTED_EMPTY
    assert report.outcome.coords == (1, 2)
    assert report.evaluations == 1  # row at visual bin 2 is empty
    assert archive.cells[(1, 2)].solution.fitness == 0.40


def test_melita_walk_is_single_pass():
    # A replacement earlier in the list stops the walk even though a
    # later candidate could have filled an empty cell.
    table = {
        (0.0, 1.0): 0.50,  # parent at (0, 1)
        (2.0, 1.2): 0.60,  # R1 at (2, 1)
        (0.0, 1.5): 0.20,  # E' -> its own occupied cell (0, 1), loses
        (2.0, 1.5): 0.80,  # R1' beats R1, tops L
    }
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 0, 1.0))
    archive.insert(scripted_solution(domain, 2, 1.2))

    domain.push(1, 1.5)
    seed = find_seed(2, 0, 1)
    report = melita_step(archive, domain, np.random.default_rng(seed))
    assert report.outcome.kind == REPLACED
    assert report.outcome.coords == (2, 1)
    assert len(archive) == 2  # no second insertion happened


def test_melita_rejects_when_every_candidate_loses():
    table = {
        (0.0, 1.0): 0.90,
        (0.0, 1.5): 0.10,  # E' targets its own cell and loses
    }
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 0, 1.0))

    domain.push(1, 1.5)
    seed = find_seed(1, 0, 1)
    report = melita_step(archive, domain, np.random.default_rng(seed))
    assert report.outcome.kind == REJECTED
    assert archive.cells[(0, 1)].solution.fitness == 0.90
    assert archive.inserted[(0, 1)] == 0


def test_melita_tie_order_prefers_offspring_then_coords():
    # Three list members share one fitness; the offspring is tried
    # first, then candidates by ascending coords. The offspring loses at
    # its occupied cell, and the (1, 1) candidate wins before (3, 1).
    table = {
        (0.0, 1.0): 0.70,  # parent at (0, 1); E' will tie at 0.6 below it
        (1.0, 1.2): 0.50,  # R1 at (1, 1)
        (3.0, 1.4): 0.50,  # R2 at (3, 1)
        (0.0, 1.5): 0.60,  # E' at (0, 1): rejected, parent is fitter
        (1.0, 1.5): 0.60,  # R1' at (1, 1): wins
        (3.0, 1.5): 0.60,  # R2' at (3, 1): never reached
    }
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 0, 1.0))
    archive.insert(scripted_solution(domain, 1, 1.2))
    archive.insert(scripted_solution(domain, 3, 1.4))

    domain.push(1, 1.5)
    seed = find_seed(3, 0, 1)
    report = melita_step(archive, domain, np.random.default_rng(seed))
    assert report.outcome.kind == REPLACED
    assert report.outcome.coords == (1, 1)
    assert archive.cells[(3, 1)].solution.fitness == 0.50


def test_melita_tie_between_eligible_members_goes_to_offspring():
    # The offspring and a transverse candidate both beat their occupants
    # at one fitness; the candidate's coords sort first, but the direct
    # offspring still wins the tie.
    table = {
        (0.0, 1.2): 0.50,  # R1 at (0, 1)
        (2.0, 1.0): 0.50,  # parent at (2, 1)
        (0.0, 1.5): 0.70,  # R1' at (0, 1): eligible, loses the tie
        (2.0, 1.5): 0.70,  # E' at (2, 1): eligible, wins
    }
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 0, 1.2))
    archive.insert(scripted_solution(domain, 2, 1.0))

    domain.push(1, 1.5)
    report = melita_step(archive, domain, np.random.default_rng(find_seed(2, 1, 1)))
    assert report.source == "offspring"
    assert report.outcome.kind == REPLACED
    assert report.outcome.coords == (2, 1)
    assert float(archive.cells[(2, 1)].solution.artefacts[1].payload[0]) == 1.5
    assert archive.cells[(0, 1)].solution.fitness == 0.50


@pytest.mark.parametrize(
    "step, bad, coherence",
    [
        pytest.param(step, bad, coherence, id=f"{prefix}{coherence}")
        for step, bad, prefix in [
            (melita_step, (2.0, 1.5), ""),  # R1' would lose to E'
            (melita_step, (0.0, 1.5), "melita_offspring_"),  # E' would lose to R1'
            (vanilla_step, (0.0, 1.5), "vanilla_offspring_"),  # E' is the only member
        ]
        for coherence in (-0.1, float("nan"))
    ],
)
def test_out_of_range_coherence_raises_for_a_losing_candidate(step, bad, coherence):
    # Every scored candidate's coherence is checked, the direct
    # offspring's included, whichever member would win.
    table = {
        (0.0, 1.0): 0.50,  # parent at (0, 1)
        (2.0, 1.2): 0.60,  # R1 at (2, 1)
        (0.0, 1.5): 0.90,  # E' at (0, 1)
        (2.0, 1.5): 0.95,  # R1' at (2, 1)
    } | {bad: coherence}
    domain = ScriptedDomain(fitness_table=table)
    archive = Archive(domain.axis_sizes)
    archive.insert(scripted_solution(domain, 0, 1.0))
    archive.insert(scripted_solution(domain, 2, 1.2))
    before = archive_to_dict(archive)

    domain.push(1, 1.5)
    with pytest.raises(ValueError, match=r"^fitness must lie in \[0, 1\]"):
        step(archive, domain, np.random.default_rng(find_seed(2, 0, 1)))
    assert archive_to_dict(archive) == before


def test_seed_archive():
    domain = VectorPairDomain()
    archive = Archive(domain.axis_sizes)
    assert seed_archive(archive, domain, 0, np.random.default_rng(0)) == 0
    assert len(archive) == 0

    count = seed_archive(archive, domain, 100, np.random.default_rng(3))
    assert 0 < count <= 100
    assert count == len(archive)

    again = Archive(domain.axis_sizes)
    seed_archive(again, domain, 100, np.random.default_rng(3))
    assert archive_to_dict(archive) == archive_to_dict(again)

    with pytest.raises(ValueError):
        seed_archive(archive, domain, 1, np.random.default_rng(0))


def test_vanilla_equivalence_with_transverse_disabled():
    # melita_step(transverse=False) must walk the same trajectory as
    # vanilla_step from the same seed.
    domain = VectorPairDomain()
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    archive_a = Archive(domain.axis_sizes)
    archive_b = Archive(domain.axis_sizes)
    seed_archive(archive_a, domain, 50, rng_a)
    seed_archive(archive_b, domain, 50, rng_b)

    for _ in range(400):
        report_a = vanilla_step(archive_a, domain, rng_a)
        report_b = melita_step(archive_b, domain, rng_b, transverse=False)
        assert report_a == report_b
    assert archive_to_dict(archive_a) == archive_to_dict(archive_b)


def test_vanilla_thousand_step_oracle():
    # A seeded 1000-step vector-pair run must equal an independent
    # straight-line reimplementation of selection, mutation, binning,
    # coherence, and insertion.
    domain = VectorPairDomain()
    rng = np.random.default_rng(2024)
    archive = Archive(domain.axis_sizes)
    seed_archive(archive, domain, 100, rng)
    for _ in range(1000):
        vanilla_step(archive, domain, rng)

    oracle_rng = np.random.default_rng(2024)
    cells: dict = {}
    oracles.seed(cells, oracle_rng, 100)
    for _ in range(1000):
        oracles.vanilla_step(cells, oracle_rng)

    oracles.assert_same_archive(archive, cells)


def seeded_reports(step, steps=600, **kwargs):
    domain = VectorPairDomain()
    rng = np.random.default_rng(101000)
    archive = Archive(domain.axis_sizes)
    seed_archive(archive, domain, 100, rng)
    reports = []
    for _ in range(steps):
        report = step(archive, domain, rng, **kwargs)
        # The direct offspring differs from its parent on the mutated axis only.
        if report.source == "offspring":
            parent, coords = report.parent_coords, report.outcome.coords
            assert [c for i, c in enumerate(coords) if i != report.mutated_modality] == [
                c for i, c in enumerate(parent) if i != report.mutated_modality
            ]
        reports.append(report)
    return reports


def test_step_source_names_the_winner():
    reports = seeded_reports(melita_step)
    sources = [r.source for r in reports]
    assert sources.count("transverse") > 0
    assert sources.count("offspring") > 0
    for report in reports:
        assert report.source in ("offspring", "transverse", "none")
        assert (report.source == "none") == (report.outcome.kind in (REJECTED, OFFSPRING_INVALID))


def test_step_source_is_never_transverse_without_transverse_candidates():
    for reports in (seeded_reports(vanilla_step), seeded_reports(melita_step, transverse=False)):
        assert {r.source for r in reports} == {"offspring", "none"}
        for report in reports:
            assert (report.source == "none") == (report.outcome.kind in (REJECTED, OFFSPRING_INVALID))
