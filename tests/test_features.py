"""The split coherence contract: ``features`` once per artefact, then
``combine``. The split must reproduce ``cohere`` bit for bit, a binding
that implements only ``cohere`` must run unchanged, and seeding and the
step procedures must compute each artefact's features exactly once."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from melita import (
    Archive,
    Artefact,
    DomainBinding,
    RunConfig,
    ToyMediaDomain,
    VectorPairDomain,
    characterize,
    melita_step,
    run,
    seed_archive,
)
from melita.domains.toy_media import PROJECTION, image_vector, topic_posterior
from melita.harness.serialize import archive_to_dict, canonical_json

import oracles


def media_reference(tokens, pixels):
    """The coherence formula as written before the split, operation for
    operation."""
    e_txt = topic_posterior(tokens)
    mapped = PROJECTION @ image_vector(pixels)
    tn = float(np.linalg.norm(e_txt))
    mn = float(np.linalg.norm(mapped))
    if tn == 0.0 or mn == 0.0:
        return 0.5
    cos = float(np.dot(mapped, e_txt)) / (tn * mn)
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


def split(domain, payloads):
    return domain.combine(tuple(domain.features(i, p) for i, p in enumerate(payloads)))


def test_toy_media_split_is_bit_identical():
    domain = ToyMediaDomain()
    rng = np.random.default_rng(2024)
    pairs = [
        (rng.integers(0, 64, size=int(rng.integers(8, 65))), rng.random((8, 8, 3)))
        for _ in range(300)
    ]
    black = np.zeros((8, 8, 3))
    pairs.append((pairs[0][0], black))
    for tokens, pixels in pairs:
        expected = media_reference(tokens, pixels)
        assert split(domain, (tokens, pixels)) == expected
        assert domain.cohere((tokens, pixels)) == expected
    assert split(domain, (pairs[0][0], black)) == 0.5


def test_vector_pair_split_is_bit_identical():
    domain = VectorPairDomain()
    rng = np.random.default_rng(2025)
    for _ in range(300):
        t, v = rng.standard_normal(8), rng.standard_normal(8) * rng.random() * 4
        expected = oracles.cohere(t, v)
        assert split(domain, (t, v)) == expected
        assert domain.cohere((t, v)) == expected
    zero = np.zeros(8)
    with pytest.raises(ValueError):
        split(domain, (zero, rng.standard_normal(8)))
    with pytest.raises(ValueError):
        domain.cohere((rng.standard_normal(8), zero))


class Forwarding(DomainBinding):
    """Forwards only the abstract methods, so ``features`` and
    ``combine`` fall back to the contract's defaults."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    @property
    def modality_count(self):
        return self.inner.modality_count

    @property
    def axis_sizes(self):
        return self.inner.axis_sizes

    def generate(self, rng):
        return self.inner.generate(rng)

    def vary(self, modality, parent, rng):
        return self.inner.vary(modality, parent, rng)

    def describe(self, modality, payload):
        return self.inner.describe(modality, payload)

    def cohere(self, payloads):
        return self.inner.cohere(payloads)


def record_view(record):
    return (
        record.samples,
        record.reports,
        canonical_json(archive_to_dict(record.archive)),
        [(step, canonical_json(archive_to_dict(a))) for step, a in record.snapshots],
    )


@pytest.mark.parametrize(
    "make, params",
    [
        (VectorPairDomain, {}),
        (ToyMediaDomain, {"width": 8, "height": 8}),
    ],
)
def test_cohere_only_binding_gives_identical_record(make, params):
    domain = make(**params)
    config = RunConfig(
        domain=domain.name,
        seed=31,
        method="melita",
        axis_sizes=domain.axis_sizes,
        init_count=40,
        steps=150,
        snapshot_every=50,
        domain_params=params,
    )
    bare = run(make(**params), config, np.random.default_rng(config.seed))
    wrapped = run(Forwarding(make(**params)), config, np.random.default_rng(config.seed))
    assert record_view(wrapped) == record_view(bare)


class CountingMedia(ToyMediaDomain):
    """Counts ``features`` calls per payload object. Payloads are kept
    alive so that their ids are never reused."""

    def __init__(self, **params):
        super().__init__(**params)
        self.calls: dict[int, int] = {}
        self.kept: list = []
        self.combines = 0

    def features(self, modality, payload):
        self.calls[id(payload)] = self.calls.get(id(payload), 0) + 1
        self.kept.append(payload)
        return super().features(modality, payload)

    def combine(self, features):
        self.combines += 1
        return super().combine(features)


def test_melita_run_computes_features_at_most_once_per_artefact():
    domain = CountingMedia(width=8, height=8)
    config = RunConfig(
        domain="toy_media",
        seed=7,
        method="melita",
        init_count=60,
        steps=200,
        domain_params={"width": 8, "height": 8},
    )
    record = run(domain, config, np.random.default_rng(config.seed))
    replay = ToyMediaDomain(width=8, height=8)
    rng = np.random.default_rng(config.seed)
    seeds = sum(
        characterize(replay, replay.generate(rng)) is not None for _ in range(config.init_count)
    )
    assert max(domain.calls.values()) == 1
    assert domain.combines == seeds + sum(r.evaluations for r in record.reports)
    assert len(domain.calls) < domain.combines


def assert_features_filled(domain, archive):
    for artefact in (a for s in archive.solutions() for a in s.artefacts):
        values, norm = domain.features(artefact.modality, artefact.payload)
        assert np.array_equal(artefact.features[0], values)
        assert artefact.features[1] == norm


def test_every_seeded_and_stepped_artefact_has_its_features_filled():
    domain = VectorPairDomain()
    rng = np.random.default_rng(8)
    archive = Archive(domain.axis_sizes)
    seed_archive(archive, domain, 40, rng)
    assert_features_filled(domain, archive)
    for _ in range(30):
        melita_step(archive, domain, rng)
    assert_features_filled(domain, archive)


def test_features_slot_is_not_part_of_equality_repr_or_replace():
    filled = Artefact(0, 1.0)
    object.__setattr__(filled, "features", (2.0, 3.0))
    assert filled == Artefact(0, 1.0)
    assert "features" not in repr(filled)
    assert dataclasses.replace(filled, payload=4.0).features is None
