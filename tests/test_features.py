"""The two binding forms: ``analyse`` once per artefact, then
``combine``. The split must reproduce the coherence formula bit for bit,
each form's derived hooks must equal the ones it writes, a binding that
implements only ``describe`` and ``cohere`` must run unchanged, and
seeding and the step procedures must analyse each new payload exactly
once."""
from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from melita import (
    Archive,
    Artefact,
    DomainBinding,
    RunConfig,
    SplitBinding,
    ToyMediaDomain,
    VectorPairDomain,
    characterize,
    melita_step,
    run,
    seed_archive,
)
from melita.domains import toy_media, vector_pair
from melita.domains.common import norm
from melita.domains.toy_media import PROJECTION, image_analysis, text_features, topic_posterior
from melita.harness.serialize import archive_to_dict, canonical_json

import oracles
from conftest import Forwarding


def media_reference(tokens, pixels):
    """The coherence formula as written before the split, operation for
    operation."""
    e_txt = topic_posterior(tokens)
    mapped = PROJECTION @ image_analysis(pixels)[1]
    tn = float(np.linalg.norm(e_txt))
    mn = float(np.linalg.norm(mapped))
    if tn == 0.0 or mn == 0.0:
        return 0.5
    cos = float(np.dot(mapped, e_txt)) / (tn * mn)
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


def split(domain, payloads):
    return domain.combine(tuple(domain.analyse(i, p)[1] for i, p in enumerate(payloads)))


def media_split(tokens, pixels):
    """The formula toy_media's ``combine`` takes, on features that exist
    for an unclassified text too."""
    return toy_media.combine_features(text_features(tokens), image_analysis(pixels)[2])


def pair_split(t, v):
    return vector_pair.combine_features((t, norm(t)), (v, norm(v)))


def test_toy_media_split_is_bit_identical():
    domain = ToyMediaDomain()
    rng = np.random.default_rng(2024)
    pairs = [
        (rng.integers(0, 64, size=int(rng.integers(8, 65))), rng.random((8, 8, 3)))
        for _ in range(300)
    ]
    black = np.zeros((8, 8, 3))
    pairs.append((pairs[0][0], black))
    classified = 0
    for tokens, pixels in pairs:
        expected = media_reference(tokens, pixels)
        assert media_split(tokens, pixels) == expected
        if domain.describe(0, tokens) is None:
            with pytest.raises(ValueError, match="^modality 0: "):
                domain.cohere((tokens, pixels))
        else:
            classified += 1
            assert split(domain, (tokens, pixels)) == expected
            assert domain.cohere((tokens, pixels)) == expected
    assert 0 < classified < len(pairs)
    assert media_split(pairs[0][0], black) == 0.5


def test_vector_pair_split_is_bit_identical():
    domain = VectorPairDomain()
    rng = np.random.default_rng(2025)
    for _ in range(300):
        t, v = rng.standard_normal(8), rng.standard_normal(8) * rng.random() * 4
        expected = oracles.cohere(t, v)
        assert pair_split(t, v) == expected
        assert split(domain, (t, v)) == expected
        assert domain.cohere((t, v)) == expected
    zero = np.zeros(8)
    with pytest.raises(ValueError):
        pair_split(zero, rng.standard_normal(8))
    with pytest.raises(ValueError):
        domain.cohere((rng.standard_normal(8), zero))


@pytest.mark.parametrize(
    "domain, unclassified",
    [
        (VectorPairDomain(), {0: np.zeros(8), 1: np.full(8, np.inf)}),
        (ToyMediaDomain(width=8, height=8), {0: np.array([0, 4])}),
    ],
    ids=["vector_pair", "toy_media"],
)
def test_split_form_derives_describe_and_cohere(domain, unclassified):
    """A split-form binding writes ``analyse`` and ``combine``: its
    ``describe`` is ``analyse``'s bin and its ``cohere`` is ``combine``
    of ``analyse``'s features, bit for bit. ``cohere`` raises naming the
    modality for an unclassified payload (an angle-less or infinite
    vector, a text whose top topics tie; no image is unclassified) and
    for a wrong payload count."""
    assert isinstance(domain, SplitBinding)
    rng = np.random.default_rng(27)
    scored = 0
    for _ in range(100):
        payloads = domain.generate(rng)
        analysed = [domain.analyse(m, p) for m, p in enumerate(payloads)]
        assert [domain.describe(m, p) for m, p in enumerate(payloads)] == [b for b, _ in analysed]
        if all(b is not None for b, _ in analysed):
            scored += 1
            expected = domain.combine(tuple(f for _, f in analysed))
            assert domain.cohere(payloads).hex() == expected.hex()
        for count in (1, 3):
            with pytest.raises(ValueError, match=f"^expected 2 payloads, one per modality, got {count}$"):
                domain.cohere((payloads * 2)[:count])
        for modality, payload in unclassified.items():
            assert domain.describe(modality, payload) is None
            mixed = list(payloads)
            mixed[modality] = payload
            with pytest.raises(ValueError, match=f"^modality {modality}: an unclassified payload"):
                domain.cohere(tuple(mixed))
    assert scored > 50


def test_each_form_leaves_its_own_hooks_abstract():
    """A binding must write one of the two forms whole: a split form
    without ``combine`` or a payload form without ``cohere`` cannot be
    instantiated."""

    class NoCombine(SplitBinding):
        axis_sizes = (4, 4)

        def generate(self, rng):
            return None

        def vary(self, modality, parent, rng):
            return None

        def analyse(self, modality, payload):
            return 0, payload

    class NoCohere(DomainBinding):
        axis_sizes = (4, 4)

        def generate(self, rng):
            return None

        def vary(self, modality, parent, rng):
            return None

        def describe(self, modality, payload):
            return 0

    for cls in (NoCombine, NoCohere):
        with pytest.raises(TypeError, match="abstract method"):
            cls()


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
    config = RunConfig(seed=31, method="melita", init_count=40, steps=150, snapshot_every=50)
    bare = run(make(**params), config, np.random.default_rng(config.seed))
    wrapped = run(Forwarding(make(**params)), config, np.random.default_rng(config.seed))
    assert record_view(wrapped) == record_view(bare)


class Counting:
    """Binding mixin that counts ``analyse`` calls per payload object, and
    ``describe`` calls made inside ``analyse`` or directly. It records what ``generate`` and ``vary`` returned, which
    keeps every payload alive, so no id is reused."""

    def __init__(self, **params):
        super().__init__(**params)
        self.calls: Counter = Counter()
        self.generated: list = []
        self.varied: list = []
        self.inside: Counter = Counter()
        self.direct: Counter = Counter()
        self.combines = 0
        self._depth = 0

    def generate(self, rng):
        payloads = super().generate(rng)
        self.generated.append(payloads)
        return payloads

    def vary(self, modality, parent, rng):
        payload = super().vary(modality, parent, rng)
        self.varied.append((modality, payload))
        return payload

    def analyse(self, modality, payload):
        self.calls[id(payload)] += 1
        self._depth += 1
        try:
            return super().analyse(modality, payload)
        finally:
            self._depth -= 1

    def describe(self, modality, payload):
        (self.inside if self._depth else self.direct)["describe"] += 1
        return super().describe(modality, payload)

    def combine(self, features):
        self.combines += 1
        return super().combine(features)


class CountingMedia(Counting, ToyMediaDomain):
    pass


class CountingPair(Counting, VectorPairDomain):
    pass


class SparsePair(VectorPairDomain):
    """vector_pair whose text is unclassified when its first component is
    below -1, so that seeds and offspring meet the death penalty."""

    def analyse(self, modality, payload):
        if modality == 0 and payload[0] < -1.0:
            return None, None
        return super().analyse(modality, payload)


class CountingSparsePair(Counting, SparsePair):
    pass


class DefaultHookPair(Forwarding):
    """A payload-form binding over vector_pair: it keeps
    ``DomainBinding.analyse``, which calls ``describe`` and returns the
    payload as its features."""

    inner_class = VectorPairDomain

    def __init__(self, **params):
        super().__init__(self.inner_class(**params))


class CountingDefaultHookPair(Counting, DefaultHookPair):
    pass


class CountingDefaultHookSparsePair(Counting, DefaultHookPair):
    inner_class = SparsePair


def test_melita_run_computes_features_at_most_once_per_artefact():
    domain = CountingMedia(width=8, height=8)
    config = RunConfig(seed=7, method="melita", init_count=60, steps=200)
    record = run(domain, config, np.random.default_rng(config.seed))
    replay = ToyMediaDomain(width=8, height=8)
    rng = np.random.default_rng(config.seed)
    seeds = sum(
        characterize(replay, replay.generate(rng)) is not None for _ in range(config.init_count)
    )
    assert max(domain.calls.values()) == 1
    assert domain.combines == seeds + sum(r.evaluations for r in record.reports)
    assert len(domain.calls) < domain.combines


@pytest.mark.parametrize("method", ["melita", "mapelites"])
@pytest.mark.parametrize(
    "make, plain, params, default_hook",
    [
        (CountingPair, VectorPairDomain, {}, False),
        (CountingSparsePair, SparsePair, {}, False),
        (CountingMedia, ToyMediaDomain, {"width": 8, "height": 8}, False),
        (CountingDefaultHookPair, VectorPairDomain, {}, True),
        (CountingDefaultHookSparsePair, SparsePair, {}, True),
    ],
    ids=["vector_pair", "sparse_pair", "toy_media", "default_hook_pair", "default_hook_sparse_pair"],
)
def test_each_new_payload_is_analysed_once(make, plain, params, default_hook, method):
    """One ``analyse`` call per new payload, seeded and varied alike, and
    none for a seed's payloads after its first unclassified one; no
    library path calls ``describe`` itself."""
    domain = make(**params)
    config = RunConfig(seed=11, method=method, init_count=60, steps=300, snapshot_every=100)
    record = run(domain, config, np.random.default_rng(config.seed))

    plain = plain(**params)
    new = [list(enumerate(payloads)) for payloads in domain.generated]
    new += [[varied] for varied in domain.varied]
    expected, classified = Counter(), 0
    for attempt in new:
        for modality, payload in attempt:
            expected[id(payload)] += 1
            if plain.describe(modality, payload) is None:
                break
            classified += 1
    assert domain.calls == expected
    if isinstance(plain, SparsePair):
        assert classified < expected.total()  # some payloads met the death penalty
    assert domain.direct == Counter()
    if default_hook:
        assert domain.inside == Counter(describe=expected.total())
    else:
        assert domain.inside == Counter()
    archives = [record.archive] + [snapshot for _, snapshot in record.snapshots]
    for artefact in (a for archive in archives for s in archive.solutions() for a in s.artefacts):
        assert domain.calls[id(artefact.payload)] == 1
        assert artefact.features is not None


def test_default_analyse_skips_features_for_unclassified_payloads():
    domain = CountingDefaultHookPair()
    assert domain.analyse(0, np.zeros(8)) == (None, None)
    assert domain.inside == Counter(describe=1)
    payload = np.arange(8.0)
    bin_index, features = domain.analyse(0, payload)
    assert bin_index == VectorPairDomain().describe(0, payload)
    assert features is payload
    assert domain.inside == Counter(describe=2)
    assert domain.direct == Counter()


def assert_features_filled(domain, archive):
    for artefact in (a for s in archive.solutions() for a in s.artefacts):
        values, length = artefact.features
        assert np.array_equal(values, artefact.payload)
        assert length.hex() == norm(artefact.payload).hex()


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
