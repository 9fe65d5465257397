"""Contract a problem domain must satisfy to plug into the search."""
from __future__ import annotations

import abc
from typing import Any

import numpy as np

from .types import Solution


class DomainBinding(abc.ABC):
    """Bundle of generator, per-modality variation, per-modality
    behavioural descriptors, and the cross-modality coherence function.

    A binding deals only in payloads, which the library wraps as
    ``Artefact``s in every ``Solution`` it builds. ``describe`` and
    ``cohere`` must be pure functions of the payloads. ``vary`` and
    ``generate`` draw only from the rng handle they are given and never
    mutate a payload in place.
    Invalid results are signalled with ``None``; malformed payloads are a
    contract violation and raise.

    The library bins each new payload and computes its ``features`` with
    one ``analyse`` call, keeps the features on the artefact it builds,
    and scores through ``combine``, the cross-modality part. Bit for bit,
    ``analyse(m, p)`` must equal ``(describe(m, p), features(m, p) if the
    bin is not None else None)``, and ``combine(tuple(features(i, p) for
    i, p in enumerate(payloads)))`` must equal ``cohere(payloads)``. The
    defaults compose ``describe`` and ``features`` and pass the payloads
    straight to ``cohere``, so a binding that implements only ``cohere``
    behaves as before.
    """

    name: str = "domain"

    @property
    @abc.abstractmethod
    def modality_count(self) -> int: ...

    @property
    @abc.abstractmethod
    def axis_sizes(self) -> tuple[int, ...]: ...

    @abc.abstractmethod
    def generate(self, rng: np.random.Generator) -> tuple[Any, ...] | None:
        """Sample one payload per modality, in order; None when sampling failed."""

    @abc.abstractmethod
    def vary(self, modality: int, parent: Solution, rng: np.random.Generator) -> Any | None:
        """A new payload from the parent's artefact of the given modality."""

    @abc.abstractmethod
    def describe(self, modality: int, payload: Any) -> int | None:
        """Behavioural bin for one payload; None means unclassified."""

    @abc.abstractmethod
    def cohere(self, payloads: tuple[Any, ...]) -> float:
        """Coherence across modalities, in [0, 1]."""

    def features(self, modality: int, payload: Any) -> Any:
        """The per-artefact part of coherence; must not mutate the payload."""
        return payload

    def analyse(self, modality: int, payload: Any) -> tuple[int | None, Any]:
        """The payload's bin and, when it is classified, its features."""
        bin_index = self.describe(modality, payload)
        return bin_index, None if bin_index is None else self.features(modality, payload)

    def combine(self, features: tuple[Any, ...]) -> float:
        """Coherence from one ``features`` result per modality, in order."""
        return self.cohere(features)
