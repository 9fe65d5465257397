"""Contract a problem domain must satisfy to plug into the search."""
from __future__ import annotations

import abc
from typing import Any, Callable, Mapping

import numpy as np

from .types import Solution


class DomainBinding(abc.ABC):
    """Bundle of generator, per-modality variation, per-modality
    behavioural descriptors, and the cross-modality coherence function.
    ``axis_sizes``, one behavioural axis per modality, sets the modality
    count and the axes of every archive ``run`` builds for the domain.

    A binding deals only in payloads, which the library wraps as
    ``Artefact``s in every ``Solution`` it builds. Binning and scoring
    must be pure functions of the payloads. ``vary`` and ``generate``
    draw only from the rng handle they are given and never mutate a
    payload in place. Invalid results are signalled with ``None``;
    malformed payloads are a contract violation and raise.

    The library bins each new payload with one ``analyse`` call, keeps
    the features it returns on the artefact it builds, and scores
    through ``combine``. A binding writes one of two forms, and the
    other is derived from it. This class is the payload form: the
    binding writes ``describe`` and ``cohere``, ``analyse`` returns the
    payload itself as its features, and ``combine`` is ``cohere``.
    ``SplitBinding`` is the split form.

    Two class attributes serve the experiment harness, which reads them
    from the class registered in ``DOMAINS``: ``constants``, written as
    ``constants.json`` unless None, and ``distances``, which maps each
    extra analysis distance name to a per-payload embedding that raises
    ``ValueError`` on a payload it cannot embed.
    """

    name: str = "domain"
    constants: dict | None = None
    distances: Mapping[str, Callable[[Any], np.ndarray]] = {}

    @property
    @abc.abstractmethod
    def axis_sizes(self) -> tuple[int, ...]: ...

    @property
    def modality_count(self) -> int:
        return len(self.axis_sizes)

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

    def analyse(self, modality: int, payload: Any) -> tuple[int | None, Any]:
        """The payload's bin and, when it is classified, its features."""
        bin_index = self.describe(modality, payload)
        return bin_index, None if bin_index is None else payload

    def combine(self, features: tuple[Any, ...]) -> float:
        """Coherence from one ``analyse`` features result per modality, in order."""
        return self.cohere(features)


class SplitBinding(DomainBinding):
    """The split form: the binding writes ``analyse``, which bins a payload
    and computes its per-artefact features (an embedding and its norm,
    say) in one pass, and ``combine``, the cross-modality part.
    ``describe`` is ``analyse``'s bin, so a subclass changes binning by
    overriding ``analyse`` alone, and ``cohere`` combines each payload's
    features."""

    @abc.abstractmethod
    def analyse(self, modality: int, payload: Any) -> tuple[int | None, Any]: ...

    @abc.abstractmethod
    def combine(self, features: tuple[Any, ...]) -> float: ...

    def describe(self, modality: int, payload: Any) -> int | None:
        return self.analyse(modality, payload)[0]

    def cohere(self, payloads: tuple[Any, ...]) -> float:
        """Raises ``ValueError`` for a payload count other than
        ``modality_count`` and for an unclassified payload."""
        if len(payloads) != self.modality_count:
            raise ValueError(f"expected {self.modality_count} payloads, one per modality, got {len(payloads)}")
        analysed = [self.analyse(modality, payload) for modality, payload in enumerate(payloads)]
        for modality, (bin_index, _) in enumerate(analysed):
            if bin_index is None:
                raise ValueError(f"modality {modality}: an unclassified payload has no coherence")
        return self.combine(tuple(features for _, features in analysed))
