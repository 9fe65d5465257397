"""Quality-diversity search over multimodal solutions.

A MAP-Elites archive holds one elite per behavioural cell; each solution
bundles one artefact per modality, scored by a cross-modality coherence
function. The transverse-assessment step additionally offers every
freshly mutated artefact to the elites sharing its behavioural bin,
letting a single mutation improve cells its direct offspring would never
reach. Two deterministic synthetic domains, metrics and significance
machinery, and an experiment harness (``melita`` CLI) round out the
package.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .archive import Archive, Cell
from .binding import DomainBinding, SplitBinding
from .clustering import KMedoidsResult, k_medoids
from .domains import DOMAINS, ToyMediaDomain, VectorPairDomain, make_domain
from .metrics import DistanceReport, MetricsSample, archive_metrics, auc, diversity
from .run import METHODS, SELECTIONS, RunConfig, RunRecord, run
from .selection import NoElitesError, select_ucb, select_uniform
from .stats import RankSumResult, rank_sum_test
from .steps import (
    characterize,
    melita_step,
    seed_archive,
    transverse_candidates,
    vanilla_step,
)
from .types import (
    INSERTED_EMPTY,
    OFFSPRING_INVALID,
    REJECTED,
    REPLACED,
    Artefact,
    Outcome,
    Solution,
    StepReport,
)

__all__ = [
    "__version__",
    "Archive",
    "Cell",
    "DomainBinding",
    "SplitBinding",
    "KMedoidsResult",
    "k_medoids",
    "DOMAINS",
    "ToyMediaDomain",
    "VectorPairDomain",
    "make_domain",
    "DistanceReport",
    "MetricsSample",
    "archive_metrics",
    "auc",
    "diversity",
    "METHODS",
    "SELECTIONS",
    "RunConfig",
    "RunRecord",
    "run",
    "NoElitesError",
    "select_ucb",
    "select_uniform",
    "RankSumResult",
    "rank_sum_test",
    "characterize",
    "melita_step",
    "seed_archive",
    "transverse_candidates",
    "vanilla_step",
    "INSERTED_EMPTY",
    "OFFSPRING_INVALID",
    "REJECTED",
    "REPLACED",
    "Artefact",
    "Outcome",
    "Solution",
    "StepReport",
]
