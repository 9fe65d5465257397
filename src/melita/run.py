"""Configuration and the top-level run loop.

A run seeds an empty archive, executes a fixed budget of step calls
(every call counts, including rejected and invalid offspring), and
records archive metrics after each one: running metrics, checked
against a full recompute once at the end. All stochasticity flows
through the single generator passed in, so (domain, config, seed)
determines the RunRecord exactly.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import partial

import numpy as np

from .archive import Archive
from .binding import DomainBinding
from .checks import require_finite, require_int
from .metrics import MetricsSample, RunningMetrics, archive_metrics
from .selection import select_ucb, select_uniform
from .steps import melita_step, seed_archive, vanilla_step
from .types import StepReport

METHODS = ("mapelites", "melita")
SELECTIONS = ("uniform", "ucb")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings: the only owner of their names, defaults, types
    and ranges, which the experiment config's ``run`` object reuses.
    Every ValueError it raises begins with the field's name. The run's
    domain, and with it the archive's axes, is the binding ``run`` is given."""

    seed: int
    method: str = "mapelites"
    selection: str = "uniform"
    ucb_c: float = 1.0
    init_count: int = 100
    steps: int = 2000
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"selection must be one of {SELECTIONS}, got {self.selection!r}")
        for name, minimum in (("seed", 0), ("init_count", 1), ("steps", 0), ("snapshot_every", 0)):
            object.__setattr__(self, name, require_int(name, getattr(self, name), minimum))
        if self.seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "ucb_c", require_finite("ucb_c", self.ucb_c))


@dataclass(frozen=True)
class RunRecord:
    config: RunConfig
    samples: tuple[MetricsSample, ...]
    archive: Archive
    reports: tuple[StepReport, ...]
    snapshots: tuple[tuple[int, Archive], ...] = ()


def run(domain: DomainBinding, config: RunConfig, rng: np.random.Generator) -> RunRecord:
    """Execute one full seeded run and return its complete trace."""
    archive = Archive(domain.axis_sizes)
    seed_archive(archive, domain, config.init_count, rng)

    select = partial(select_ucb, c=config.ucb_c) if config.selection == "ucb" else select_uniform
    step = melita_step if config.method == "melita" else vanilla_step

    metrics = RunningMetrics(archive)
    samples: list[MetricsSample] = []
    reports: list[StepReport] = []
    snapshots: list[tuple[int, Archive]] = []
    for i in range(1, config.steps + 1):
        report = step(archive, domain, rng, select)
        reports.append(report)
        metrics.record(report.outcome)
        samples.append(metrics.sample(i))
        if config.snapshot_every and i % config.snapshot_every == 0:
            snapshots.append((i, copy.deepcopy(archive)))
    if samples and samples[-1] != archive_metrics(archive, step=config.steps):
        raise RuntimeError("running metrics diverged from the archive")
    return RunRecord(config, tuple(samples), archive, tuple(reports), tuple(snapshots))
