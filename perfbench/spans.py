"""Span recording around melita's public entry points, from outside.

Nothing in the library is edited: ``install`` swaps module attributes
and ``Archive`` methods for wrappers that record a span per call, and
``TracedDomain`` stands in for the domain binding. ``install`` undoes
every swap when its context ends, so untraced runs in the same process
execute the original functions.

A span is (name, start, end, parent). Spans live in flat arrays until
``Tracer.summary`` folds them into per-name call counts, inclusive time
and self time (duration minus the time covered by child spans).
"""
from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import Counter
from types import SimpleNamespace
from typing import Any, Callable, Iterator

import numpy as np

from melita.archive import Archive
from melita.binding import DomainBinding
from melita.types import INSERTED_EMPTY, OFFSPRING_INVALID, REPLACED

STEP_METHODS = {"steps.melita_step": "melita", "steps.vanilla_step": "mapelites"}


class Tracer:
    """In-memory span store for one traced iteration, plus the outcome
    counts read from each step's ``StepReport``."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.steps: Counter = Counter()

    def wrap(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None = None) -> Callable:
        nid = self.ids.setdefault(name, len(self.ids))
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def step_counter(self, method: str) -> Callable[[Any], None]:
        def count(report) -> None:
            self.steps[f"{method}.selections"] += 1
            self.steps[f"{method}.evaluations"] += report.evaluations
            kind = report.outcome.kind
            if kind in (INSERTED_EMPTY, REPLACED):
                self.steps[f"{method}.useful"] += 1
            elif kind == OFFSPRING_INVALID:
                self.steps[f"{method}.invalid"] += 1

        return count

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        if self._stack != [-1]:
            raise RuntimeError("summary taken while spans are still open")
        n = len(self.starts)
        names = np.frombuffer(self.name_ids, dtype=np.int32).copy()
        parents = np.frombuffer(self.parents, dtype=np.int32).copy()
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        self_time = dur - child
        k = len(self.ids)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.ids)
        }


class TracedDomain(DomainBinding):
    """Domain binding that forwards every call to the real one through a
    span. Calls a domain makes on itself (``generate`` scoring its own
    artefacts) stay inside the ``generate`` span."""

    def __init__(self, inner: DomainBinding, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._generate = tracer.wrap("domains.generate", inner.generate)
        self._vary = tracer.wrap("domains.vary", inner.vary)
        self._describe = tracer.wrap("domains.describe", inner.describe)
        self._cohere = tracer.wrap("domains.cohere", inner.cohere)

    @property
    def modality_count(self) -> int:
        return self.inner.modality_count

    @property
    def axis_sizes(self) -> tuple[int, ...]:
        return self.inner.axis_sizes

    def generate(self, rng):
        return self._generate(rng)

    def vary(self, modality, parent, rng):
        return self._vary(modality, parent, rng)

    def describe(self, modality, payload):
        return self._describe(modality, payload)

    def cohere(self, payloads):
        return self._cohere(payloads)


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Route melita's public entry points through ``tracer`` for the
    duration of the context."""
    experiment = importlib.import_module("melita.harness.experiment")
    run_mod = importlib.import_module("melita.run")
    steps_mod = importlib.import_module("melita.steps")

    swaps: list[tuple[object, str, object]] = []

    def swap(owner: object, attr: str, new: object) -> None:
        swaps.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def traced(owner: object, attr: str, name: str, on_result=None) -> None:
        swap(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    make_domain = experiment.make_domain
    swap(
        experiment,
        "make_domain",
        tracer.wrap("domains.make", lambda *a, **k: TracedDomain(make_domain(*a, **k), tracer)),
    )
    traced(experiment, "run", "run.run")
    traced(experiment, "write_json", "serialize.write_json")
    traced(experiment, "save_metrics", "serialize.save_metrics")
    traced(experiment, "save_archive", "serialize.save_archive")
    traced(experiment, "load_metrics", "serialize.load_metrics")
    traced(experiment, "load_archive", "serialize.load_archive")
    traced(experiment, "rank_sum_test", "stats.rank_sum_test")
    traced(experiment, "k_medoids", "clustering.k_medoids")
    traced(experiment, "diversity", "metrics.diversity")

    traced(run_mod, "seed_archive", "run.seed_archive")
    traced(run_mod, "archive_metrics", "metrics.archive_metrics")
    traced(run_mod, "select_uniform", "selection.uniform")
    traced(run_mod, "select_ucb", "selection.ucb")
    for name, method in STEP_METHODS.items():
        attr = name.split(".", 1)[1]
        traced(run_mod, attr, name, tracer.step_counter(method))
    # melita.run uses the copy module only for the snapshot deepcopy.
    swap(run_mod, "copy", SimpleNamespace(deepcopy=tracer.wrap("run.snapshot", run_mod.copy.deepcopy)))
    traced(steps_mod, "transverse_candidates", "steps.transverse_candidates")

    traced(Archive, "occupied", "archive.occupied")
    traced(Archive, "insert", "archive.insert")
    try:
        yield
    finally:
        for owner, attr, old in reversed(swaps):
            setattr(owner, attr, old)
