"""Experiment configuration: strict JSON schema with defaults.

A config names a set of labels (each a seed base), a run template shared
by both methods, and a run count. Method and seed are never part of the
template: the harness runs both methods per label, and per-run seeds are
derived as label seed + run index so paired runs start from identical
populations. RunConfig owns the template's run settings; this module
owns its domain keys: ``domain``, ``domain_params`` and ``axis_sizes``.
"""
from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..checks import require_int
from ..domains import make_domain
from ..run import METHODS, RunConfig

_LABEL_NAME = re.compile(r"^[A-Za-z0-9_-]+$")

# Every RunConfig field but these is a key of the config's "run" object.
_DERIVED = ("method", "seed")
_RUN_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name not in _DERIVED)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _require_mapping(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _require_int(value: object, path: str, minimum: int) -> int:
    try:
        return require_int(path, value, minimum)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_str(value: object, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a non-empty string, got {value!r}")
    return value


def _reject_unknown(data: dict, known: set[str], path: str) -> None:
    for key in data:
        if key not in known:
            where = f"{path}.{key}" if path else key
            _fail(where, "unknown key")


@dataclass(frozen=True)
class Label:
    name: str
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    labels: tuple[Label, ...]
    run_template: dict = field(default_factory=dict)
    runs_per_method: int = 10
    output_dir: str | None = None

    def run_config(self, label: Label, run_index: int, method: str) -> RunConfig:
        settings = {key: self.run_template[key] for key in _RUN_KEYS if key in self.run_template}
        return RunConfig(seed=label.seed + run_index, method=method, **settings)

    def to_dict(self) -> dict:
        """Fully resolved, output-dir-independent form; hashing this
        identifies the experiment."""
        run = {key: self.run_template[key] for key in sorted(self.run_template)}
        return {
            "labels": [{"name": l.name, "seed": l.seed} for l in self.labels],
            "runs_per_method": self.runs_per_method,
            "run": run,
        }

    @classmethod
    def from_dict(cls, data: object) -> ExperimentConfig:
        data = _require_mapping(data, "config")
        _reject_unknown(data, {"labels", "runs_per_method", "output_dir", "run"}, "")

        raw_labels = data.get("labels")
        if not isinstance(raw_labels, list) or not raw_labels:
            _fail("labels", "expected a non-empty list")
        labels = []
        for i, entry in enumerate(raw_labels):
            path = f"labels[{i}]"
            entry = _require_mapping(entry, path)
            _reject_unknown(entry, {"name", "seed"}, path)
            name = _require_str(entry.get("name"), f"{path}.name")
            if not _LABEL_NAME.match(name):
                _fail(f"{path}.name", f"must match {_LABEL_NAME.pattern}, got {name!r}")
            seed = _require_int(entry.get("seed"), f"{path}.seed", minimum=0)
            labels.append(Label(name, seed))
        if len({l.name for l in labels}) != len(labels):
            _fail("labels", "label names must be unique")

        runs_per_method = _require_int(data.get("runs_per_method", 10), "runs_per_method", minimum=1)
        for label in labels:
            if label.seed + runs_per_method - 1 >= 2**64:
                _fail("labels", f"seed base {label.seed} overflows 64 bits with {runs_per_method} runs")

        output_dir = data.get("output_dir")
        if output_dir is not None:
            output_dir = _require_str(output_dir, "output_dir")

        raw_run = _require_mapping(data.get("run"), "run")
        if any(key in raw_run for key in _DERIVED):
            _fail("run", "method and seed are derived by the harness, not configured")
        _reject_unknown(raw_run, {*_RUN_KEYS, "domain", "domain_params", "axis_sizes"}, "run")
        name = _require_str(raw_run.get("domain"), "run.domain")
        params = _require_mapping(raw_run.get("domain_params", {}), "run.domain_params")
        settings = {key: raw_run[key] for key in _RUN_KEYS if key in raw_run}
        try:
            run = RunConfig(seed=0, method=METHODS[0], **settings)
        except ValueError as exc:
            raise ConfigError(f"run.{exc}") from None

        try:
            domain = make_domain(name, params)
        except ValueError as exc:
            raise ConfigError(f"run.domain: {exc}") from None
        except TypeError as exc:  # among others, a key that is not a string
            raise ConfigError(f"run.domain_params: {exc}") from None
        axes = [int(a) for a in domain.axis_sizes]
        given = raw_run.get("axis_sizes", axes)
        if given != axes or any(type(a) is not int for a in given):
            _fail("run.axis_sizes", f"must be the domain's bins {axes}, got {given!r}")
        template = {key: getattr(run, key) for key in _RUN_KEYS}
        template.update(domain=name, domain_params=dict(params), axis_sizes=axes)

        return cls(
            labels=tuple(labels),
            run_template=template,
            runs_per_method=runs_per_method,
            output_dir=output_dir,
        )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)
