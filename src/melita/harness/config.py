"""Experiment configuration: strict JSON schema with defaults.

A config names a set of labels (each a seed base), a run template shared
by both methods, and a run count. Method and seed are never part of the
template: the harness runs both methods per label, and per-run seeds are
derived as label seed + run index so paired runs start from identical
populations. The template's keys, defaults, types and ranges are those
of RunConfig; this module adds only what JSON itself needs.
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
        return RunConfig(seed=label.seed + run_index, method=method, **self.run_template)

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
        _reject_unknown(raw_run, set(_RUN_KEYS), "run")
        try:
            # A missing domain is reported by RunConfig, like a bad one.
            run = RunConfig(seed=0, method=METHODS[0], **{"domain": None, **raw_run})
        except ValueError as exc:
            raise ConfigError(f"run.{exc}") from None
        template = {key: getattr(run, key) for key in _RUN_KEYS}
        template["axis_sizes"] = list(run.axis_sizes)  # the one tuple field, as plain JSON

        try:
            domain = make_domain(run.domain, run.domain_params)
        except ValueError as exc:
            raise ConfigError(f"run.domain: {exc}") from None
        except TypeError as exc:
            raise ConfigError(f"run.domain_params: {exc}") from None
        if run.axis_sizes != domain.axis_sizes:
            _fail(
                "run.axis_sizes",
                f"must match the domain's bins {list(domain.axis_sizes)}, got {template['axis_sizes']}",
            )

        return cls(
            labels=tuple(labels),
            run_template=template,
            runs_per_method=runs_per_method,
            output_dir=output_dir,
        )


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)
