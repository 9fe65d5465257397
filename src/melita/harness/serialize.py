"""On-disk formats.

All JSON is canonical: sorted keys, two-space indent, trailing newline.
Floats rely on repr round-tripping, so load -> re-serialize is
byte-identical and every recorded value survives exactly.

Payload encodings are structural: integer arrays (token text) serialize
as plain int lists, float vectors as float lists, and RGB images as
{width, height, pixels} with a row-major flat channel list. The decoder
keys on that structure, so analysis commands can read any archive
without knowing which domain produced it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..archive import Archive, Cell
from ..metrics import MetricsSample
from ..types import Artefact, Solution

METRICS_HEADER = "step,coverage,mean_fitness,max_fitness,qd_score"


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, obj: object) -> None:
    Path(path).write_text(canonical_json(obj))


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(canonical_json(config_dict).encode()).hexdigest()


def encode_payload(payload: np.ndarray) -> object:
    arr = np.asarray(payload)
    if arr.ndim == 3 and arr.shape[2] == 3:
        return {
            "width": int(arr.shape[1]),
            "height": int(arr.shape[0]),
            "pixels": [float(v) for v in arr.reshape(-1)],
        }
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        return [int(v) for v in arr]
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.floating):
        return [float(v) for v in arr]
    raise ValueError(f"no payload encoding for array with shape {arr.shape} and dtype {arr.dtype}")


def decode_payload(data: object) -> np.ndarray:
    if isinstance(data, dict):
        w, h = int(data["width"]), int(data["height"])
        return np.asarray(data["pixels"], dtype=np.float64).reshape(h, w, 3)
    if isinstance(data, list):
        if all(isinstance(v, int) for v in data):
            return np.asarray(data, dtype=np.int64)
        return np.asarray(data, dtype=np.float64)
    raise ValueError(f"no payload decoding for {type(data).__name__}")


def archive_to_dict(archive: Archive, config_digest: str = "") -> dict:
    cells = []
    for coords in archive.ordered():
        cell = archive.cells[coords]
        cells.append(
            {
                "coords": list(coords),
                "fitness": cell.solution.fitness,
                "birth_step": cell.birth_step,
                "artefacts": [
                    {"modality": a.modality, "payload": encode_payload(a.payload)}
                    for a in cell.solution.artefacts
                ],
            }
        )
    return {
        "config_hash": config_digest,
        "axis_sizes": list(archive.axis_sizes),
        "cells": cells,
    }


def archive_from_dict(data: dict) -> Archive:
    archive = Archive(tuple(int(s) for s in data["axis_sizes"]))
    for entry in data["cells"]:
        artefacts = tuple(
            Artefact(int(a["modality"]), decode_payload(a["payload"]))
            for a in entry["artefacts"]
        )
        solution = Solution(artefacts, float(entry["fitness"]), tuple(int(c) for c in entry["coords"]))
        archive.check_coords(solution.coords)
        archive.cells[solution.coords] = Cell(solution, birth_step=int(entry["birth_step"]))
    return archive


def save_archive(path: str | Path, archive: Archive, config_digest: str = "") -> None:
    write_json(path, archive_to_dict(archive, config_digest))


def load_archive(path: str | Path) -> Archive:
    return archive_from_dict(json.loads(Path(path).read_text()))


def _fmt(x: float) -> str:
    return "%.9g" % x


def save_metrics(path: str | Path, samples: tuple[MetricsSample, ...]) -> None:
    lines = [METRICS_HEADER]
    for s in samples:
        lines.append(
            f"{s.step},{_fmt(s.coverage)},{_fmt(s.mean_fitness)},{_fmt(s.max_fitness)},{_fmt(s.qd_score)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_metrics(path: str | Path) -> list[MetricsSample]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: missing metrics header {METRICS_HEADER!r}")
    samples = []
    for line in lines[1:]:
        step, coverage, mean_f, max_f, qd = line.split(",")
        samples.append(
            MetricsSample(int(step), float(coverage), float(mean_f), float(max_f), float(qd))
        )
    return samples
