"""On-disk formats.

All JSON is canonical, the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` and a newline; repr floats make load -> re-serialize exact.

Payload encodings are structural: integer arrays (token text) serialize
as plain int lists, float vectors as float lists, and RGB images as
{width, height, pixels} with a row-major flat channel list. The decoder
keys on that structure, so analysis commands can read any archive
without knowing which domain produced it.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Iterator

import numpy as np

from ..archive import Archive, Cell
from ..metrics import MetricsSample
from ..types import Artefact, Solution

METRICS_HEADER = "step,coverage,mean_fitness,max_fitness,qd_score"

# CPython's C encoders; json.dumps uses them only when indent is None.
_flat = json.JSONEncoder(sort_keys=True).encode
_key = json.encoder.encode_basestring_ascii


def _render(obj: object, indent: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` renders it
    at the depth whose lines start with ``indent`` (a newline and spaces).
    A list of plain ints and floats takes one C-encoder call."""
    inner = indent + "  "
    if isinstance(obj, dict):
        body = ("," + inner).join([f"{_key(k)}: {_render(v, inner)}" for k, v in sorted(obj.items())])
        return "{" + inner + body + indent + "}" if obj else "{}"
    if not isinstance(obj, (list, tuple)):
        return _flat(obj)
    if set(map(type, obj)) <= {int, float}:
        body = _flat(obj)[1:-1].replace(", ", "," + inner)
    else:
        body = ("," + inner).join([_render(v, inner) for v in obj])
    return "[" + inner + body + indent + "]" if obj else "[]"


def canonical_json(obj: object) -> str:
    return _render(obj, "\n") + "\n"


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[IO[str]]:
    """A temporary file beside ``path``: renamed onto it, or deleted on error."""
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as f:
        f.write(text)


def write_json(path: str | Path, obj: object) -> None:
    write_text(path, canonical_json(obj))


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(canonical_json(config_dict).encode()).hexdigest()


def encode_payload(payload: np.ndarray) -> object:
    arr = np.asarray(payload)
    if arr.ndim == 3 and arr.shape[2] == 3:
        return {
            "width": int(arr.shape[1]),
            "height": int(arr.shape[0]),
            "pixels": arr.reshape(-1).astype(np.float64).tolist(),
        }
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        return arr.tolist()
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64).tolist()
    raise ValueError(f"no payload encoding for array with shape {arr.shape} and dtype {arr.dtype}")


def decode_payload(data: object) -> np.ndarray:
    if isinstance(data, dict):
        w, h = _field(data, "width", int), _field(data, "height", int)
        return _field(data, "pixels", lambda v: np.asarray(v, dtype=np.float64)).reshape(h, w, 3)
    if isinstance(data, list):
        if all(isinstance(v, int) for v in data):
            return np.asarray(data, dtype=np.int64)
        return np.asarray(data, dtype=np.float64)
    raise ValueError(f"no payload decoding for {type(data).__name__}")


def _cell_dict(coords: tuple[int, ...], cell: Cell) -> dict:
    return {
        "coords": list(coords),
        "fitness": cell.solution.fitness,
        "birth_step": cell.birth_step,
        "artefacts": [
            {"modality": a.modality, "payload": encode_payload(a.payload)}
            for a in cell.solution.artefacts
        ],
    }


def archive_to_dict(archive: Archive, config_digest: str = "") -> dict:
    return {
        "config_hash": config_digest,
        "axis_sizes": list(archive.axis_sizes),
        "cells": [_cell_dict(c, archive.cells[c]) for c in archive.ordered()],
    }


def _field(data: object, name: str, convert: Callable[[Any], Any]) -> Any:
    """``convert(data[name])``; a missing or malformed field raises ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with field {name!r}, got {type(data).__name__}")
    if name not in data:
        raise ValueError(f"missing field {name!r}")
    try:
        return convert(data[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


def archive_from_dict(data: dict) -> Archive:
    """The archive ``data`` describes; a missing or malformed field raises
    ValueError naming it, and the cell's index for bad or repeated coords or fitness."""
    archive = Archive(_field(data, "axis_sizes", lambda v: tuple(int(s) for s in v)))
    for index, entry in enumerate(_field(data, "cells", list)):
        artefacts = tuple([
            Artefact(_field(a, "modality", int), _field(a, "payload", decode_payload))
            for a in _field(entry, "artefacts", list)
        ])
        coords = _field(entry, "coords", tuple)
        if not set(map(type, coords)) <= {int}:  # a bool is not an int here
            raise ValueError(f"field 'coords' of cell {index}: expected integers, got {entry['coords']!r}")
        if type(fitness := _field(entry, "fitness", lambda v: v)) not in (float, int):
            raise ValueError(f"field 'fitness' of cell {index}: expected a number, got {fitness!r}")
        solution = Solution(artefacts, float(fitness), coords)
        archive.check_coords(coords)
        if coords in archive.cells:
            earlier = list(archive.cells).index(coords)
            raise ValueError(f"field 'coords' of cell {index}: {list(coords)} repeats cell {earlier}")
        archive.cells[coords] = Cell(solution, birth_step=_field(entry, "birth_step", int))
    return archive


def save_archive(
    path: str | Path, archive: Archive, config_digest: str = "", blocks: dict | None = None
) -> None:
    """Write ``canonical_json(archive_to_dict(archive, config_digest))``
    one cell block at a time. ``blocks``, if given, memoizes rendered cells
    across a run's files by (elite id, birth step, coords); it holds each
    elite, so no id is reused while it lives, and elites are immutable."""
    memo = {} if blocks is None else blocks
    empty = canonical_json(archive_to_dict(Archive(archive.axis_sizes), config_digest))
    head, _, tail = empty.partition("[]")  # the cells list; axis_sizes is never empty
    with _replacing(path) as f:
        f.write(head + "[")
        for i, coords in enumerate(archive.ordered()):
            cell = archive.cells[coords]
            if (key := (id(cell.solution), cell.birth_step, coords)) not in memo:
                memo[key] = (cell.solution, _render(_cell_dict(coords, cell), "\n    "))
            _, block = memo[key] if blocks is not None else memo.pop(key)  # one block held
            f.write(("," if i else "") + "\n    " + block)
        f.write(("\n  ]" if archive.cells else "]") + tail)


def load_archive(path: str | Path) -> Archive:
    try:
        return archive_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_metrics(path: str | Path, samples: tuple[MetricsSample, ...]) -> None:
    with _replacing(path) as f:
        f.write(METRICS_HEADER + "\n")
        f.writelines(
            f"{s.step},{s.coverage:.9g},{s.mean_fitness:.9g},{s.max_fitness:.9g},{s.qd_score:.9g}\n"
            for s in samples
        )


def load_metrics(path: str | Path) -> list[MetricsSample]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: missing metrics header {METRICS_HEADER!r}")
    samples = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            step, coverage, mean_f, max_f, qd = line.split(",")
            samples.append(
                MetricsSample(int(step), float(coverage), float(mean_f), float(max_f), float(qd))
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    return samples
