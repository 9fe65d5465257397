"""On-disk formats.

All JSON is canonical, the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` and a newline; repr floats make load -> re-serialize exact.

Payload encodings are structural: integer arrays (token text) serialize
as plain int lists, float vectors as float lists, and RGB images as
{width, height, pixels}, pixels the base64 of row-major, channel-last
little-endian float64 bytes (number lists still load). The decoder keys
on that structure, so analysis reads any domain's archive.
"""
from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Container, Iterator

import numpy as np

from ..archive import Archive, Cell
from ..checks import require_int
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


@np.errstate(invalid="ignore")  # casting a float32 signalling NaN to float64 warns
def encode_payload(payload: np.ndarray) -> object:
    arr = np.asarray(payload)
    if arr.ndim == 3 and arr.shape[2] == 3:
        return {
            "width": int(arr.shape[1]),
            "height": int(arr.shape[0]),
            "pixels": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
        }
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        return arr.tolist()
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64).tolist()
    raise ValueError(f"no payload encoding for array with shape {arr.shape} and dtype {arr.dtype}")


def _number_dtype(data: list) -> type:
    """int64 for a list of plain ints, float64 for ints and floats; other items raise ValueError."""
    if not (types := set(map(type, data))) <= {int, float}:
        raise ValueError(f"payload holds a {'boolean' if bool in types else 'non-number'}: {data!r}")
    return np.int64 if types <= {int} else np.float64


def decode_payload(data: object) -> np.ndarray:
    if isinstance(data, dict):
        shape = tuple(_field(data, n, lambda v: require_int(n, v, 1)) for n in ("height", "width"))
        return _field(data, "pixels", lambda v: (
            np.frombuffer(base64.b64decode(v, validate=True), "<f8") if isinstance(v, str)
            else np.asarray(v, _number_dtype(v)).astype(np.float64)).reshape(shape + (3,)))
    if isinstance(data, list):
        return np.asarray(data, _number_dtype(data))
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from None


def _artefact(data: object, modalities: Container[int] | None) -> Artefact:
    modality = _field(data, "modality", lambda v: require_int("modality", v, 0))
    decode = decode_payload if modalities is None or modality in modalities else lambda v: None
    return Artefact(modality, _field(data, "payload", decode))


def archive_from_dict(data: dict, *, modalities: Container[int] | None = None) -> Archive:
    """The archive ``data`` describes, only ``modalities``' payloads decoded (all when None;
    others load as None). A missing or malformed field raises ValueError naming it, and the
    cell's index for bad or repeated coords, bad fitness, or artefacts out of modality order."""
    archive = Archive(_field(data, "axis_sizes", lambda v: [require_int("axis size", s, 1) for s in v]))
    for index, entry in enumerate(_field(data, "cells", list)):
        artefacts = tuple([_artefact(a, modalities) for a in _field(entry, "artefacts", list)])
        coords = _field(entry, "coords", tuple)
        if not set(map(type, coords)) <= {int}:  # a bool is not an int here
            raise ValueError(f"field 'coords' of cell {index}: expected integers, got {entry['coords']!r}")
        if type(fitness := _field(entry, "fitness", lambda v: v)) not in (float, int):
            raise ValueError(f"field 'fitness' of cell {index}: expected a number, got {fitness!r}")
        try:
            solution = Solution(artefacts, float(fitness), coords)
            archive.check_coords(coords)
        except OverflowError as exc:  # an integer fitness beyond float range
            raise ValueError(f"field 'fitness' of cell {index}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"cell {index}: {exc}") from None
        if coords in archive.cells:
            earlier = list(archive.cells).index(coords)
            raise ValueError(f"field 'coords' of cell {index}: {list(coords)} repeats cell {earlier}")
        birth_step = _field(entry, "birth_step", lambda v: require_int("birth_step", v, 0))
        archive.cells[coords] = Cell(solution, birth_step)
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


def load_archive(path: str | Path, *, modalities: Container[int] | None = None) -> Archive:
    try:
        return archive_from_dict(json.loads(Path(path).read_text()), modalities=modalities)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_metrics(path: str | Path, samples: tuple[MetricsSample, ...]) -> None:
    with _replacing(path) as f:
        f.write(METRICS_HEADER + "\n")
        f.writelines(
            f"{s.step},{s.coverage:.9g},{s.mean_fitness:.9g},{s.max_fitness:.9g},{s.qd_score:.9g}\n"
            for s in samples
        )


def metric_columns(path: str | Path) -> tuple[list, ...]:
    """A metrics file's five columns, steps as ints and the rest as floats, each converted
    in one pass; only on failure are the rows read one by one, to name the first bad line."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: missing metrics header {METRICS_HEADER!r}")
    rows = lines[1:]
    try:
        if not set(map(str.count, rows, [","] * len(rows))) <= {4}:
            raise ValueError("a row does not hold five fields")
        fields = ",".join(rows).split(",") if rows else []
        return (list(map(int, fields[0::5])), *(list(map(float, fields[i::5])) for i in range(1, 5)))
    except ValueError:
        for number, line in enumerate(rows, start=2):
            try:
                step, coverage, mean_f, max_f, qd = line.split(",")
                int(step), float(coverage), float(mean_f), float(max_f), float(qd)
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
        raise


def load_metrics(path: str | Path) -> list[MetricsSample]:
    return list(map(MetricsSample, *metric_columns(path)))
