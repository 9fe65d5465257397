"""On-disk formats.

All JSON is canonical, the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` and a newline; repr floats make load -> re-serialize exact.
``canonical_json`` is that call. ``save_archive`` writes the same bytes
from fixed cell text, rendering each elite once per run.

Payload encodings are structural: integer arrays (token text) serialize
as plain int lists, float vectors as float lists, and RGB images as
{width, height, pixels}, pixels the base64 of row-major, channel-last
little-endian float64 bytes (number lists still load). The decoder keys
on that structure, so analysis reads any domain's archive.

``archive_from_dict`` first builds the archive in one straight-line pass
that takes only the types ``json.loads`` gives (dicts, lists, int axis
sizes, modalities and birth steps, a float fitness) and still passes each
solution through ``Archive.check``. Anything else it meets raises there;
the partial archive is dropped and the field-by-field pass runs instead,
which alone accepts other valid input (an int fitness, numpy integers)
and names the first bad field of malformed input.
"""
from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import IO, Any, Callable, Container, Iterator

import numpy as np

from ..archive import Archive, Cell
from ..checks import require_int
from ..metrics import MetricsSample
from ..types import Artefact, Solution

METRICS_HEADER = "step,coverage,mean_fitness,max_fitness,qd_score"


def canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _replacing(path: str | Path) -> Iterator[IO[str]]:
    """A temporary file beside ``path``: renamed onto it, or deleted on error."""
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
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
        with np.errstate(invalid="ignore"):  # casting a float32 signalling NaN to float64 warns
            pixels = arr.astype("<f8").tobytes()
        return {
            "width": int(arr.shape[1]),
            "height": int(arr.shape[0]),
            "pixels": base64.b64encode(pixels).decode("ascii"),
        }
    kind = arr.dtype.kind
    if arr.ndim == 1 and (kind in "iu" or kind == "f" and arr.dtype.itemsize <= 8):
        return arr.tolist()  # each element as the int or float it equals
    if arr.ndim == 1 and kind == "f":  # longdouble, whose tolist() keeps numpy scalars
        with np.errstate(invalid="ignore"):
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


def _field(data: object, name: str, convert: Callable[[Any], Any], where: str = "") -> Any:
    """``convert(data[name])``; a missing or malformed field raises ValueError
    naming it, followed by ``where`` it is, such as " of cell 3"."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with field {name!r}{where}, got {type(data).__name__}")
    if name not in data:
        raise ValueError(f"missing field {name!r}{where}")
    try:
        return convert(data[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {name!r}{where}: {exc}") from None


def _artefact(data: object, modalities: Container[int] | None, where: str) -> Artefact:
    modality = _field(data, "modality", lambda v: require_int("modality", v, 0), where)
    decode = decode_payload if modalities is None or modality in modalities else lambda v: None
    return Artefact(modality, _field(data, "payload", decode, where))


def _archive_by_field(data: dict, modalities: Container[int] | None) -> Archive:
    """``archive_from_dict``, one field at a time: a missing or malformed field raises
    ValueError naming it and, in a cell, the cell's index, as do repeated coords and
    artefacts out of modality order."""
    archive = Archive(_field(data, "axis_sizes", lambda v: [require_int("axis size", s, 1) for s in v]))
    for index, entry in enumerate(_field(data, "cells", list)):
        where = f" of cell {index}"
        artefacts = tuple([_artefact(a, modalities, where) for a in _field(entry, "artefacts", list, where)])
        coords = _field(entry, "coords", tuple, where)
        if not set(map(type, coords)) <= {int}:  # a bool is not an int here
            raise ValueError(f"field 'coords' of cell {index}: expected integers, got {entry['coords']!r}")
        if type(fitness := _field(entry, "fitness", lambda v: v, where)) not in (float, int):
            raise ValueError(f"field 'fitness' of cell {index}: expected a number, got {fitness!r}")
        try:
            archive.check(solution := Solution(artefacts, float(fitness), coords))
        except OverflowError as exc:  # an integer fitness beyond float range
            raise ValueError(f"field 'fitness' of cell {index}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"cell {index}: {exc}") from None
        if coords in archive.cells:
            earlier = list(archive.cells).index(coords)
            raise ValueError(f"field 'coords' of cell {index}: {list(coords)} repeats cell {earlier}")
        birth_step = _field(entry, "birth_step", lambda v: require_int("birth_step", v, 0), where)
        archive.cells[coords] = Cell(solution, birth_step)
    return archive


def _straight_archive(data: dict, modalities: Container[int] | None) -> Archive:
    """``archive_from_dict`` in one pass for fields of the types ``json.loads`` gives:
    a dict per object, int axis sizes, modalities and birth steps, a float fitness,
    and lists for axis sizes, cells, artefacts and coords, so that none is an
    iterator the field-by-field pass would find read. Anything else raises
    KeyError, TypeError, ValueError or OverflowError."""
    if type(data) is not dict or type(sizes := data["axis_sizes"]) is not list:
        raise TypeError(data)
    if not all(type(s) is int for s in sizes) or type(data["cells"]) is not list:
        raise TypeError(data)
    archive = Archive(sizes)
    cells, check = archive.cells, archive.check
    for entry in data["cells"]:
        if type(entry) is not dict or type(entry["artefacts"]) is not list:
            raise TypeError(entry)
        artefacts = []
        for a in entry["artefacts"]:
            if type(a) is not dict or type(modality := a["modality"]) is not int:
                raise TypeError(a)
            payload = a["payload"]
            if modalities is not None and modality not in modalities:
                payload = None
            elif type(payload) is list:
                payload = np.asarray(payload, _number_dtype(payload))
            else:
                payload = decode_payload(payload)
            artefacts.append(Artefact(modality, payload))
        fitness, birth_step, coords = entry["fitness"], entry["birth_step"], entry["coords"]
        if type(fitness) is not float or type(coords) is not list:
            raise TypeError(entry)
        if type(birth_step) is not int or birth_step < 0:
            raise TypeError(entry)
        check(solution := Solution(tuple(artefacts), fitness, coords := tuple(coords)))
        if coords in cells:
            raise ValueError(coords)
        cells[coords] = Cell(solution, birth_step)
    return archive


def archive_from_dict(data: dict, *, modalities: Container[int] | None = None) -> Archive:
    """The archive ``data`` describes, only ``modalities``' payloads decoded (all when None;
    others load as None). A missing or malformed field raises ValueError naming it and, in
    a cell, the cell's index, as do repeated coords and artefacts out of modality order."""
    try:
        return _straight_archive(data, modalities)
    except (KeyError, TypeError, ValueError, OverflowError):
        return _archive_by_field(data, modalities)


# The text canonical_json gives an image payload, an artefact and a cell
# block of archive_to_dict's cells list: _cell_dict's keys in sorted order,
# at their depth. A cell's coords, birth step and modalities go in through
# int.__repr__ and its fitness through float.__repr__, the functions json
# applies to ints and floats, so any other type (an int fitness, an
# np.int64 coord; Archive.check keeps them out of insert) raises TypeError.
_IMAGE = '{\n            "height": %d,\n            "pixels": "%s",\n            "width": %d\n          }'
_ARTEFACT = '{\n          "modality": %s,\n          "payload": %s\n        }'
_CELL_TAIL = ',\n      "birth_step": %s,\n      "coords": %s,\n      "fitness": %s\n    }'


def _list_text(items: list[str], indent: str) -> str:
    """A JSON list of ``items``' texts, one a line, closing at ``indent`` (a newline and spaces)."""
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _payload_text(payload: np.ndarray) -> str:
    data = encode_payload(payload)
    if isinstance(data, dict):
        return _IMAGE % (data["height"], data["pixels"], data["width"])
    return _list_text(json.dumps(data)[1:-1].split(", ") if data else [], "\n          ")


def _artefact_text(artefact: Artefact, texts: dict) -> str:
    """``artefact``'s ``{modality, payload}`` text, rendered once per ``texts``."""
    if (entry := texts.get(id(artefact))) is None:
        payload = _payload_text(artefact.payload)
        entry = texts[id(artefact)] = (artefact, _ARTEFACT % (int.__repr__(artefact.modality), payload))
    return entry[1]


def _cell_pieces(coords: tuple[int, ...], cell: Cell, texts: dict) -> list[str]:
    """The text ``canonical_json`` gives ``_cell_dict(coords, cell)`` in the cells
    list, in pieces: each artefact's text is the string ``texts`` holds, so a
    run's memo keeps it once however many cell blocks take it in."""
    pieces = ['{\n      "artefacts": [']
    for artefact in cell.solution.artefacts:
        pieces += [",\n        " if len(pieces) > 1 else "\n        ", _artefact_text(artefact, texts)]
    pieces.append(("\n      ]" if len(pieces) > 1 else "]") + _CELL_TAIL % (
        int.__repr__(cell.birth_step),
        _list_text(list(map(int.__repr__, coords)), "\n      "),
        float.__repr__(cell.solution.fitness),
    ))
    return pieces


def _archive_pieces(archive: Archive, config_digest: str, blocks: dict | None) -> Iterator[str]:
    """``canonical_json(archive_to_dict(archive, config_digest))`` in pieces, one cell block at a time."""
    empty = canonical_json({"axis_sizes": list(archive.axis_sizes), "cells": [], "config_hash": config_digest})
    head, _, tail = empty.partition("[]")  # the cells list; axis_sizes is never empty
    yield head + "["
    for i, coords in enumerate(archive.ordered()):
        cell = archive.cells[coords]
        if blocks is None:
            pieces = _cell_pieces(coords, cell, {})
        else:
            if (key := (id(cell.solution), cell.birth_step, coords)) not in blocks:
                blocks[key] = (cell.solution, _cell_pieces(coords, cell, blocks))
            pieces = blocks[key][1]
        yield ",\n    " if i else "\n    "
        yield from pieces
    yield ("\n  ]" if archive.cells else "]") + tail


def save_archive(
    path: str | Path, archive: Archive, config_digest: str = "", blocks: dict | None = None
) -> None:
    """Write ``canonical_json(archive_to_dict(archive, config_digest))``.
    ``blocks``, if given, is a run's memo: it keeps each cell block by
    (elite id, birth step, coords), as pieces that share its artefacts'
    texts, and each artefact's text by artefact id across the run's
    files, and the file goes out in one write. It holds each elite and
    artefact, so no id is reused while its text lives, and both are
    immutable. Without it, one cell block is held and written at a time."""
    pieces = _archive_pieces(archive, config_digest, blocks)
    with _replacing(path) as f:
        if blocks is None:
            f.writelines(pieces)
        else:
            f.write("".join(pieces))


def load_archive(path: str | Path, *, modalities: Container[int] | None = None) -> Archive:
    try:
        return archive_from_dict(json.loads(Path(path).read_text(encoding="utf-8")), modalities=modalities)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_metrics(path: str | Path, samples: tuple[MetricsSample, ...]) -> None:
    with _replacing(path) as f:
        f.write(METRICS_HEADER + "\n" + "".join(["%d,%.9g,%.9g,%.9g,%.9g\n" % s for s in samples]))


_METRICS_ROW = np.dtype([("step", np.int64), ("values", np.float64, 4)])


def metric_columns(path: str | Path) -> tuple[list, ...]:
    """A metrics file's five columns, steps as ints and the rest as floats.
    One numpy pass reads an ASCII file; where it raises, warns or skips a
    blank line, the rows are read one by one with ``int`` and ``float``,
    which names the first bad line or returns what only Python parses
    (``1_000``, steps beyond int64). numpy reads some non-ASCII characters
    as digits (U+01FE as 462) and strips \\x1f as whitespace, so a file
    with either goes to the per-row pass."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: missing metrics header {METRICS_HEADER!r}")
    rows = lines[1:]
    if text.isascii() and "\x1f" not in text:
        with contextlib.suppress(ValueError, Warning), warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, _METRICS_ROW, comments=None, delimiter=",", ndmin=1)
            if len(table) == len(rows):
                return (table["step"].tolist(), *table["values"].T.tolist())
    parsed = []
    for number, line in enumerate(rows, start=2):
        try:
            step, coverage, mean_f, max_f, qd = line.split(",")
            parsed.append((int(step), float(coverage), float(mean_f), float(max_f), float(qd)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
    return tuple(map(list, zip(*parsed))) if parsed else ([], [], [], [], [])


def load_metrics(path: str | Path) -> list[MetricsSample]:
    return list(map(MetricsSample, *metric_columns(path)))
