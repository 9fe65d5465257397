"""What canonical JSON rejects, the archive cell template against the
stdlib, the vectorised payload encoding against its per-element oracle,
exact payload and archive round trips (older list-form image archives
included), the loader's field checks, the loader against the
field-by-field oracle on valid and mutated archives, both CLI analyses
on mutated archive files, metrics rows against per-field formatting,
one rendering per elite and per artefact within a run's files, and
files that appear only complete."""
import base64
import contextlib
import copy
import functools
import io
import json
import math
import re
import struct
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from melita import Archive, Artefact, RunConfig, Solution, ToyMediaDomain, VectorPairDomain, run
from melita.archive import Cell
from melita.harness import ExperimentConfig, experiment, run_experiment, serialize
from melita.harness.cli import main as cli_main
from melita.harness.serialize import (
    archive_from_dict,
    archive_to_dict,
    canonical_json,
    decode_payload,
    encode_payload,
    load_archive,
    load_metrics,
    metric_columns,
    save_archive,
    save_metrics,
    write_json,
)
from melita.metrics import MetricsSample


def stdlib(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_canonical_json_rejects_what_json_cannot_render():
    # A set or a numpy integer raises; a non-string scalar key becomes a
    # string, as json.dumps makes it.
    with pytest.raises(TypeError):
        canonical_json([{1, 2}])
    with pytest.raises(TypeError):
        canonical_json({"a": np.int64(1)})
    assert canonical_json({1: "key"}) == '{\n  "1": "key"\n}\n'


def vp_record(method, seed):
    config = RunConfig(
        method=method, seed=seed, steps=300, init_count=30, selection="ucb", snapshot_every=100,
    )
    return run(VectorPairDomain(), config, np.random.default_rng(seed))


def media_record(method, seed):
    domain = ToyMediaDomain(width=8, height=8)
    config = RunConfig(method=method, seed=seed, steps=60, init_count=20, snapshot_every=30)
    return run(domain, config, np.random.default_rng(seed))


@pytest.mark.parametrize("record", [vp_record, media_record])
@pytest.mark.parametrize("method", ["mapelites", "melita"])
def test_archives_and_snapshots_match_stdlib(tmp_path, record, method):
    rec = record(method, 31)
    assert rec.snapshots
    archives = [rec.archive] + [snapshot for _, snapshot in rec.snapshots]
    blocks = {}
    for i, archive in enumerate(archives):
        data = archive_to_dict(archive, "digest")
        text = canonical_json(data)
        assert text == stdlib(data)
        path = tmp_path / f"archive{i}.json"
        save_archive(path, archive, "digest", blocks)
        assert path.read_text() == text


def test_empty_archive_matches_stdlib(tmp_path):
    archive = Archive((3, 4))
    data = archive_to_dict(archive, "")
    assert canonical_json(data) == stdlib(data)
    save_archive(tmp_path / "empty.json", archive)
    assert (tmp_path / "empty.json").read_text() == stdlib(data)
    # A cell written directly may hold a solution of no artefacts.
    archive.cells[(0, 0)] = Cell(Solution((), 0.5, ()), birth_step=0)
    save_archive(tmp_path / "bare.json", archive)
    assert (tmp_path / "bare.json").read_text() == stdlib(archive_to_dict(archive))


def _payloads():
    rng = np.random.default_rng(7)
    specials = [0.0, -0.0, 1.0, -1.5, math.nan, math.inf, -math.inf]
    cases = {}
    # longdouble elements are numpy scalars in tolist(), so they must be
    # cast to float64 first.
    for dtype in (np.float64, np.float32, np.float16, np.longdouble):
        info = np.finfo(np.float64 if dtype is np.longdouble else dtype)
        values = specials + [float(info.max), float(info.tiny), float(info.smallest_subnormal)]
        noise = rng.standard_normal(20)
        cases[f"vector-{np.dtype(dtype).name}"] = np.concatenate([values, noise]).astype(dtype)
    for dtype in (np.int64, np.int32, np.uint8):
        info = np.iinfo(dtype)
        tokens = np.concatenate([[info.min, info.max, 0], rng.integers(0, 100, 20)])
        cases[f"tokens-{np.dtype(dtype).name}"] = tokens.astype(dtype)
    # Two float32 signalling NaNs, which the float64 cast quiets, and 1.0.
    snan = np.array([0x7FA0BEEF, 0xFF800001, 0x3F800000], dtype="<u4").view(np.float32)
    cases["vector-float32-snan"] = snan
    cases["image-uint8"] = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
    image = rng.random((5, 4, 3)).astype(np.float32)
    image[0, 0] = [-0.0, np.nan, np.inf]
    cases["image-float32"] = image
    # A non-contiguous view must be read in row-major order.
    cases["image-float32-transposed"] = image.transpose(1, 0, 2)
    return cases


PAYLOADS = _payloads()


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_encode_payload_matches_per_element_oracle(name):
    payload = PAYLOADS[name]
    encoded, expected = encode_payload(payload), oracles.encode_payload(payload)
    # repr tells 1 from 1.0 and 0.0 from -0.0, and spells NaN and inf.
    assert repr(encoded) == repr(expected)
    assert canonical_json(encoded) == stdlib(expected)


# Raw bit patterns per dtype: zeros of both signs, infinities, the
# smallest and largest subnormals, and NaNs of either sign, quiet and
# signalling, with default and non-default payload bits.
SPECIAL_BITS = [
    (np.float64, [0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000, 0x1,
                  0x800FFFFFFFFFFFFF, 0x7FF8000000000000, 0xFFF8000000000001,
                  0x7FF0000000000001, 0x7FF4DEADBEEF0042]),
    (np.float32, [0x0, 0x80000000, 0x7F800000, 0xFF800000, 0x1, 0x807FFFFF, 0x7FC00000,
                  0xFFC00001, 0x7F800001, 0x7FA0BEEF]),
    (np.uint8, [0, 255]),
]


@st.composite
def images(draw):
    """An RGB image of float64, float32 or uint8 elements with arbitrary
    bits, as a contiguous array or a view with other strides."""
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dtype, specials = draw(st.sampled_from(SPECIAL_BITS))
    itemsize = np.dtype(dtype).itemsize
    element = st.integers(0, 2 ** (8 * itemsize) - 1) | st.sampled_from(specials)
    bits = draw(st.lists(element, min_size=3 * height * width, max_size=3 * height * width))
    image = np.array(bits, dtype=f"<u{itemsize}").view(dtype).reshape(height, width, 3)
    return draw(st.sampled_from([
        image,
        image.transpose(1, 0, 2),
        image[::-1, ::-1],
        np.concatenate([image, image[::-1]], axis=1)[:, ::2],
    ]))


@settings(max_examples=300, deadline=None)
@given(images())
def test_image_payload_round_trips_exactly(image):
    text = canonical_json(encode_payload(image))
    # A float32 signalling NaN is quieted when cast to float64, and numpy
    # warns of it; the encoder casts as astype does, without the warning.
    with np.errstate(invalid="ignore"):
        expected = image.astype("<f8")
    decoded = decode_payload(json.loads(text))
    assert decoded.dtype == np.float64 and decoded.shape == image.shape
    assert decoded.tobytes() == expected.tobytes()
    # The same bits as the per-element oracle writes.
    assert text == stdlib(oracles.encode_payload(image))


VECTOR_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]


@st.composite
def payloads(draw):
    """A token list at any int64, int32 or uint8 value, its extremes
    included; a float64, float32 or float16 vector of any float or the
    special values, cast as astype casts; or an image of ``images()``."""
    kind = draw(st.sampled_from(["tokens", "vector", "image"]))
    if kind == "tokens":
        info = np.iinfo(draw(st.sampled_from([np.int64, np.int32, np.uint8])))
        values = st.integers(info.min, info.max) | st.sampled_from([info.min, info.max])
        return np.array(draw(st.lists(values, max_size=6)), dtype=info.dtype)
    if kind == "vector":
        values = draw(st.lists(st.floats() | st.sampled_from(VECTOR_SPECIALS), max_size=6))
        with np.errstate(over="ignore"):  # 1e308 is inf in float32 and float16
            return np.array(values).astype(draw(st.sampled_from([np.float64, np.float32, np.float16])))
    return draw(images())


@st.composite
def archive_series(draw):
    """Up to four archives of one to four modalities, as a run's files
    hold them: each may start from the cells of the one before, and every
    cell's artefacts come from a small pool, so cells share artefacts."""
    modalities = draw(st.integers(1, 4))
    axis_sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=modalities, max_size=modalities)))
    pool = [
        [Artefact(m, draw(payloads())) for _ in range(draw(st.integers(1, 3)))]
        for m in range(modalities)
    ]
    coords = st.tuples(*[st.integers(0, size - 1) for size in axis_sizes])
    archives = []
    for _ in range(draw(st.integers(1, 4))):
        cells = dict(archives[-1].cells) if archives and draw(st.booleans()) else {}
        for c in draw(st.lists(coords, max_size=5)):
            artefacts = tuple(draw(st.sampled_from(pool[m])) for m in range(modalities))
            fitness = draw(st.sampled_from([0.0, 5e-324, 0.5, 1.0, np.float64(0.5), np.float64(5e-324)]))
            cells[c] = Cell(Solution(artefacts, fitness, c), draw(st.integers(0, 2**53)))
        archives.append(Archive(axis_sizes, cells))
    return archives


@settings(max_examples=200, deadline=None)
@given(archive_series(), st.sampled_from(["", "digest"]))
def test_cell_template_matches_stdlib_through_one_memo(tmp_path_factory, archives, digest):
    directory = tmp_path_factory.mktemp("template")
    for archive in archives:
        for cell in archive.cells.values():
            for payload in (a.payload for a in cell.solution.artefacts):
                assert repr(encode_payload(payload)) == repr(oracles.encode_payload(payload))
    blocks = {}
    for i, archive in enumerate(archives):
        expected = stdlib(archive_to_dict(archive, digest))
        for memo in (blocks, None):  # the run's memo, and a file streamed cell by cell
            save_archive(directory / f"archive{i}.json", archive, digest, memo)
            assert (directory / f"archive{i}.json").read_text() == expected


def list_form(archive):
    """``archive``'s dict as archives were written before images were
    base64: every image value a JSON number, written one at a time."""
    data = archive_to_dict(archive)
    for cell, coords in zip(data["cells"], archive.ordered()):
        for entry, artefact in zip(cell["artefacts"], archive.cells[coords].solution.artefacts):
            if isinstance(entry["payload"], dict):
                entry["payload"]["pixels"] = [float(v) for v in artefact.payload.reshape(-1)]
    return data


def assert_same_archive(loaded, archive):
    """The same axes, and per cell the same coords, birth step, fitness
    bits, modalities and payload dtypes, shapes and bytes."""
    assert loaded.axis_sizes == archive.axis_sizes
    assert loaded.ordered() == archive.ordered()
    for coords in archive.ordered():
        got, want = loaded.cells[coords], archive.cells[coords]
        assert got.birth_step == want.birth_step
        assert got.solution.coords == want.solution.coords == coords
        assert got.solution.fitness.hex() == want.solution.fitness.hex()
        assert len(got.solution.artefacts) == len(want.solution.artefacts)
        for a, b in zip(got.solution.artefacts, want.solution.artefacts):
            assert a.modality == b.modality
            expected = b.payload.astype("<f8" if b.payload.ndim == 3 else b.payload.dtype)
            assert a.payload.dtype == expected.dtype and a.payload.shape == expected.shape
            assert a.payload.tobytes() == expected.tobytes()


def media_melita_archive(seed):
    domain = ToyMediaDomain()
    config = RunConfig(method="melita", seed=seed, steps=300, init_count=40)
    return run(domain, config, np.random.default_rng(seed)).archive


@pytest.mark.parametrize("seed", [5, 101000])
def test_media_run_archive_round_trips_through_its_file(tmp_path, seed):
    archive = media_melita_archive(seed)
    assert len(archive) > 10
    save_archive(tmp_path / "archive.json", archive, "digest")
    assert_same_archive(load_archive(tmp_path / "archive.json"), archive)


def test_list_form_image_archive_loads_to_the_same_arrays(tmp_path):
    archive = media_melita_archive(7)
    old = tmp_path / "list_form.json"
    old.write_text(json.dumps(list_form(archive), sort_keys=True, indent=2) + "\n")
    assert '"pixels": [' in old.read_text()
    assert_same_archive(load_archive(old), archive)


def one_media_cell():
    """A well-formed archive dict: one cell holding a token text and a
    2-high, 3-wide image."""
    archive = Archive((4, 4))
    image = np.arange(18, dtype=np.float64).reshape(2, 3, 3) / 7
    archive.insert(Solution((Artefact(0, np.array([3, 1, 4])), Artefact(1, image)), 0.5, (1, 2)))
    return archive_to_dict(archive)


def _pixels_of(count):
    return base64.b64encode(b"\x00" * count).decode()


TOKENS_AT, IMAGE_AT = ("cells", 0, "artefacts", 0), ("cells", 0, "artefacts", 1, "payload")
PAYLOAD, PIXELS = "field 'payload' of cell 0: ", "field 'payload' of cell 0: field 'pixels': "
MISSING = object()  # the field is deleted


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("axis_sizes",), [4.5, True], "field 'axis_sizes': axis size must be an integer >= 1, got 4.5"),
        (("axis_sizes",), [4, True], "field 'axis_sizes': axis size must be an integer >= 1, got True"),
        (("axis_sizes",), [4, 0], "field 'axis_sizes': axis size must be an integer >= 1, got 0"),
        (("axis_sizes",), [], "field 'axis_sizes': axis sizes must be positive, got ()"),
        (("axis_sizes",), [2**40, 2**40], "field 'axis_sizes': array is too big"),
        (TOKENS_AT + ("modality",), 1.9, "field 'modality' of cell 0: modality must be an integer >= 0, got 1.9"),
        (TOKENS_AT + ("modality",), True, "field 'modality' of cell 0: modality must be an integer >= 0, got True"),
        (TOKENS_AT + ("modality",), -1, "field 'modality' of cell 0: modality must be an integer >= 0, got -1"),
        (("cells", 0, "birth_step"), "3", "field 'birth_step' of cell 0: birth_step must be an integer >= 0, got '3'"),
        (("cells", 0, "birth_step"), 3.0, "field 'birth_step' of cell 0: birth_step must be an integer >= 0, got 3.0"),
        (("cells", 0, "birth_step"), -1, "field 'birth_step' of cell 0: birth_step must be an integer >= 0, got -1"),
        (IMAGE_AT + ("width",), 2.0, PAYLOAD + "field 'width': width must be an integer >= 1, got 2.0"),
        (IMAGE_AT + ("height",), True, PAYLOAD + "field 'height': height must be an integer >= 1, got True"),
        (IMAGE_AT + ("width",), 0, PAYLOAD + "field 'width': width must be an integer >= 1, got 0"),
        (IMAGE_AT + ("pixels",), _pixels_of(8 * 17), PIXELS + "cannot reshape array of size 17"),
        (IMAGE_AT + ("pixels",), _pixels_of(8 * 19), PIXELS + "cannot reshape array of size 19"),
        (IMAGE_AT + ("pixels",), _pixels_of(8 * 18 + 3), PIXELS + "buffer size must be a multiple"),
        (IMAGE_AT + ("pixels",), "AAAA!AAA", PIXELS),
        (IMAGE_AT + ("pixels",), [0.5] * 17, PIXELS + "cannot reshape array of size 17"),
        (IMAGE_AT + ("pixels",), [[0.5] * 3] * 6, PIXELS),
        (IMAGE_AT + ("pixels",), None, PIXELS),
        (TOKENS_AT + ("payload",), [True, False], PAYLOAD + "payload holds a boolean: [True, False]"),
        (TOKENS_AT + ("payload",), [1.5, False], PAYLOAD + "payload holds a boolean: [1.5, False]"),
        (TOKENS_AT + ("payload",), [3, None], PAYLOAD + "payload holds a non-number: [3, None]"),
        (TOKENS_AT + ("payload",), ["1.5", 2], PAYLOAD + "payload holds a non-number: ['1.5', 2]"),
        (TOKENS_AT + ("payload",), [[3, 1], [4, 1]], PAYLOAD + "payload holds a non-number: [[3, 1], [4, 1]]"),
        (IMAGE_AT + ("pixels",), [True] + [0.5] * 17, PIXELS + "payload holds a boolean: [True, 0.5"),
        (TOKENS_AT + ("payload",), [2**70], PAYLOAD + "Python int too large to convert to C long"),
        (("cells", 0, "coords"), MISSING, "missing field 'coords' of cell 0"),
        (("cells", 0, "artefacts"), MISSING, "missing field 'artefacts' of cell 0"),
        (IMAGE_AT[:-1] + ("modality",), MISSING, "missing field 'modality' of cell 0"),
        (("cells", 1, "birth_step"), MISSING, "missing field 'birth_step' of cell 1"),
        (("cells", 1), 5, "expected an object with field 'artefacts' of cell 1, got int"),
    ],
    ids=[
        "float_axis", "bool_axis", "zero_axis", "no_axes", "huge_axes", "float_modality", "bool_modality",
        "negative_modality", "string_birth_step", "float_birth_step", "negative_birth_step",
        "float_width", "bool_height", "zero_width", "short_pixel_bytes", "long_pixel_bytes",
        "ragged_pixel_bytes", "bad_base64", "short_pixel_list", "nested_pixel_list",
        "null_pixels", "bool_tokens", "bool_in_vector", "null_in_tokens", "string_in_tokens",
        "nested_tokens", "bool_pixel", "huge_token", "no_coords", "no_artefacts", "no_modality",
        "no_birth_step_in_cell_1", "int_cell_1",
    ],
)
def test_loader_rejects_mistyped_fields_and_wrong_pixel_counts(path, value, message):
    data = one_media_cell()
    data["cells"].append({**data["cells"][0], "coords": [3, 3]})  # a second cell, well formed
    data = json.loads(json.dumps(data))
    archive_from_dict(data)  # well formed as built
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
        archive_from_dict(data)
    if path[0] == "cells":  # a fault in a cell names the cell
        assert f"of cell {path[1]}" in str(excinfo.value)


@functools.cache
def loader_source(name):
    """An archive dict as ``json.loads`` gives it: the final archive or the
    first snapshot of a vector_pair or toy_media melita run."""
    domain, kind = name.split("_")
    record = (vp_record if domain == "vp" else media_record)("melita", 3)
    archive = record.archive if kind == "final" else record.snapshots[0][1]
    return json.loads(canonical_json(archive_to_dict(archive, "digest")))


def archive_signature(archive):
    """Axes, then per cell in order: coords, birth step, fitness bits and each
    artefact's modality and payload dtype, shape and bytes (None when skipped),
    every scalar with its type."""
    def typed(value):
        return type(value), value.hex() if type(value) is float else value

    return tuple(map(typed, archive.axis_sizes)), [
        (
            tuple(map(typed, coords)),
            tuple(map(typed, cell.solution.coords)),
            typed(cell.birth_step),
            typed(cell.solution.fitness),
            [
                (typed(a.modality), a.payload is None or (a.payload.dtype.str, a.payload.shape, a.payload.tobytes()))
                for a in cell.solution.artefacts
            ],
        )
        for coords, cell in archive.cells.items()
    ]


def slots(node, name=""):
    """Every (container, key, name) of ``node``'s tree, parents first: a dict's
    keys named as themselves, a list's indices as the list's name and "[]"."""
    if isinstance(node, dict):
        items = [(key, value, key) for key, value in node.items()]
    elif isinstance(node, list):
        items = [(index, value, name + "[]") for index, value in enumerate(node)]
    else:
        return []
    found = []
    for key, value, child in items:
        found += [(node, key, child), *slots(value, child)]
    return found


FIELD_OF = {"int_fitness": "fitness", "np_coords": "coords", "duplicate": "cells", "truncate": "artefacts"}


def mutated(data, kind, name, pick, value):
    """``data`` with one mutation at the ``pick``-th field called ``name``, or
    of ``data`` itself for a subclass of no name; unchanged when no field
    takes the mutation. ``value`` is what a retype writes, a subclass's
    default factory, or where a duplicated cell goes. An iterator stands
    for a list that can be read once."""
    name = FIELD_OF.get(kind, name)
    if kind == "subclass" and not name:
        return defaultdict(value, data)
    places = [(container, key) for container, key, field in slots(data) if field == name]
    if not places:
        return data
    container, key = places[pick % len(places)]
    old = container[key]
    if kind == "drop":
        del container[key]
    elif kind == "retype":
        container[key] = copy.deepcopy(value)
    elif kind == "subclass" and isinstance(old, dict):
        container[key] = defaultdict(value, old)
    elif kind == "int_fitness" and type(old) is float and math.isfinite(old):
        container[key] = int(old)
    elif kind == "np_coords" and type(old) is list:
        container[key] = [np.int64(c) if type(c) is int else c for c in old]
    elif kind == "duplicate" and type(old) is list and old:
        old.insert(value % (len(old) + 1), copy.deepcopy(old[pick % len(old)]))
    elif kind == "truncate" and type(old) is list and old:
        old.pop()
    elif kind == "iterator" and type(old) is list:
        container[key] = iter(old)
    elif kind == "pixel_list" and type(old) is str:
        with contextlib.suppress(ValueError):
            container[key] = np.frombuffer(base64.b64decode(old), "<f8").tolist()
    return data


FIELDS = (
    "axis_sizes", "axis_sizes[]", "cells", "cells[]", "artefacts", "artefacts[]", "coords", "coords[]",
    "fitness", "birth_step", "modality", "payload", "payload[]", "pixels", "width", "height",
)
RETYPED = (None, True, False, 2**70, -1, 16.0, "3", [[1]], math.nan, np.int64(1), np.float64(0.5))
PICKS = st.integers(0, 2**16)
MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(FIELDS), PICKS, st.none()),
    st.tuples(st.just("retype"), st.sampled_from(FIELDS), PICKS, st.sampled_from(RETYPED)),
    st.tuples(
        st.just("subclass"), st.sampled_from(["", "cells[]", "artefacts[]", "payload"]), PICKS,
        st.sampled_from([list, int, float]),
    ),
    st.tuples(st.just("iterator"), st.sampled_from(["axis_sizes", "cells", "artefacts", "coords"]), PICKS, PICKS),
    st.tuples(st.sampled_from([*FIELD_OF, "pixel_list"]), st.just(""), PICKS, PICKS),
)


# Each example gives a field check of the loader's one pass an input that
# json.loads never yields or that breaks one rule: a dict subclass missing
# a field, a bool or numpy scalar where an int or float belongs, an int or
# NaN fitness, a negative birth step, a repeated cell, a truncated artefact
# list, a bool in a payload, number-list pixels, the missing payload of a
# skipped modality, and read-once iterators for lists.
@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(["vp_final", "vp_snapshot", "media_final", "media_snapshot"]),
    st.integers(0, 8),
    st.none() | st.integers(0, 4),
    st.sampled_from([None, (0,), (1,)]),
    st.lists(MUTATIONS, max_size=3),
)
@example("vp_final", 0, 2, None, [("subclass", "", 0, list), ("drop", "cells", 0, None)])
@example("vp_final", 0, 2, None, [("subclass", "cells[]", 0, int), ("drop", "birth_step", 0, None)])
@example("vp_final", 0, 2, None, [("subclass", "artefacts[]", 0, int), ("drop", "modality", 0, None)])
@example("vp_final", 0, 2, None, [("retype", "axis_sizes[]", 0, 16.0)])
@example("vp_final", 0, 2, None, [("retype", "modality", 0, False)])
@example("media_snapshot", 0, 2, None, [("retype", "modality", 1, np.int64(1))])
@example("media_snapshot", 0, 2, (0,), [("drop", "payload", 1, None)])
@example("vp_final", 0, 2, None, [("retype", "fitness", 0, np.float64(0.5))])
@example("vp_final", 0, 2, None, [("retype", "fitness", 0, math.nan)])
@example("vp_final", 0, 2, None, [("int_fitness", "", 0, 0)])
@example("vp_final", 0, 2, None, [("retype", "birth_step", 0, True)])
@example("vp_final", 0, 2, None, [("retype", "birth_step", 0, -1)])
@example("vp_final", 0, 2, None, [("np_coords", "", 0, 0)])
@example("vp_final", 0, 2, None, [("duplicate", "", 0, 1)])
@example("vp_final", 0, 2, None, [("truncate", "", 0, 0)])
@example("media_final", 0, 2, None, [("retype", "payload[]", 0, True)])
@example("media_final", 0, 2, (1,), [("pixel_list", "", 0, 0)])
@example("vp_final", 0, 2, None, [("int_fitness", "", 1, 0), ("iterator", "axis_sizes", 0, None)])
@example("vp_final", 0, 2, None, [("int_fitness", "", 1, 0), ("iterator", "cells", 0, None)])
@example("vp_final", 0, 2, None, [("int_fitness", "", 1, 0), ("iterator", "artefacts", 0, None)])
@example("vp_final", 0, 2, None, [("int_fitness", "", 1, 0), ("iterator", "coords", 0, None)])
def test_loader_matches_the_field_by_field_oracle(source, start, count, modalities, mutations):
    # A window of the source's cells (all of them when count is None), then
    # each mutation; the loader must give the oracle's archive or its error.
    data = copy.deepcopy(loader_source(source))
    data["cells"] = data["cells"][start : None if count is None else start + count]
    for mutation in mutations:
        data = mutated(data, *mutation)
    try:
        want = oracles.archive_from_dict(copy.deepcopy(data), modalities=modalities)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            archive_from_dict(data, modalities=modalities)
        assert str(got.value) == str(exc)
    else:
        assert archive_signature(archive_from_dict(data, modalities=modalities)) == archive_signature(want)


JSON_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(FIELDS), PICKS, st.none()),
    st.tuples(
        st.just("retype"), st.sampled_from(FIELDS), PICKS,
        st.sampled_from([v for v in RETYPED if not isinstance(v, np.generic)]),
    ),
    st.tuples(st.sampled_from(["int_fitness", "duplicate", "truncate", "pixel_list"]), st.just(""), PICKS, PICKS),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["vp_final", "vp_snapshot", "media_final", "media_snapshot"]),
    st.integers(0, 8),
    st.none() | st.integers(0, 4),
    st.lists(JSON_MUTATIONS, max_size=3),
)
@example("media_final", 0, 2, [("retype", "payload[]", 0, 2**70)])  # OverflowError in a token list
@example("vp_final", 0, 2, [("retype", "axis_sizes[]", 0, 2**70)])  # numpy's dimension limit
@example("vp_final", 0, 2, [("drop", "axis_sizes[]", 0, None), ("drop", "axis_sizes[]", 0, None)])
def test_cli_analyses_a_mutated_archive_file_or_exits_2_with_one_error_line(
    tmp_path_factory, source, start, count, mutations
):
    # The oracle test's windows and mutations, those a JSON file can hold,
    # written to a file that both analyses read through the CLI.
    data = copy.deepcopy(loader_source(source))
    data["cells"] = data["cells"][start : None if count is None else start + count]
    for mutation in mutations:
        data = mutated(data, *mutation)
    path = tmp_path_factory.mktemp("archive") / "archive.json"
    path.write_text(json.dumps(data))
    for command in (["diversity", "--modality", "0", "--distance", "euclidean"], ["medoids", "-k", "1"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main([command[0], "--archive", str(path), *command[1:]])
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 2 and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n") and "Traceback" not in err.getvalue()


# Besides well-formed fields, the inputs where numpy's parser and Python's
# int and float part: underscores, steps beyond int64 in both directions,
# non-ASCII digits and characters numpy reads as digits (U+01FE), a step
# written as a float, tab padding, \x1f (whitespace to numpy only), and
# float spellings only some parsers take.
INT_FIELDS = (
    st.integers(-5, 10**6).map(str)
    | st.integers(2**63 - 2, 2**70).map(str)
    | st.integers(-(2**70), -(2**63) + 2).map(str)
    | st.sampled_from(["1_0", "+7", " 2 ", "\t2\t", "0", "١", "1٠", "Ǿ", "2.0", "\x1f7"])
)
VALUE_FIELDS = (
    st.floats().map(repr)
    | st.floats(0, 1).map("{:.9g}".format)
    | INT_FIELDS
    | st.sampled_from(
        ["nan", "inf", "-inf", " 0.5", "\t0.5\t", "1e-3", "-0.0", "+0.5", "-nan", "Infinity", "1e999", "0_5.5"]
    )
)


def rows_of(fields, size):
    return st.lists(fields, min_size=size, max_size=size).map(",".join)


GOOD_ROWS = st.tuples(INT_FIELDS, *[VALUE_FIELDS] * 4).map(",".join) | rows_of(INT_FIELDS, 5)
BAD_ROWS = (
    st.sampled_from(
        ["", "   ", "\t", "2,0.5,x,0.5,0.5", "0.5,0.5,0.5,0.5,0.5", "nan,0,0,0,0", "1,0.5,0.5,0.5,"]
    )
    | rows_of(VALUE_FIELDS, 4) | rows_of(VALUE_FIELDS, 6) | rows_of(INT_FIELDS, 4) | rows_of(INT_FIELDS, 6)
)


@st.composite
def metrics_texts(draw):
    """A metrics CSV: mostly the header and well-formed rows, sometimes
    malformed rows or a wrong header, with LF or CRLF line endings and at
    times a trailing NUL."""
    rows = draw(st.lists(GOOD_ROWS, max_size=12))
    for bad in draw(st.lists(BAD_ROWS, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), bad)
    header = draw(st.sampled_from([oracles.METRICS_HEADER] * 4 + ["", "step,coverage"]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join([header, *rows]) + draw(st.sampled_from([ending, "", "\x00"]))


def _exact(rows):
    """Each row's types and raw bits, so a NaN's sign counts."""
    return [
        (type(step), step, *map(type, values), *(struct.pack("<d", v) for v in values))
        for step, *values in rows
    ]


def _metrics_text(*rows):
    return "\n".join([oracles.METRICS_HEADER, *rows]) + "\n"


@settings(max_examples=400, deadline=None)
@given(text=metrics_texts())
@example(text=_metrics_text())
@example(text=_metrics_text("1,0.5,-nan,Infinity,1e999"))
@example(text=_metrics_text("1_0,0,0,0,0", f"{2**63},0,0,0,0"))
@example(text=_metrics_text("1,0,0,0,0", "", "2,0,0,0,0"))  # numpy skips a blank line
@example(text=_metrics_text("1,0,0,0,0", "Ǿ,0,0,0,0"))  # numpy reads U+01FE as the digit 462
@example(text=_metrics_text("1,0,0,0,0", "2\x1f,0,0,0,0"))
def test_metrics_readers_match_the_line_by_line_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
    path.write_bytes(text.encode())
    try:
        expected = _exact(oracles.load_metrics(path))
    except ValueError as exc:
        for reader in (load_metrics, metric_columns):
            with pytest.raises(ValueError) as raised:
                reader(path)
            assert str(raised.value) == str(exc)
        return
    assert _exact(load_metrics(path)) == expected
    assert all(type(s) is MetricsSample for s in load_metrics(path))
    assert _exact(zip(*metric_columns(path))) == expected
    assert len(metric_columns(path)) == 5


METRIC_VALUES = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0**-1030, 2.2250738585072014e-308, 1e308]
)
SAMPLES = st.tuples(st.integers(), *[METRIC_VALUES] * 4).map(lambda fields: MetricsSample(*fields))


@settings(max_examples=300, deadline=None)
@given(st.lists(SAMPLES, max_size=20))
def test_metrics_rows_match_the_per_field_format(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
    save_metrics(path, tuple(samples))
    assert path.read_bytes() == oracles.metrics_text(samples).encode()


def archive_with_bad_payload():
    """A valid cell at (0, 0), then one whose 2-D payload has no encoding."""
    archive = Archive((2, 2))
    for coords, visual in (((0, 0), np.zeros(3)), ((1, 1), np.zeros((2, 2)))):
        archive.insert(Solution((Artefact(0, np.ones(3)), Artefact(1, visual)), 0.5, coords))
    return archive


FAILING_WRITES = {
    "save_archive": (lambda path: save_archive(path, archive_with_bad_payload(), "x"), ValueError),
    "write_json": (lambda path: write_json(path, {"ok": [1, 2], "bad": {1, 2}}), TypeError),
    "save_metrics": (
        lambda path: save_metrics(path, (MetricsSample(1, 0.5, 0.5, 0.5, 1.0), None)),
        TypeError,
    ),
}


@pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_failed_write_leaves_no_partial_file(tmp_path, writer, existing):
    write, error = FAILING_WRITES[writer]
    target = tmp_path / "out.json"
    if existing is not None:
        target.write_bytes(existing)
    with pytest.raises(error):
        write(target)
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == existing


@pytest.mark.parametrize("memo", [None, {}], ids=["streamed", "memo"])
@pytest.mark.parametrize(
    "fitness, coords", [(1, (1, 1)), (0.5, (np.int64(1), 1))], ids=["int_fitness", "numpy_coords"]
)
def test_cell_scalar_of_another_type_fails_and_leaves_no_file(tmp_path, memo, fitness, coords):
    # The template writes fitness with float.__repr__ and coords with
    # int.__repr__. Steps and the loader only build float fitness and int
    # coords; any other type raises after the first cell went out.
    artefacts = (Artefact(0, np.ones(2)), Artefact(1, np.zeros(2)))
    archive = Archive((2, 2))
    archive.cells[(0, 0)] = Cell(Solution(artefacts, 0.5, (0, 0)), birth_step=0)
    archive.cells[coords] = Cell(Solution(artefacts, fitness, coords), birth_step=1)
    with pytest.raises(TypeError):
        save_archive(tmp_path / "archive.json", archive, "", memo)
    assert list(tmp_path.iterdir()) == []


def test_bad_payload_message_names_shape(tmp_path):
    with pytest.raises(ValueError, match=r"no payload encoding for array with shape \(2, 2\)"):
        save_archive(tmp_path / "a.json", archive_with_bad_payload())


def test_memo_key_tells_birth_step_coords_and_dead_elites_apart(tmp_path):
    shared = Solution((Artefact(0, np.ones(2)), Artefact(1, np.zeros(2))), 0.25, (0, 0))
    blocks = {}
    for i, (coords, birth) in enumerate([((0, 0), 3), ((0, 0), 7), ((1, 1), 7)]):
        archive = Archive((2, 2))
        archive.cells[coords] = Cell(shared, birth_step=birth)
        save_archive(tmp_path / f"shared{i}.json", archive, "", blocks)
        expected = canonical_json(archive_to_dict(archive))
        assert (tmp_path / f"shared{i}.json").read_text() == expected
    # Each elite is dropped as soon as its file is written; the memo keeps
    # it alive, so a new elite never inherits its id and its block.
    for k in range(50):
        archive = Archive((2, 2))
        solution = Solution((Artefact(0, np.full(2, k)), Artefact(1, np.zeros(2))), k / 50, (0, 0))
        archive.cells[(0, 0)] = Cell(solution, birth_step=0)
        del solution
        save_archive(tmp_path / "fresh.json", archive, "", blocks)
        assert (tmp_path / "fresh.json").read_text() == canonical_json(archive_to_dict(archive))


def test_dropped_artefact_never_lends_its_text_to_a_new_one(tmp_path):
    blocks = {}
    for k in range(50):
        artefact = Artefact(0, np.full(2, float(k)))
        archive = Archive((2,))
        archive.cells[(0,)] = Cell(Solution((artefact,), 0.5, (0,)), birth_step=k)
        del artefact
        save_archive(tmp_path / "fresh.json", archive, "", blocks)
        assert (tmp_path / "fresh.json").read_text() == canonical_json(archive_to_dict(archive))
        # Drop the elite blocks and the archive: only the artefact texts
        # keep their artefacts alive, so a new artefact never takes an id
        # whose text is cached.
        for key in [key for key in blocks if isinstance(key, tuple)]:
            del blocks[key]
        del archive


def test_run_renders_each_elite_once_and_files_match_fresh_renders(tmp_path, monkeypatch):
    config = ExperimentConfig.from_dict(
        {
            "labels": [{"name": "memo", "seed": 900}],
            "runs_per_method": 2,
            "run": {
                "domain": "vector_pair",
                "selection": "ucb",
                "init_count": 20,
                "steps": 400,
                "snapshot_every": 100,
            },
        }
    )
    calls = []
    encoded = []
    real, real_encode = experiment.save_archive, serialize.encode_payload

    def spy(path, archive, digest, blocks):
        size_before, encoded_before = len(blocks), len(encoded)
        real(path, archive, digest, blocks)
        calls.append((path, archive, digest, blocks, size_before, len(encoded) - encoded_before))

    def encode_spy(payload):
        encoded.append(payload)
        return real_encode(payload)

    monkeypatch.setattr(experiment, "save_archive", spy)
    monkeypatch.setattr(serialize, "encode_payload", encode_spy)
    manifest = run_experiment(config, tmp_path)

    runs = {}
    for path, archive, digest, blocks, size_before, encodings in calls:
        assert path.read_text() == canonical_json(archive_to_dict(archive, digest))
        stem = f"{path.parent.name}/{path.name.split('_snapshot')[0].removesuffix('_archive.json')}"
        runs.setdefault(stem, []).append((archive, blocks, size_before, encodings))
    assert len(runs) == len(manifest["runs"]) == 4
    memos = []
    for files in runs.values():
        assert len(files) == 5  # the final archive and four snapshots
        memo = files[0][1]
        assert files[0][2] == 0, "a run's memo starts empty"
        assert all(blocks is memo for _, blocks, _, _ in files)
        assert all(memo is not other for other in memos), "a memo outlived its run"
        memos.append(memo)
        # The memo keeps elite blocks under (elite id, birth step, coords)
        # tuples and artefact texts under artefact ids: one entry per
        # elite written, and fewer than cells written, since snapshots
        # reuse earlier blocks.
        elites = {key for key in memo if isinstance(key, tuple)}
        written = {
            (id(a.cells[c].solution), a.cells[c].birth_step, c)
            for a, *_ in files
            for c in a.cells
        }
        assert elites == written
        assert len(elites) < sum(len(a) for a, *_ in files)
        # One encoding per distinct artefact the run writes.
        artefacts = {
            id(x) for a, *_ in files for cell in a.cells.values() for x in cell.solution.artefacts
        }
        assert sum(encodings for *_, encodings in files) == len(artefacts) == len(memo) - len(elites)
        # An elite's block holds its artefacts' texts as the strings the
        # memo keeps under their ids, so the memo stores each text once.
        for a, *_ in files:
            for c, cell in a.cells.items():
                pieces = memo[id(cell.solution), cell.birth_step, c][1]
                shared = [p for p in pieces if any(p is memo[id(x)][1] for x in cell.solution.artefacts)]
                assert len(shared) == len(cell.solution.artefacts)

        # Some cell changed occupant between snapshots, and its file
        # holds the new occupant.
        snapshots = [a for a, *_ in files[1:]] + [files[0][0]]
        replaced = [
            (later, c)
            for earlier, later in zip(snapshots, snapshots[1:])
            for c in earlier.cells
            if later.cells[c].solution is not earlier.cells[c].solution
        ]
        assert replaced
    for path, archive, *_ in calls:
        cells = {tuple(cell["coords"]): cell for cell in json.loads(path.read_text())["cells"]}
        for coords, cell in archive.cells.items():
            assert cells[coords]["fitness"] == cell.solution.fitness
            assert cells[coords]["birth_step"] == cell.birth_step


def test_run_without_snapshots_keeps_no_memo(tmp_path, monkeypatch):
    config = ExperimentConfig.from_dict(
        {
            "labels": [{"name": "single", "seed": 901}],
            "runs_per_method": 1,
            "run": {"domain": "vector_pair", "init_count": 20, "steps": 50},
        }
    )
    memos = []
    real = experiment.save_archive

    def spy(path, archive, digest, blocks):
        memos.append(blocks)
        real(path, archive, digest, blocks)

    monkeypatch.setattr(experiment, "save_archive", spy)
    run_experiment(config, tmp_path)
    assert memos == [None, None]
