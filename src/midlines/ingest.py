"""Annotation parsing (DOTA and ICDAR layouts), tiling, and the GT JSON form.

Parsers never throw on a bad line; they skip it and report why in the
returned warning list. Structural failure of a whole file does raise.
An image holds its objects as one geometry.Boxes table of columns. Each
table is built in one column pass over a whole file or load; a GT image
holds a slice of its load's table.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .container import is_plain_file_name
from .errors import AllLinesMalformed, EmptyFile, UnknownClass
from .geometry import QUAD_MESSAGES, Boxes, OrientedBox, check_finite, oriented_quads

DOTA_CLASS_NAMES = (
    "plane", "baseball-diamond", "bridge", "ground-track-field", "small-vehicle",
    "large-vehicle", "ship", "tennis-court", "basketball-court", "storage-tank",
    "soccer-ball-field", "roundabout", "harbor", "swimming-pool", "helicopter",
)
ICDAR_CLASS_NAMES = ("text",)

_DOTA_HEADERS = ("imagesource", "gsd")

log = logging.getLogger(__name__)


@dataclass
class AnnotatedImage:
    """An image's size and objects; a sequence of OrientedBox given for objects becomes one Boxes."""

    image_id: str
    width: int
    height: int
    objects: Boxes | Sequence[OrientedBox] = ()
    class_names: tuple[str, ...] = DOTA_CLASS_NAMES

    def __post_init__(self):
        if not isinstance(self.objects, Boxes):
            self.objects = Boxes.of(self.objects)


@dataclass(frozen=True)
class TileSpec:
    """Sliding-window layout: fixed window, fractional overlap."""

    window: int = 800
    overlap: float = 0.25

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError(f"overlap must be in [0, 1), got {self.overlap}")
        if not self.window <= sys.float_info.max:  # an int past float range, inf or NaN: no finite step
            raise ValueError(f"window must give a finite step, got {self.window}")

    @property
    def step(self) -> float:
        return self.window * (1.0 - self.overlap)


def _clamp(v: np.ndarray, size) -> np.ndarray:
    """min(max(v, 0.0), size) elementwise, with the answer Python's min and max
    give: v on a tie and where it is NaN, so -0.0 and NaN stay as they are."""
    v = np.where(0.0 > v, 0.0, v)
    return np.where(size < v, size, v)


class _Malformed(ValueError):
    """A content line that does not have its format's fields at all."""


def _coords(fields: Sequence[str]) -> list[float]:
    try:
        return [float(t) for t in fields]
    except ValueError:
        raise _Malformed("unparseable coordinates") from None


def _parse_lines(
    text: str, parse_line: Callable[[str], tuple[list[float], int, bool]], class_names: tuple[str, ...],
    image_id: str, width: int | None, height: int | None, strict: bool, headers: tuple[str, ...] = (),
) -> tuple[AnnotatedImage, list[str]]:
    """The line loop both parsers share, then one pass over the rows' columns.

    parse_line turns one stripped line into its coordinates, class id and
    difficult flag. It raises _Malformed for a line that counts toward
    AllLinesMalformed, and ValueError for a line that is skipped with a
    warning only. Lines starting with one of headers (case-insensitive) are
    skipped silently. A row whose clamped corners make no box is skipped
    too, warned with the error OrientedBox raises for them.
    """
    rows, notes = [], []  # notes: (line number, warning)
    content_lines = malformed = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip().lstrip("\ufeff")
        if not line or line.lower().startswith(headers):
            continue
        content_lines += 1
        try:
            rows.append((lineno, *parse_line(line)))
        except ValueError as err:
            notes.append((lineno, str(err)))
            malformed += isinstance(err, _Malformed)
    if content_lines == 0:
        if strict:
            raise EmptyFile(f"{image_id or 'input'}: no annotation lines")
    elif malformed == content_lines:
        raise AllLinesMalformed(f"{image_id or 'input'}: none of {malformed} lines parse")
    linenos, coords, class_id, difficult = zip(*rows) if rows else ((), (), (), ())
    clamped = np.array(coords, dtype=np.float64).reshape(-1, 4, 2)
    for axis, size in enumerate((width, height)):
        if size is not None:
            clamped[:, :, axis] = _clamp(clamped[:, :, axis], float(size))
    code, corners = oriented_quads(clamped)  # a non-finite point has a code
    for k in np.flatnonzero(code).tolist():
        try:
            OrientedBox(clamped[k].tolist())  # raises the box rule's error for these corners
        except ValueError as err:
            notes.append((linenos[k], str(err)))
    objects = Boxes(corners, np.array(class_id, dtype=np.int64), np.ones(len(rows)), np.array(difficult, dtype=bool))
    objects = objects.take(code == 0)
    # A size not given is the extent of the kept corners.
    max_x, max_y = objects.corners.reshape(-1, 2).max(axis=0).tolist() if len(objects) else (1.0, 1.0)
    width = max(1, math.ceil(max_x)) if width is None else width
    height = max(1, math.ceil(max_y)) if height is None else height
    warnings = [f"line {lineno}: {note}" for lineno, note in sorted(notes)]  # in line order
    return AnnotatedImage(image_id, width, height, objects, class_names), warnings


def _dota_row(line: str) -> tuple[list[float], int, bool]:
    tokens = line.split()
    if len(tokens) != 10:
        raise _Malformed(f"expected 10 fields, got {len(tokens)}")
    coords = _coords(tokens[:8])
    category, difficult = tokens[8], tokens[9]
    if difficult not in ("0", "1"):
        raise _Malformed("difficult flag must be 0 or 1")
    if category not in DOTA_CLASS_NAMES:
        raise ValueError(f"unknown category {category!r}, skipped")
    return coords, DOTA_CLASS_NAMES.index(category), difficult == "1"


def _icdar_row(line: str) -> tuple[list[float], int, bool]:
    parts = line.split(",")
    if len(parts) < 9:
        raise _Malformed("expected 8 coordinates plus text")
    coords = _coords(parts[:8])
    transcription = ",".join(parts[8:]).strip()
    return coords, 0, transcription == "###"


def parse_dota(
    text: str,
    image_id: str = "",
    width: int | None = None,
    height: int | None = None,
    strict: bool = False,
) -> tuple[AnnotatedImage, list[str]]:
    """Parse DOTA label text: x1 y1 x2 y2 x3 y3 x4 y4 category difficult.

    Header lines (imagesource, gsd) are skipped silently. Without explicit
    image dimensions the extent of the parsed corners is used.
    """
    return _parse_lines(text, _dota_row, DOTA_CLASS_NAMES, image_id, width, height, strict, _DOTA_HEADERS)


def parse_icdar(
    text: str,
    image_id: str = "",
    width: int | None = None,
    height: int | None = None,
    strict: bool = False,
) -> tuple[AnnotatedImage, list[str]]:
    """Parse ICDAR text lines: x1,y1,...,y4,transcription.

    The transcription may itself contain commas; "###" marks a difficult
    region.
    """
    return _parse_lines(text, _icdar_row, ICDAR_CLASS_NAMES, image_id, width, height, strict)


# Most windows tile_image lays along one axis. A coordinate near the float
# maximum, or an overlap a few ulps below 1, would otherwise ask for an
# unbounded number of tiles. A 10,007 px axis cut into 1 px windows at
# overlap 0.9 takes 100,061.
MAX_AXIS_WINDOWS = 200_000
# Most tiles tile_image lays out for one image, over both axes: a 1,000 px
# square cut into 1 px windows. Two axes under their cap could otherwise
# still ask for 4 * 10**10 tiles.
MAX_TILES = 1_000_000


def _axis_origins(dim: int, window: int, step: float, axis: str = "x") -> list[float]:
    """Window origins along one axis; the last window is clamped to the edge.

    They increase strictly: every origin before the last is below dim - window,
    and the clamped last one is min(o, dim - window) for a larger o. An axis
    that needs more than MAX_AXIS_WINDOWS windows raises ValueError before
    any origin is built.
    """
    if dim > window:
        span = (dim - window) / step
        count = math.ceil(span) + 1 if math.isfinite(span) else span
        if count > MAX_AXIS_WINDOWS:
            raise ValueError(
                f"{axis} axis of {dim:.6g} px needs {count:.6g} windows, "
                f"more than {MAX_AXIS_WINDOWS}"
            )
    origins: list[float] = []
    o = 0.0
    while True:
        origins.append(min(o, max(0.0, dim - window)))
        if origins[-1] + window >= dim:
            return origins
        o += step


def _origin_names(origins: list[float], axis: str) -> list[str]:
    """How each origin reads in a tile id: an integer as one, anything else by %g.

    %g keeps 6 significant digits, so two origins past 100,000 can read the
    same; that raises ValueError naming both, as their tiles would share an id.
    """
    names: dict[str, float] = {}
    for v in origins:
        name = str(int(v)) if v == int(v) else f"{v:g}"
        if names.setdefault(name, v) != v:
            raise ValueError(f"{axis} origins {names[name]!r} and {v!r} would both name tiles {name}")
    return list(names)


def tile_image(img: AnnotatedImage, spec: TileSpec = TileSpec()) -> list[AnnotatedImage]:
    """Cut an image into overlapping window tiles and split its objects.

    An object belongs to every tile whose half-open window contains its
    corner centroid, (((x0 + x1) + x2) + x3) / 4 and the same in y; in the
    overlap band that can be more than one tile. Translated corners v - o
    are clamped to the tile as min(max(v - o, 0.0), size); a box that
    clamping leaves zero-area or non-convex is dropped with a warning on
    this module's logger, tile by tile and box by box. An axis that needs more than MAX_AXIS_WINDOWS
    windows, an image that needs more than MAX_TILES tiles, or two origins
    that would give two tiles one id (see _origin_names) raise ValueError
    before any tile is built.
    """
    xs = _axis_origins(img.width, spec.window, spec.step, "x")
    ys = _axis_origins(img.height, spec.window, spec.step, "y")
    if len(xs) * len(ys) > MAX_TILES:
        raise ValueError(
            f"{len(xs)} x {len(ys)} windows make {len(xs) * len(ys)} tiles, more than {MAX_TILES}"
        )
    x_names, y_names = _origin_names(xs, "x"), _origin_names(ys, "y")
    corners = img.objects.corners
    with np.errstate(over="ignore", invalid="ignore"):
        cx, cy = ((((corners[:, 0] + corners[:, 1]) + corners[:, 2]) + corners[:, 3]) / 4.0).T
    tiles, empty = [], img.objects.take(slice(0, 0))
    for oy, y_name in zip(ys, y_names):
        row = np.flatnonzero((oy <= cy) & (cy < oy + spec.window))  # a row of empty tiles does no array work
        for ox, x_name in zip(xs, x_names):
            image_id = f"{img.image_id}__{x_name}_{y_name}"
            size = (int(round(min(spec.window, img.width - ox))), int(round(min(spec.window, img.height - oy))))
            boxes = img.objects.take(row[(ox <= cx[row]) & (cx[row] < ox + spec.window)]) if len(row) else empty
            if len(boxes):
                with np.errstate(over="ignore", invalid="ignore"):
                    moved = boxes.corners - np.array((ox, oy), dtype=np.float64)
                code, moved = oriented_quads(_clamp(moved, np.array(size, dtype=np.float64)))
                for c in code[code != 0].tolist():
                    log.warning("tile=%s dropped a box that clamping left invalid: %s", image_id, QUAD_MESSAGES[c])
                kept = code == 0
                boxes = Boxes(moved[kept], boxes.class_id[kept], boxes.score[kept], boxes.difficult[kept])
            tiles.append(AnnotatedImage(image_id, *size, boxes, img.class_names))
    return tiles


# --- normalized ground-truth JSON ----------------------------------------------


# One GT object and one image inside an array of images, laid out as
# json.dumps(indent=2, sort_keys=True) lays them out; CORNERS stands for
# eight %r lines.
_OBJECT_JSON = """\
      {
        "class": %s,
        "corners": [
          CORNERS
        ],
        "difficult": %s
      }""".replace("CORNERS", ",\n          ".join(["%r"] * 8))
_IMAGE_JSON = """\
  {
    "height": %s,
    "image_id": %s,
    "objects": %s,
    "width": %s
  }"""


def json_array(items: Sequence[str], indent: str) -> str:
    """The JSON array of items already laid out as its indented elements,
    closed at indent, as json.dumps(indent=2) writes it: [] when empty."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def images_to_json(images: Sequence[AnnotatedImage]) -> str:
    """The normalized GT JSON file of images, formatted from each image's
    columns: the text json.dumps(payload, indent=2, sort_keys=True) + "\\n"
    gives for their records. Floats print by float.__repr__, strings by
    json's ASCII escaping, and width and height as json prints the values
    held. A table holding a non-finite corner raises ValueError."""
    return json_array([_image_json(img) for img in images], "") + "\n"


def _image_json(img: AnnotatedImage) -> str:
    boxes = img.objects
    if not np.isfinite(boxes.corners).all():
        raise ValueError(f"image {img.image_id!r}: a corner is not finite")
    names = [encode_basestring_ascii(name) for name in img.class_names]
    flags = ("false", "true")
    rows = zip(boxes.class_id.tolist(), boxes.corners.reshape(-1, 8).tolist(), boxes.difficult.tolist())
    objects = [_OBJECT_JSON % (names[c], *xy, flags[d]) for c, xy, d in rows]
    return _IMAGE_JSON % (
        json.dumps(img.height), encode_basestring_ascii(img.image_id),
        json_array(objects, "    "), json.dumps(img.width),
    )


def infer_vocabulary(class_strings: set[str]) -> list[str]:
    """Deterministic vocabulary for a set of class names.

    Known layouts keep their canonical channel order; anything else is
    sorted alphabetically.
    """
    if class_strings <= set(DOTA_CLASS_NAMES):
        return list(DOTA_CLASS_NAMES)
    if class_strings <= set(ICDAR_CLASS_NAMES):
        return list(ICDAR_CLASS_NAMES)
    return sorted(class_strings)


def _is_number(value) -> bool:
    """A real JSON number that fits a float (a bool is not one)."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    )


def _is_integer(value) -> bool:
    return _is_number(value) and float(value).is_integer()


# The type each checked field of the GT and detections JSON must hold.
_FIELD_TYPES: dict[str, tuple[Callable[[object], bool], str]] = {
    # encode names a directory after it, so it may not leave --out.
    "image_id": (lambda v: isinstance(v, str) and is_plain_file_name(v), "a plain file name"),
    "width": (_is_integer, "an integer"),
    "height": (_is_integer, "an integer"),
    "class": (lambda v: isinstance(v, str), "a string"),
    "score": (_is_number, "a number"),
    "corners": (
        lambda v: isinstance(v, list) and len(v) == 8 and all(map(_is_number, v)),
        "a list of 8 numbers",
    ),
    "difficult": (lambda v: isinstance(v, bool), "a boolean"),
}


def require_fields(record, fields: Sequence[str], where: str) -> None:
    """Raise ValueError naming `where` and the first of `fields` the record
    lacks or holds with the wrong type."""
    for name in fields:
        if not isinstance(record, dict) or name not in record:
            raise ValueError(f"{where}: missing field {name!r}")
        is_type, kind = _FIELD_TYPES.get(name, (None, ""))
        if is_type is not None and not is_type(record[name]):
            raise ValueError(f"{where}: {name} must be {kind}, got {record[name]!r}")


def plain_records(records: list, exact: dict[str, type], optional: dict[str, type]) -> bool:
    """Whether every record passes require_fields on class, corners and the
    names of exact, and on each name of optional it holds, judged by exact
    types one field at a time over all records: each record is a dict, its
    class a str, its corners a list of 8 floats, and every other field
    exactly its type (so a bool is no int). False only means the records
    need require_fields' scan: an int corner is a number too, but must
    still pass the float-range test there."""
    if not set(map(type, records)) <= {dict}:
        return False
    for name, kind in {"class": str, "corners": list, **exact}.items():
        if not {type(r.get(name)) for r in records} <= {kind}:
            return False
    for name, kind in optional.items():
        if not {type(r[name]) for r in records if name in r} <= {kind}:
            return False
    corners = [r["corners"] for r in records]
    return set(map(len, corners)) <= {8} and set(map(type, chain.from_iterable(corners))) <= {float}


def boxes_from_json(
    records: Sequence[dict], class_names: Sequence[str], where: Callable[[int], str],
    score: Sequence[float] | None = None,
) -> Boxes:
    """The boxes of GT objects or detection records whose fields passed
    require_fields, held as float64; a missing score is 1.0, a missing
    difficult flag false. The first faulty record raises, named as where(k)
    for its index k: a class outside class_names (UnknownClass), else the
    ValueError OrientedBox raises for it, a point as written."""
    index = {name: i for i, name in enumerate(class_names)}
    raw = np.array([r["corners"] for r in records], dtype=np.float64).reshape(-1, 4, 2)
    class_id = np.array([index.get(r["class"], -1) for r in records], dtype=np.int64)
    score = np.ones(len(records)) if score is None else np.array(score, dtype=np.float64)
    code, corners = oriented_quads(raw)  # a non-finite point has a code
    fault = (class_id < 0) | ~((score >= 0.0) & (score <= 1.0)) | (code != 0)
    if fault.any():
        k = int(np.argmax(fault))
        if class_id[k] < 0:
            raise UnknownClass(f"{where(k)}: class {records[k]['class']!r} not in vocabulary {list(class_names)}")
        c = records[k]["corners"]
        try:
            check_finite(zip(c[0::2], c[1::2]))  # a non-finite point shows as written
            OrientedBox(raw[k].tolist(), score=score[k].item())  # the box rule runs on the float64 row
        except ValueError as err:
            raise ValueError(f"{where(k)}: {err}") from None
    return Boxes(corners, class_id, score, np.array([bool(r.get("difficult", False)) for r in records], dtype=bool))


def images_from_json(data: list, class_names: Sequence[str] | None = None) -> list[AnnotatedImage]:
    """Rebuild annotated images from the normalized JSON array.

    A missing field, a field of the wrong type (a difficult flag, which may
    be left out, must be a JSON boolean), a size below 1, an image_id
    an earlier image already has or a box the box rule rejects raises
    ValueError naming the image (and the object, counted within its image);
    see boxes_from_json. The objects of all images are first checked at
    once by plain_records; only when that fails does each object go through
    require_fields, so the first bad object and its message are the same
    either way. Each image holds its rows of one table of all objects.
    """
    if not isinstance(data, list):
        raise ValueError("ground-truth JSON must be an array of images")
    try:
        records = [obj for entry in data for obj in entry.get("objects", ())]
        plain = plain_records(records, {}, {"difficult": bool})
    except (AttributeError, TypeError):  # an entry that is no dict, or objects that are no list: raised below
        records, plain = [], False
    first: dict[str, int] = {}
    for n, entry in enumerate(data):
        require_fields(entry, ("image_id", "width", "height"), f"image #{n}")
        image_id = entry["image_id"]
        if first.setdefault(image_id, n) != n:
            raise ValueError(f"image #{n}: image_id {image_id!r} repeats image #{first[image_id]}")
        where = f"image {image_id!r}"
        for name in ("width", "height"):
            if entry[name] < 1:
                raise ValueError(f"{where}: {name} {entry[name]} below 1")
        if not isinstance(entry.get("objects", []), list):
            raise ValueError(f"{where}: objects must be a list")
        for k, obj in enumerate(() if plain else entry.get("objects", ())):
            require_fields(obj, ("class", "corners"), f"{where} object {k}")
            if "difficult" in obj:  # optional, but a JSON boolean when given
                require_fields(obj, ("difficult",), f"{where} object {k}")
    if class_names is None:
        class_names = infer_vocabulary({obj["class"] for obj in records})
    starts = list(accumulate((len(entry.get("objects", [])) for entry in data), initial=0))

    def object_name(k: int) -> str:
        n = bisect_right(starts, k) - 1  # the last image whose objects start at or before k
        return f"image {data[n]['image_id']!r} object {k - starts[n]}"

    boxes, names = boxes_from_json(records, class_names, object_name), tuple(class_names)
    return [
        AnnotatedImage(e["image_id"], int(e["width"]), int(e["height"]), boxes.take(slice(a, b)), names)
        for e, a, b in zip(data, starts, starts[1:])
    ]


def detections_by_image(records: list, class_names: Sequence[str]) -> dict[str, Boxes]:
    """The detection records of each image_id ("" where a record has none) as one table, in record order.

    The records are checked at once by plain_records; only when that fails
    does each go through require_fields and the image_id test, so the first
    bad record and its message are the same either way.
    """
    if not isinstance(records, list):
        raise ValueError("detections JSON must be an array of records")
    if not plain_records(records, {"score": float}, {"image_id": str}):
        for n, r in enumerate(records):
            require_fields(r, ("class", "corners", "score"), f"detection #{n}")
            if not isinstance(r.get("image_id", ""), str):
                raise ValueError(f"detection #{n}: image_id must be a string, got {r['image_id']!r}")
    grouped: dict[str, list[int]] = {}
    for n, r in enumerate(records):
        grouped.setdefault(r.get("image_id", ""), []).append(n)
    unknown = sorted({r["class"] for r in records} - set(class_names))
    if unknown:
        raise UnknownClass(f"detection classes not in vocabulary: {unknown}")
    boxes = boxes_from_json(records, class_names, lambda k: f"detection #{k}", [float(r["score"]) for r in records])
    return {image_id: boxes.take(rows) for image_id, rows in grouped.items()}


def read_ground_truth(path: str | Path) -> list:
    """The normalized ground-truth JSON of one file, or the arrays of a
    directory's *.json files joined in name order. A directory file that
    holds no array raises ValueError naming it."""
    path = Path(path)
    if not path.is_dir():
        return json.loads(path.read_text(encoding="utf-8"))
    data: list = []
    for child in sorted(path.glob("*.json")):
        part = json.loads(child.read_text(encoding="utf-8"))
        if not isinstance(part, list):
            raise ValueError(f"{child.name}: ground-truth JSON must be an array of images")
        data.extend(part)
    return data


def load_ground_truth(path: str | Path, class_names: Sequence[str] | None = None) -> list[AnnotatedImage]:
    """The images of a ground-truth file or directory; see read_ground_truth and images_from_json."""
    return images_from_json(read_ground_truth(path), class_names)
