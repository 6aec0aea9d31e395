"""Annotation parsing (DOTA and ICDAR layouts), tiling, and the GT JSON form.

Parsers never throw on a bad line; they skip it and report why in the
returned warning list. Structural failure of a whole file does raise.
An image holds its objects as one geometry.Boxes table of columns.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .container import is_plain_file_name
from .errors import AllLinesMalformed, EmptyFile, UnknownClass
from .geometry import QUAD_MESSAGES, Boxes, OrientedBox, check_finite, oriented_quads, quad_rule

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


def _clamped_row(coords: Sequence[float], width: int | None, height: int | None, class_id: int, difficult: bool):
    """A line's corners x0 y0 .. x3 y3, each clamped to the image when its size is known,
    in the order OrientedBox keeps them, with its class id and difficult flag.
    Corners OrientedBox rejects raise its ValueError."""
    xs = [x if width is None else min(max(x, 0.0), float(width)) for x in coords[0::2]]
    ys = [y if height is None else min(max(y, 0.0), float(height)) for y in coords[1::2]]
    code, area = quad_rule(*(v for point in zip(xs, ys) for v in point))  # a non-finite point has a code
    if code:
        OrientedBox(tuple(zip(xs, ys)))  # raises the box rule's error for these corners
    order = (0, 3, 2, 1) if area < 0.0 else range(4)
    return [v for i in order for v in (xs[i], ys[i])], class_id, difficult


class _Malformed(Exception):
    """A content line that does not have its format's fields at all."""


def _coords(fields: Sequence[str]) -> list[float]:
    try:
        return [float(t) for t in fields]
    except ValueError:
        raise _Malformed("unparseable coordinates") from None


def _parse_lines(
    text: str,
    parse_line: Callable[[str, int | None, int | None], tuple],
    class_names: tuple[str, ...],
    image_id: str,
    width: int | None,
    height: int | None,
    strict: bool,
    headers: tuple[str, ...] = (),
) -> tuple[AnnotatedImage, list[str]]:
    """The line loop both parsers share.

    parse_line turns one stripped line into a row. It raises _Malformed for
    a line that counts toward AllLinesMalformed, and ValueError for a line
    that is skipped with a warning only. Lines starting with one of headers
    (case-insensitive) are skipped silently.
    """
    warnings: list[str] = []
    rows = []
    content_lines = 0
    malformed = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip().lstrip("\ufeff")
        if not line or line.lower().startswith(headers):
            continue
        content_lines += 1
        try:
            rows.append(parse_line(line, width, height))
        except _Malformed as err:
            warnings.append(f"line {lineno}: {err}")
            malformed += 1
        except ValueError as err:
            warnings.append(f"line {lineno}: {err}")
    if content_lines == 0:
        if strict:
            raise EmptyFile(f"{image_id or 'input'}: no annotation lines")
    elif malformed == content_lines:
        raise AllLinesMalformed(f"{image_id or 'input'}: none of {malformed} lines parse")
    corners, class_id, difficult = zip(*rows) if rows else ((), (), ())
    corners = np.array(corners, dtype=np.float64).reshape(-1, 4, 2)
    objects = Boxes(corners, np.array(class_id, dtype=np.int64), np.ones(len(rows)), np.array(difficult, dtype=bool))
    # A size not given is the extent of the parsed corners.
    max_x, max_y = corners.reshape(-1, 2).max(axis=0).tolist() if rows else (1.0, 1.0)
    width = max(1, math.ceil(max_x)) if width is None else width
    height = max(1, math.ceil(max_y)) if height is None else height
    return AnnotatedImage(image_id, width, height, objects, class_names), warnings


def _dota_row(line: str, width: int | None, height: int | None) -> tuple:
    tokens = line.split()
    if len(tokens) != 10:
        raise _Malformed(f"expected 10 fields, got {len(tokens)}")
    coords = _coords(tokens[:8])
    category, difficult = tokens[8], tokens[9]
    if difficult not in ("0", "1"):
        raise _Malformed("difficult flag must be 0 or 1")
    if category not in DOTA_CLASS_NAMES:
        raise ValueError(f"unknown category {category!r}, skipped")
    return _clamped_row(coords, width, height, DOTA_CLASS_NAMES.index(category), difficult == "1")


def _icdar_row(line: str, width: int | None, height: int | None) -> tuple:
    parts = line.split(",")
    if len(parts) < 9:
        raise _Malformed("expected 8 coordinates plus text")
    coords = _coords(parts[:8])
    transcription = ",".join(parts[8:]).strip()
    return _clamped_row(coords, width, height, 0, transcription == "###")


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
    return _parse_lines(
        text, _dota_row, DOTA_CLASS_NAMES, image_id, width, height, strict,
        headers=_DOTA_HEADERS,
    )


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
    return _parse_lines(
        text, _icdar_row, ICDAR_CLASS_NAMES, image_id, width, height, strict
    )


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


def _fmt_origin(v: float) -> str:
    return str(int(v)) if v == int(v) else f"{v:g}"


def tile_image(img: AnnotatedImage, spec: TileSpec = TileSpec()) -> list[AnnotatedImage]:
    """Cut an image into overlapping window tiles and split its objects.

    An object belongs to every tile whose half-open window contains its
    corner centroid, (((x0 + x1) + x2) + x3) / 4 and the same in y; in the
    overlap band that can be more than one tile. Translated corners v - o
    are clamped to the tile as min(max(v - o, 0.0), size); a box that
    clamping leaves zero-area or non-convex is dropped with a warning on
    this module's logger, tile by tile and box by box. An axis that needs more than MAX_AXIS_WINDOWS
    windows, or an image that needs more than MAX_TILES tiles, raises
    ValueError before any tile is built.
    """
    xs = _axis_origins(img.width, spec.window, spec.step, "x")
    ys = _axis_origins(img.height, spec.window, spec.step, "y")
    if len(xs) * len(ys) > MAX_TILES:
        raise ValueError(
            f"{len(xs)} x {len(ys)} windows make {len(xs) * len(ys)} tiles, more than {MAX_TILES}"
        )
    corners = img.objects.corners
    with np.errstate(over="ignore", invalid="ignore"):
        cx, cy = ((((corners[:, 0] + corners[:, 1]) + corners[:, 2]) + corners[:, 3]) / 4.0).T
    tiles, empty = [], img.objects.take(slice(0, 0))
    for oy in ys:
        row = np.flatnonzero((oy <= cy) & (cy < oy + spec.window))  # a row of empty tiles does no array work
        for ox in xs:
            image_id = f"{img.image_id}__{_fmt_origin(ox)}_{_fmt_origin(oy)}"
            size = (int(round(min(spec.window, img.width - ox))), int(round(min(spec.window, img.height - oy))))
            boxes = img.objects.take(row[(ox <= cx[row]) & (cx[row] < ox + spec.window)]) if len(row) else empty
            if len(boxes):
                with np.errstate(over="ignore", invalid="ignore"):
                    moved = boxes.corners - np.array((ox, oy), dtype=np.float64)
                moved = np.where(0.0 > moved, 0.0, moved)  # max(d, 0.0) is d unless 0.0 is larger
                limit = np.array(size, dtype=np.float64)
                code, moved = oriented_quads(np.where(limit < moved, limit, moved))  # and min(d, size) likewise
                for c in code[code != 0].tolist():
                    log.warning("tile=%s dropped a box that clamping left invalid: %s", image_id, QUAD_MESSAGES[c])
                kept = code == 0
                boxes = Boxes(moved[kept], boxes.class_id[kept], boxes.score[kept], boxes.difficult[kept])
            tiles.append(AnnotatedImage(image_id, *size, boxes, img.class_names))
    return tiles


# --- normalized ground-truth JSON ----------------------------------------------


def image_to_json(img: AnnotatedImage) -> dict:
    boxes = img.objects
    rows = zip(boxes.class_id.tolist(), boxes.corners.reshape(-1, 8).tolist(), boxes.difficult.tolist())
    return {
        "image_id": img.image_id, "width": img.width, "height": img.height,
        "objects": [{"class": img.class_names[c], "corners": xy, "difficult": d} for c, xy, d in rows],
    }


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
    "image_id": (lambda v: is_plain_file_name(str(v)), "a plain file name"),
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


def boxes_from_json(
    records: Sequence[dict], class_names: Sequence[str], where: str, score: Sequence[float] | None = None
) -> Boxes:
    """The boxes of GT objects or detection records whose fields passed
    require_fields, held as float64; a missing score is 1.0, a missing
    difficult flag false. The first faulty record raises: a class outside
    class_names (UnknownClass), else the ValueError OrientedBox raises for
    it, named as `where` and the record's index, a point as written."""
    index = {name: i for i, name in enumerate(class_names)}
    raw = np.array([r["corners"] for r in records], dtype=np.float64).reshape(-1, 4, 2)
    class_id = np.array([index.get(r["class"], -1) for r in records], dtype=np.int64)
    score = np.ones(len(records)) if score is None else np.array(score, dtype=np.float64)
    code, corners = oriented_quads(raw)  # a non-finite point has a code
    fault = (class_id < 0) | ~((score >= 0.0) & (score <= 1.0)) | (code != 0)
    if fault.any():
        k = int(np.argmax(fault))
        if class_id[k] < 0:
            raise UnknownClass(f"class {records[k]['class']!r} not in vocabulary {list(class_names)}")
        c = records[k]["corners"]
        try:
            check_finite(zip(c[0::2], c[1::2]))  # a non-finite point shows as written
            OrientedBox(raw[k].tolist(), score=score[k].item())  # the box rule runs on the float64 row
        except ValueError as err:
            raise ValueError(f"{where}{k}: {err}") from None
    return Boxes(corners, class_id, score, np.array([bool(r.get("difficult", False)) for r in records], dtype=bool))


def images_from_json(data: list, class_names: Sequence[str] | None = None) -> list[AnnotatedImage]:
    """Rebuild annotated images from the normalized JSON array.

    A missing field, a field of the wrong type (a difficult flag, which may
    be left out, must be a JSON boolean), a size below 1, an image_id
    an earlier image already has or a box the box rule rejects raises
    ValueError naming the image (and the object); see boxes_from_json.
    """
    if not isinstance(data, list):
        raise ValueError("ground-truth JSON must be an array of images")
    first: dict[str, int] = {}
    for n, entry in enumerate(data):
        require_fields(entry, ("image_id", "width", "height"), f"image #{n}")
        image_id = str(entry["image_id"])
        if first.setdefault(image_id, n) != n:
            raise ValueError(f"image #{n}: image_id {image_id!r} repeats image #{first[image_id]}")
        where = f"image {entry['image_id']!r}"
        for name in ("width", "height"):
            if entry[name] < 1:
                raise ValueError(f"{where}: {name} {entry[name]} below 1")
        if not isinstance(entry.get("objects", []), list):
            raise ValueError(f"{where}: objects must be a list")
        for k, obj in enumerate(entry.get("objects", ())):
            require_fields(obj, ("class", "corners"), f"{where} object {k}")
            if "difficult" in obj:  # optional, but a JSON boolean when given
                require_fields(obj, ("difficult",), f"{where} object {k}")
    if class_names is None:
        seen = {obj["class"] for img in data for obj in img.get("objects", ())}
        class_names = infer_vocabulary(seen)
    images = []
    for entry in data:
        boxes = boxes_from_json(entry.get("objects", []), class_names, f"image {entry['image_id']!r} object ")
        images.append(AnnotatedImage(
            str(entry["image_id"]), int(entry["width"]), int(entry["height"]), boxes, tuple(class_names)
        ))
    return images


def load_ground_truth(path: str | Path, class_names: Sequence[str] | None = None) -> list[AnnotatedImage]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return images_from_json(data, class_names)
