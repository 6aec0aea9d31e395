"""Annotation parsing (DOTA and ICDAR layouts), tiling, and the GT JSON form.

Parsers never throw on a bad line; they skip it and report why in the
returned warning list. Structural failure of a whole file does raise.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .container import is_plain_file_name
from .errors import AllLinesMalformed, EmptyFile, UnknownClass
from .geometry import OrientedBox, Point2

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
    image_id: str
    width: int
    height: int
    objects: list[OrientedBox] = field(default_factory=list)
    class_names: tuple[str, ...] = DOTA_CLASS_NAMES


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

    @property
    def step(self) -> float:
        return self.window * (1.0 - self.overlap)


def _clamped_box(
    coords: Sequence[float],
    width: int | None,
    height: int | None,
    class_id: int,
    difficult: bool,
) -> OrientedBox:
    points = []
    for i in range(4):
        x, y = coords[2 * i], coords[2 * i + 1]
        if width is not None:
            x = min(max(x, 0.0), float(width))
        if height is not None:
            y = min(max(y, 0.0), float(height))
        points.append(Point2(x, y))
    return OrientedBox(tuple(points), class_id=class_id, difficult=difficult)


def _extent(objects: Sequence[OrientedBox]) -> tuple[int, int]:
    max_x = max((p.x for box in objects for p in box.corners), default=1.0)
    max_y = max((p.y for box in objects for p in box.corners), default=1.0)
    return max(1, math.ceil(max_x)), max(1, math.ceil(max_y))


class _Malformed(Exception):
    """A content line that does not have its format's fields at all."""


def _coords(fields: Sequence[str]) -> list[float]:
    try:
        return [float(t) for t in fields]
    except ValueError:
        raise _Malformed("unparseable coordinates") from None


def _parse_lines(
    text: str,
    parse_line: Callable[[str, int | None, int | None], OrientedBox],
    class_names: tuple[str, ...],
    image_id: str,
    width: int | None,
    height: int | None,
    strict: bool,
    headers: tuple[str, ...] = (),
) -> tuple[AnnotatedImage, list[str]]:
    """The line loop both parsers share.

    parse_line turns one stripped line into a box. It raises _Malformed for
    a line that counts toward AllLinesMalformed, and ValueError for a line
    that is skipped with a warning only. Lines starting with one of headers
    (case-insensitive) are skipped silently.
    """
    warnings: list[str] = []
    objects: list[OrientedBox] = []
    content_lines = 0
    malformed = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip().lstrip("\ufeff")
        if not line or line.lower().startswith(headers):
            continue
        content_lines += 1
        try:
            objects.append(parse_line(line, width, height))
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
    if width is None or height is None:
        ext_w, ext_h = _extent(objects)
        width = width if width is not None else ext_w
        height = height if height is not None else ext_h
    return AnnotatedImage(image_id, width, height, objects, class_names), warnings


def _dota_box(line: str, width: int | None, height: int | None) -> OrientedBox:
    tokens = line.split()
    if len(tokens) != 10:
        raise _Malformed(f"expected 10 fields, got {len(tokens)}")
    coords = _coords(tokens[:8])
    category, difficult = tokens[8], tokens[9]
    if difficult not in ("0", "1"):
        raise _Malformed("difficult flag must be 0 or 1")
    if category not in DOTA_CLASS_NAMES:
        raise ValueError(f"unknown category {category!r}, skipped")
    return _clamped_box(
        coords, width, height,
        class_id=DOTA_CLASS_NAMES.index(category),
        difficult=difficult == "1",
    )


def _icdar_box(line: str, width: int | None, height: int | None) -> OrientedBox:
    parts = line.split(",")
    if len(parts) < 9:
        raise _Malformed("expected 8 coordinates plus text")
    coords = _coords(parts[:8])
    transcription = ",".join(parts[8:]).strip()
    return _clamped_box(
        coords, width, height, class_id=0, difficult=transcription == "###"
    )


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
        text, _dota_box, DOTA_CLASS_NAMES, image_id, width, height, strict,
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
        text, _icdar_box, ICDAR_CLASS_NAMES, image_id, width, height, strict
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
    corner centroid; in the overlap band that can be more than one tile.
    Translated corners are clamped to the tile; a box that clamping leaves
    zero-area or non-convex is dropped with a warning. An axis that needs
    more than MAX_AXIS_WINDOWS windows, or an image that needs more than
    MAX_TILES tiles, raises ValueError before any tile is built.
    """
    xs = _axis_origins(img.width, spec.window, spec.step, "x")
    ys = _axis_origins(img.height, spec.window, spec.step, "y")
    if len(xs) * len(ys) > MAX_TILES:
        raise ValueError(
            f"{len(xs)} x {len(ys)} windows make {len(xs) * len(ys)} tiles, more than {MAX_TILES}"
        )
    tiles = []
    for oy in ys:
        for ox in xs:
            tile_w = int(round(min(spec.window, img.width - ox)))
            tile_h = int(round(min(spec.window, img.height - oy)))
            tile = AnnotatedImage(
                image_id=f"{img.image_id}__{_fmt_origin(ox)}_{_fmt_origin(oy)}",
                width=tile_w,
                height=tile_h,
                objects=[],
                class_names=img.class_names,
            )
            for box in img.objects:
                cx = sum(p.x for p in box.corners) / 4.0
                cy = sum(p.y for p in box.corners) / 4.0
                if not (ox <= cx < ox + spec.window and oy <= cy < oy + spec.window):
                    continue
                moved = [
                    (
                        min(max(p.x - ox, 0.0), float(tile_w)),
                        min(max(p.y - oy, 0.0), float(tile_h)),
                    )
                    for p in box.corners
                ]
                try:
                    tile.objects.append(
                        OrientedBox(
                            tuple(Point2(x, y) for x, y in moved),
                            class_id=box.class_id,
                            score=box.score,
                            difficult=box.difficult,
                        )
                    )
                except ValueError as err:
                    log.warning(
                        "tile=%s dropped a box that clamping left invalid: %s",
                        tile.image_id, err,
                    )
                    continue
            tiles.append(tile)
    return tiles


# --- normalized ground-truth JSON ----------------------------------------------


def image_to_json(img: AnnotatedImage) -> dict:
    return {
        "image_id": img.image_id,
        "width": img.width,
        "height": img.height,
        "objects": [
            {
                "class": img.class_names[box.class_id],
                "corners": box.corner_array(),
                "difficult": box.difficult,
            }
            for box in img.objects
        ],
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


def json_box(record: dict, class_id: int, where: str, **fields) -> OrientedBox:
    """The box of a GT object or detection record whose `corners` passed
    require_fields: x0 y0 ... x3 y3. A shape the box rule rejects raises
    ValueError naming `where`."""
    c = record["corners"]
    try:
        return OrientedBox(
            tuple(Point2(c[i], c[i + 1]) for i in range(0, 8, 2)), class_id=class_id, **fields
        )
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def images_from_json(data: list, class_names: Sequence[str] | None = None) -> list[AnnotatedImage]:
    """Rebuild annotated images from the normalized JSON array.

    A missing field, a field of the wrong type, a size below 1, an image_id
    an earlier image already has or a box the box rule rejects raises
    ValueError naming the image (and the object).
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
    if class_names is None:
        seen = {obj["class"] for img in data for obj in img.get("objects", ())}
        class_names = infer_vocabulary(seen)
    index = {name: i for i, name in enumerate(class_names)}
    images = []
    for entry in data:
        objects = []
        for k, obj in enumerate(entry.get("objects", ())):
            name = obj["class"]
            if name not in index:
                raise UnknownClass(f"class {name!r} not in vocabulary {list(class_names)}")
            objects.append(json_box(
                obj, index[name], f"image {entry['image_id']!r} object {k}",
                difficult=bool(obj.get("difficult", False)),
            ))
        images.append(
            AnnotatedImage(
                image_id=str(entry["image_id"]),
                width=int(entry["width"]),
                height=int(entry["height"]),
                objects=objects,
                class_names=tuple(class_names),
            )
        )
    return images


def load_ground_truth(path: str | Path, class_names: Sequence[str] | None = None) -> list[AnnotatedImage]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return images_from_json(data, class_names)
