"""On-disk container for encoded maps.

A container directory holds manifest.json plus one raw little-endian
float32 file per tensor, row-major [channel][row][col]. Branch 1 is the
horizontal branch, branch 2 the oriented one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .encoder import TargetMaps
from .errors import MidlinesError, ShapeMismatch

TENSOR_NAMES = ("hm_b1", "hm_b2", "reg_b1", "reg_b2", "mask_b1", "mask_b2")

_MANIFEST_SIZES = ("stride", "num_classes", "width", "height", "image_w", "image_h")
_MANIFEST_FIELDS = (*_MANIFEST_SIZES, "class_names", "tensors")


def is_plain_file_name(name: str) -> bool:
    """Whether name stays inside its directory: not "", "." or "..", no "/" or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


def _tensor_views(maps: TargetMaps) -> dict[str, np.ndarray]:
    return {
        "hm_b1": maps.heatmap[0],
        "hm_b2": maps.heatmap[1],
        "reg_b1": maps.regression[0],
        "reg_b2": maps.regression[1],
        "mask_b1": maps.reg_mask[0].astype(np.float64),
        "mask_b2": maps.reg_mask[1].astype(np.float64),
    }


def write_maps(
    maps: TargetMaps,
    out_dir: str | Path,
    class_names: list[str] | tuple[str, ...],
    provenance: dict | None = None,
) -> Path:
    """Write one container; returns the manifest path."""
    if len(class_names) != maps.num_classes:
        raise ShapeMismatch(
            f"{len(class_names)} class names for {maps.num_classes} channels"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tensors = []
    for name, array in _tensor_views(maps).items():
        data = np.ascontiguousarray(array, dtype="<f4")
        data.tofile(out / f"{name}.f32")
        tensors.append(
            {"name": name, "file": f"{name}.f32", "shape": list(array.shape), "dtype": "<f4"}
        )
    manifest = {
        "stride": maps.stride,
        "num_classes": maps.num_classes,
        "width": maps.width,
        "height": maps.height,
        "image_w": maps.image_w,
        "image_h": maps.image_h,
        "class_names": list(class_names),
        "tensors": tensors,
    }
    if provenance is not None:
        manifest["provenance"] = provenance
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _count(value, what: str, least: int) -> int:
    """A manifest integer of at least `least`, or ShapeMismatch naming it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ShapeMismatch(f"manifest {what} must be an integer >= {least}, got {value!r}")
    return value


def read_maps(container_dir: str | Path) -> tuple[TargetMaps, list[str]]:
    """Read a container back; inverse of write_maps up to float32 rounding.

    Raises ShapeMismatch when a manifest field is missing or of the wrong
    type (the six sizes are integers of at least 1), when class_names is
    not num_classes strings, when a tensor's file is not a plain file name
    inside the container (empty, "." or "..", or holding "/" or NUL), when a
    tensor file's size disagrees with its manifest shape or required tensors
    are missing, and MidlinesError when a tensor holds NaN or infinity or a
    heatmap holds a value outside [0, 1]; missing files surface as
    FileNotFoundError.
    """
    root = Path(container_dir)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ShapeMismatch("manifest must be a JSON object")
    for field in _MANIFEST_FIELDS:
        if field not in manifest:
            raise ShapeMismatch(f"manifest missing field {field!r}")
    sizes = {field: _count(manifest[field], field, 1) for field in _MANIFEST_SIZES}
    height, width, num_classes = sizes["height"], sizes["width"], sizes["num_classes"]
    class_names = manifest["class_names"]
    if not (
        isinstance(class_names, list)
        and len(class_names) == num_classes
        and all(isinstance(n, str) for n in class_names)
    ):
        raise ShapeMismatch(f"manifest class_names must be a list of {num_classes} strings")
    entries = manifest["tensors"]
    if not isinstance(entries, list) or not all(
        isinstance(t, dict) and isinstance(t.get("name"), str) for t in entries
    ):
        raise ShapeMismatch("manifest tensors must be a list of objects with a name")
    by_name = {t["name"]: t for t in entries}
    missing = [n for n in TENSOR_NAMES if n not in by_name]
    if missing:
        raise ShapeMismatch(f"manifest missing tensors {missing}")

    expected = {"hm": (num_classes, height, width), "reg": (8, height, width), "mask": (height, width)}
    stacks: dict[str, np.ndarray] = {}
    for name in TENSOR_NAMES:
        entry = by_name[name]
        file = entry.get("file")
        if not isinstance(file, str) or not isinstance(entry.get("shape"), list):
            raise ShapeMismatch(f"tensor {name}: manifest entry needs a file name and a shape list")
        # A path would let a manifest read any file outside its container.
        if not is_plain_file_name(file):
            raise ShapeMismatch(f"tensor {name}: file must be a plain file name, got {file!r}")
        shape = tuple(_count(s, f"tensor {name} shape entry", 0) for s in entry["shape"])
        path = root / file
        size, needed = path.stat().st_size, 4 * math.prod(shape)
        if size != needed:  # np.fromfile would drop 1-3 trailing bytes unseen
            raise ShapeMismatch(
                f"tensor {name}: file holds {size} bytes, manifest shape {shape} needs {needed}"
            )
        raw = np.fromfile(path, dtype="<f4")
        kind, branch = name.split("_")
        if shape != expected[kind]:
            raise ShapeMismatch(f"tensor {name}: shape {shape}, expected {expected[kind]}")
        if not np.isfinite(raw).all():
            raise MidlinesError(f"tensor {name}: non-finite values")
        if kind == "hm" and ((raw < 0.0) | (raw > 1.0)).any():
            raise MidlinesError(f"tensor {name}: values outside [0, 1]")
        # Allocated once a file has shown that the manifest's sizes are real.
        if kind not in stacks:
            stacks[kind] = np.empty((2, *shape), dtype=bool if kind == "mask" else np.float64)
        slot = stacks[kind][int(branch[-1]) - 1]
        if kind == "mask":
            np.greater(raw.reshape(shape), 0.5, out=slot)
        else:
            slot[...] = raw.reshape(shape)

    maps = TargetMaps(
        stride=sizes["stride"],
        num_classes=num_classes,
        width=width,
        height=height,
        image_w=sizes["image_w"],
        image_h=sizes["image_h"],
        heatmap=stacks["hm"],
        regression=stacks["reg"],
        reg_mask=stacks["mask"],
        n_objects=0,
    )
    return maps, class_names
