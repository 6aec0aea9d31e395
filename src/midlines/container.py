"""On-disk container for encoded maps.

A container directory holds manifest.json plus one little-endian file per
tensor. A tensor's cells are numbered by their row-major [channel][row][col]
flat index. Branch 1 is the horizontal branch, branch 2 the oriented one.
Each tensor's manifest entry names its layout:

- "dense": every cell as a float32, in flat-index order. An entry with no
  layout is dense, as every tensor was before layouts existed.
- "sparse": the entry's count K, and a file of K strictly increasing uint32
  flat indices followed by their K float32 values; every other cell is 0.

A file is written from the map's Cells (encoder.Cells: the cells that are
not zero by bit pattern), which encode_image gives ready-made, or from its
dense array, whose cells one scan finds. write_maps stores a tensor sparse
when that file is the smaller one: 8 bytes per cell against 4 per grid
cell, so when fewer than half its cells are stored. Target maps light a
few cells per object, so theirs shrink; a map with every cell non-zero is
written as before. A sparse tensor has at most MAX_SPARSE_CELLS cells, and
a larger one is dense.

read_maps gives a map whose two branch files are sparse back as Cells and
makes no grid for it; a dense array is made only when the maps' heatmap,
regression or reg_mask is read. A map with a dense file, such as a
network's prediction, comes back as a dense array.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .encoder import Cells, TargetMaps
from .errors import MidlinesError, ShapeMismatch

TENSOR_NAMES = ("hm_b1", "hm_b2", "reg_b1", "reg_b2", "mask_b1", "mask_b2")

_MANIFEST_SIZES = ("stride", "num_classes", "width", "height", "image_w", "image_h")
_MANIFEST_FIELDS = (*_MANIFEST_SIZES, "class_names", "tensors")

# The most cells a sparse tensor may have. A dense file's size shows that
# its cells are real; a sparse file's does not, yet reading the maps' dense
# arrays makes every cell the manifest claims. 2**24 holds the largest DOTA
# image (4000 x 4000 px) at the default stride 4: 15 classes x 1000**2 cells.
MAX_SPARSE_CELLS = 1 << 24


def is_plain_file_name(name: str) -> bool:
    """Whether name stays inside its directory: not "", "." or "..", no "/" or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


def _branch_tensors(maps: TargetMaps):
    """(name, tensor) of each tensor file: one branch of a map's dense array or of its Cells."""
    for kind, field in (("hm", "heatmap"), ("reg", "regression"), ("mask", "reg_mask")):
        kept = maps.kept(field)
        if isinstance(kept, Cells):
            size = math.prod(kept.shape[1:])
            cut = np.searchsorted(kept.index, size)
            yield f"{kind}_b1", Cells(kept.shape[1:], kept.index[:cut], kept.value[:cut])
            yield f"{kind}_b2", Cells(kept.shape[1:], kept.index[cut:] - size, kept.value[cut:])
        else:
            yield f"{kind}_b1", kept[0]
            yield f"{kind}_b2", kept[1]


def _is_dense(count: int, cells: int) -> bool:
    """Whether a tensor of `cells` cells, `count` of them stored, is written dense."""
    return 2 * count >= cells or cells > MAX_SPARSE_CELLS


def _payload(tensor: np.ndarray | Cells) -> tuple[list, dict]:
    """One tensor file's arrays in the smaller layout, dense on a tie, and its layout fields.

    A dense array's cells are those whose bits are not zero, as Cells keep
    them, so a -0.0 or NaN cell is stored as the dense file would store it;
    a dense array written dense is not scanned for them.
    """
    if not isinstance(tensor, Cells):
        flat = np.ascontiguousarray(tensor).reshape(-1)
        lit = flat.view(f"u{flat.itemsize}") != 0
        if _is_dense(int(np.count_nonzero(lit)), flat.size):
            return [flat.astype("<f4")], {"layout": "dense"}
        index = np.flatnonzero(lit)
        tensor = Cells(tensor.shape, index, flat[index])
    count = len(tensor.index)
    if _is_dense(count, math.prod(tensor.shape)):
        dense = np.zeros(math.prod(tensor.shape), dtype="<f4")
        dense[tensor.index] = tensor.value
        return [dense], {"layout": "dense"}
    return [tensor.index.astype("<u4"), tensor.value.astype("<f4")], {"layout": "sparse", "count": count}


def _write_file(path: Path, arrays: list) -> None:
    with open(path, "wb") as f:
        for array in arrays:
            array.tofile(f)


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
    tensors = []
    for name, tensor in _branch_tensors(maps):
        arrays, layout = _payload(tensor)
        if not tensors:
            # Made once the first file's arrays exist, so maps whose first
            # dense file is too large to allocate leave no directory behind.
            out.mkdir(parents=True, exist_ok=True)
        file = f"{name}.f32"
        _write_file(out / file, arrays)
        del arrays  # so the next file's arrays are made after these are freed
        tensors.append(
            {"name": name, "file": file, "shape": list(tensor.shape), "dtype": "<f4", **layout}
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


def _stack(parts: list, shape: tuple[int, ...], dtype) -> Cells | np.ndarray:
    """One map from its two branch files' (at, values): Cells when both are sparse, else dense."""
    (at1, values1), (at2, values2) = parts
    if isinstance(at1, slice) or isinstance(at2, slice):
        # Zeroed, so the pages of cells that no file writes are never backed.
        # A dense file has shown that its cells are real, and a sparse
        # tensor has at most MAX_SPARSE_CELLS.
        grid = np.zeros(shape, dtype=dtype)
        grid[0].reshape(-1)[at1], grid[1].reshape(-1)[at2] = values1, values2
        return grid
    index = np.concatenate((at1, at2 + math.prod(shape[1:])))
    return Cells(shape, index, np.concatenate((values1, values2)).astype(dtype))


def read_maps(container_dir: str | Path) -> tuple[TargetMaps, list[str]]:
    """Read a container back; inverse of write_maps up to float32 rounding.

    Raises ShapeMismatch when a manifest field is missing or of the wrong
    type (the six sizes are integers of at least 1), when class_names is
    not num_classes strings, when a tensor's file is not a plain file name
    inside the container (empty, "." or "..", or holding "/" or NUL), when a
    tensor's dtype is not "<f4" or its layout neither "dense" nor "sparse",
    when a sparse tensor has more than MAX_SPARSE_CELLS cells or a count
    that is not an integer of at least 0, when a tensor file's size
    disagrees with its manifest shape (dense) or count (sparse), when a
    sparse tensor's indices are not strictly increasing or reach past its
    cells, or when required tensors are missing or a tensor is named twice, and
    MidlinesError when a tensor holds NaN or infinity or a heatmap holds a
    value outside [0, 1]; missing files surface as FileNotFoundError.
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
    by_name: dict[str, dict] = {}
    for t in entries:
        if by_name.setdefault(t["name"], t) is not t:
            raise ShapeMismatch(f"manifest names tensor {t['name']!r} more than once")
    missing = [n for n in TENSOR_NAMES if n not in by_name]
    if missing:
        raise ShapeMismatch(f"manifest missing tensors {missing}")

    expected = {"hm": (num_classes, height, width), "reg": (8, height, width), "mask": (height, width)}
    stacks: dict[str, Cells | np.ndarray] = {}
    parts: list = []
    for name in TENSOR_NAMES:
        entry = by_name[name]
        file = entry.get("file")
        if not isinstance(file, str) or not isinstance(entry.get("shape"), list):
            raise ShapeMismatch(f"tensor {name}: manifest entry needs a file name and a shape list")
        # A path would let a manifest read any file outside its container.
        if not is_plain_file_name(file):
            raise ShapeMismatch(f"tensor {name}: file must be a plain file name, got {file!r}")
        shape = tuple(_count(s, f"tensor {name} shape entry", 0) for s in entry["shape"])
        if entry.get("dtype") != "<f4":
            raise ShapeMismatch(f"tensor {name}: dtype must be '<f4', got {entry.get('dtype')!r}")
        layout = entry.get("layout", "dense")
        if layout not in ("dense", "sparse"):
            raise ShapeMismatch(f"tensor {name}: layout must be 'dense' or 'sparse', got {layout!r}")
        cells = math.prod(shape)
        sparse = layout == "sparse"
        if sparse and cells > MAX_SPARSE_CELLS:
            raise ShapeMismatch(
                f"tensor {name}: sparse shape {shape} has {cells} cells, more than {MAX_SPARSE_CELLS}"
            )
        count = _count(entry.get("count"), f"tensor {name} count", 0) if sparse else cells
        path = root / file
        size, needed = path.stat().st_size, (8 if sparse else 4) * count
        if size != needed:  # np.fromfile would drop 1-3 trailing bytes unseen
            what = f"count {count}" if sparse else f"shape {shape}"
            raise ShapeMismatch(
                f"tensor {name}: file holds {size} bytes, manifest {what} needs {needed}"
            )
        raw = np.fromfile(path, dtype="<f4")
        kind, branch = name.split("_")
        if shape != expected[kind]:
            raise ShapeMismatch(f"tensor {name}: shape {shape}, expected {expected[kind]}")
        at, values = slice(None), raw  # a dense file holds every cell in order
        if sparse:
            at, values = raw[:count].view("<u4"), raw[count:]
            if (at[1:] <= at[:-1]).any():
                raise ShapeMismatch(f"tensor {name}: indices not strictly increasing")
            if count and at[-1] >= cells:
                raise ShapeMismatch(f"tensor {name}: index {at[-1]} at or past its {cells} cells")
        if not np.isfinite(values).all():
            raise MidlinesError(f"tensor {name}: non-finite values")
        if kind == "hm" and ((values < 0.0) | (values > 1.0)).any():
            raise MidlinesError(f"tensor {name}: values outside [0, 1]")
        if kind == "mask":
            values = values > 0.5
        if sparse:  # Cells hold the values with bits: -0.0 is one, +0.0 or false is none
            stored = values if kind == "mask" else values.view("<u4") != 0
            at, values = at[stored].astype(np.int64), values[stored]
        parts.append((at, values))
        if branch == "b2":  # TENSOR_NAMES lists b1 then b2 of each map
            dtype = bool if kind == "mask" else np.float64
            stacks[kind] = _stack(parts, (2, *expected[kind]), dtype)
            parts = []

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
