"""On-disk container for encoded maps.

A container directory holds manifest.json plus one little-endian data file,
maps.f32, in which the six tensors lie back to back in TENSOR_NAMES order.
Each tensor's manifest entry names its file and the byte offset where its
extent starts. A tensor's cells are numbered by their row-major
[channel][row][col] flat index. Branch 1 is the horizontal branch, branch 2
the oriented one. Each entry names its layout:

- "dense": every cell as a float32, in flat-index order. An entry with no
  layout is dense, as every tensor was before layouts existed.
- "sparse": the entry's count K, and an extent of K strictly increasing
  uint32 flat indices followed by their K float32 values; every other cell
  is 0.

One size rule holds for every file the manifest names. An entry's offset is
0 when it has none. The extents of the entries naming a file, sorted by
offset, start at byte 0, neither overlap nor leave a gap, and end exactly at
the file's size. A container written before the shared data file, six
files and no offsets, is six files of one extent each under the same rule.
Readers from before the shared file refuse a container written now, since
maps.f32 fails their check that a tensor's file is exactly its size.

A tensor is written from the map's Cells (encoder.Cells: the cells that are
not zero by bit pattern), which encode_image gives ready-made, or from its
dense array, whose cells one scan finds. write_maps stores a tensor sparse
when that extent is the smaller one: 8 bytes per cell against 4 per grid
cell, so when fewer than half its cells are stored. Target maps light a
few cells per object, so theirs shrink at any image size; a map with every
cell non-zero is written as before.

read_maps gives a map whose two branch tensors are sparse back as Cells and
makes no grid for it; a dense array is made only when the maps' heatmap,
regression or reg_mask is read. A map with a dense tensor, such as a
network's prediction, comes back as a dense array.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encoder import Cells, TargetMaps
from .errors import MidlinesError, ShapeMismatch

TENSOR_NAMES = ("hm_b1", "hm_b2", "reg_b1", "reg_b2", "mask_b1", "mask_b2")

# The one file write_maps puts every tensor in.
DATA_FILE = "maps.f32"

_MANIFEST_SIZES = ("stride", "num_classes", "width", "height", "image_w", "image_h")
_MANIFEST_FIELDS = (*_MANIFEST_SIZES, "class_names", "tensors")

# The most cells a sparse tensor may store. A dense extent's size shows that
# its cells are real; a sparse one's shows only its stored cells, so the
# count bounds what reading it allocates. A sparse tensor stores fewer than
# half its cells, so 2**24 holds every map of the largest DOTA image (4000 x
# 4000 px) at the default stride 4: 15 classes x 1000**2 cells.
MAX_SPARSE_CELLS = 1 << 24

# The most grid cells a sparse tensor may have: its "<u4" indices address no more.
MAX_SPARSE_GRID = 1 << 32


def is_plain_file_name(name: str) -> bool:
    """Whether name stays inside its directory: not "", "." or "..", no "/" or NUL."""
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


def _branch_tensors(maps: TargetMaps):
    """(name, tensor) of each tensor: one branch of a map's dense array or of its Cells."""
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
    """Whether a tensor of `cells` cells, `count` of them stored, is written dense.

    Dense when that extent is no larger than the sparse one. A sparse
    tensor of more than MAX_SPARSE_CELLS stored cells, or of more than
    MAX_SPARSE_GRID cells, which its "<u4" indices cannot address, is
    written dense too, since read_maps refuses it.
    """
    return 2 * count >= cells or count > MAX_SPARSE_CELLS or cells > MAX_SPARSE_GRID


def _payload(tensor: np.ndarray | Cells) -> tuple[list, dict]:
    """One tensor's arrays in the smaller layout, dense on a tie, and its layout fields.

    A dense array's cells are those whose bits are not zero, as Cells keep
    them, so a -0.0 or NaN cell is stored as the dense layout would store
    it; a dense array written dense is not scanned for them.
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
    offset = 0
    with contextlib.ExitStack() as stack:
        for name, tensor in _branch_tensors(maps):
            arrays, layout = _payload(tensor)
            if not tensors:
                # Made once the first tensor's arrays exist, so maps whose
                # first dense tensor is too large to allocate leave no
                # directory behind.
                out.mkdir(parents=True, exist_ok=True)
                data = stack.enter_context(open(out / DATA_FILE, "wb"))
            tensors.append({
                "name": name, "file": DATA_FILE, "offset": offset,
                "shape": list(tensor.shape), "dtype": "<f4", **layout,
            })
            for array in arrays:
                data.write(array)
                offset += array.nbytes
            del arrays  # so the next tensor's arrays are made after these are freed
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


class _Extent(NamedTuple):
    """One tensor's checked manifest entry: where its bytes lie and how they read."""

    name: str
    file: str
    offset: int
    nbytes: int  # 4 per cell (dense) or 8 per stored cell (sparse)
    count: int | None  # None when dense
    what: str  # what sets its size, for errors: "shape (...)" or "count K"

    @property
    def stop(self) -> int:
        return self.offset + self.nbytes


def _check_extents(extents: list[_Extent], sizes: dict[str, int]) -> None:
    """The size rule: a file's extents, by offset, tile it from byte 0 to its end."""
    for file, size in sizes.items():
        end = 0
        tiles = sorted((e for e in extents if e.file == file), key=lambda e: (e.offset, e.stop))
        for i, e in enumerate(tiles):
            if e.offset < end:
                raise ShapeMismatch(
                    f"tensor {e.name}: extent at byte {e.offset} of {file!r} overlaps"
                    f" tensor {tiles[i - 1].name}'s, which ends at byte {end}"
                )
            if e.offset > end:
                raise ShapeMismatch(
                    f"tensor {e.name}: extent at byte {e.offset} of {file!r} leaves"
                    f" bytes {end} to {e.offset} in no tensor"
                )
            end = e.stop
            # Past the file's end, or the last extent short of it.
            if end > size or (i == len(tiles) - 1 and end != size):
                raise ShapeMismatch(
                    f"tensor {e.name}: file holds {size} bytes,"
                    f" manifest {e.what} at offset {e.offset} needs {end}"
                )


def _stack(parts: list, shape: tuple[int, ...], dtype) -> Cells | np.ndarray:
    """One map from its two branch tensors' (at, values): Cells when both are sparse, else dense."""
    (at1, values1), (at2, values2) = parts
    if isinstance(at1, slice) or isinstance(at2, slice):
        # Zeroed, so the pages of cells that no tensor writes are never
        # backed. A dense extent has shown that the grid's cells are real.
        grid = np.zeros(shape, dtype=dtype)
        grid[0].reshape(-1)[at1], grid[1].reshape(-1)[at2] = values1, values2
        return grid
    index = np.concatenate((at1, at2 + math.prod(shape[1:])))
    return Cells(shape, index, np.concatenate((values1, values2)).astype(dtype))


def read_maps(container_dir: str | Path) -> tuple[TargetMaps, list[str]]:
    """Read a container back; inverse of write_maps up to float32 rounding.

    Each file the manifest names is opened once, and each tensor's extent
    is read alone, so only one tensor's bytes are held at a time. A map
    whose two tensors are sparse comes back as Cells, and neither this nor
    decode makes its grid; reading the maps' .heatmap, .regression or
    .reg_mask still makes the whole grid, up to MAX_SPARSE_GRID cells per
    branch for a sparse one.

    Raises ShapeMismatch when a manifest field is missing or of the wrong
    type (the six sizes are integers of at least 1), when class_names is
    not num_classes strings, when a tensor's file is not a plain file name
    inside the container (empty, "." or "..", or holding "/" or NUL), when a
    tensor's dtype is not "<f4" or its layout neither "dense" nor "sparse",
    when its shape is not the one the sizes give, when a sparse tensor's
    count is not an integer of at least 0 or is more than MAX_SPARSE_CELLS,
    or its grid has more than MAX_SPARSE_GRID cells (all checked before
    anything is allocated), when an offset is not an integer of at least 0,
    when a file's extents break the size rule (an overlap, a gap, an extent
    past the file's end, or bytes after the last one), when a sparse
    tensor's indices are not strictly increasing or reach past its cells,
    or when required tensors are missing or a tensor is named twice, and
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
    extents = []
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
        kind = name.split("_")[0]
        if shape != expected[kind]:
            raise ShapeMismatch(f"tensor {name}: shape {shape}, expected {expected[kind]}")
        cells = math.prod(shape)
        if layout == "dense":
            count, nbytes, what = None, 4 * cells, f"shape {shape}"
        else:
            if cells > MAX_SPARSE_GRID:
                raise ShapeMismatch(
                    f"tensor {name}: sparse shape {shape} has {cells} cells, more than {MAX_SPARSE_GRID}"
                )
            count = _count(entry.get("count"), f"tensor {name} count", 0)
            if count > MAX_SPARSE_CELLS:
                raise ShapeMismatch(f"tensor {name}: sparse count {count} is more than {MAX_SPARSE_CELLS}")
            nbytes, what = 8 * count, f"count {count}"
        offset = _count(entry.get("offset", 0), f"tensor {name} offset", 0)
        extents.append(_Extent(name, file, offset, nbytes, count, what))

    stacks: dict[str, Cells | np.ndarray] = {}
    parts: list = []
    with contextlib.ExitStack() as stack:
        files = {
            file: stack.enter_context(open(root / file, "rb"))
            for file in dict.fromkeys(e.file for e in extents)
        }
        _check_extents(extents, {file: os.fstat(f.fileno()).st_size for file, f in files.items()})
        for e in extents:
            data = files[e.file]
            data.seek(e.offset)
            raw = np.frombuffer(data.read(e.nbytes), dtype="<f4")
            kind, branch = e.name.split("_")
            at, values = slice(None), raw  # a dense extent holds every cell in order
            if e.count is not None:
                count, cells = e.count, math.prod(expected[kind])
                at, values = raw[:count].view("<u4"), raw[count:]
                if (at[1:] <= at[:-1]).any():
                    raise ShapeMismatch(f"tensor {e.name}: indices not strictly increasing")
                if count and at[-1] >= cells:
                    raise ShapeMismatch(f"tensor {e.name}: index {at[-1]} at or past its {cells} cells")
            if not np.isfinite(values).all():
                raise MidlinesError(f"tensor {e.name}: non-finite values")
            if kind == "hm" and ((values < 0.0) | (values > 1.0)).any():
                raise MidlinesError(f"tensor {e.name}: values outside [0, 1]")
            if kind == "mask":
                values = values > 0.5
            if e.count is not None:  # Cells hold the values with bits: -0.0 is one, +0.0 or false is none
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
