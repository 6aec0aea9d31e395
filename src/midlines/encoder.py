"""Training targets: per-branch heatmaps and midline-offset maps, kept as their cells.

Feature cell (row, col) corresponds to input point (col * stride, row * stride).
Every cell of an object's drift region is a heatmap positive at value 1.0 and
regresses the offsets from its own input point to the four midline endpoints,
so the box can be recovered from any cell of the region.

A target lights a few cells per object, so encode_image keeps each map as
Cells, the cells that are not zero by bit pattern; a dense array is made
only when one is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import OutOfBounds
from .geometry import (  # noqa: F401 - perfbench's trace mode wraps encoder.box_to_midlines
    BRANCH_HIGH_DEG,
    BRANCH_LOW_DEG,
    Boxes,
    OrientedBox,
    _map,
    box_to_midlines,
    midline_arrays,
    quad_area,
)

DEFAULT_STRIDE = 4
DEFAULT_DRIFT_R = 16.0

# A cell center can sit up to sqrt(2)/2 from the region center after
# rounding; this slack keeps it strictly inside the open disc.
_CENTER_SLACK = 1e-6

# Objects x stencil cells tested in one broadcast; bounds the temporaries.
_STENCIL_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class Cells:
    """A tensor as its cells that are not zero by bit pattern; every other cell is +0.0.

    shape: the tensor's shape
    index: (K,) int64 row-major flat indices into it, strictly increasing
    value: (K,) float64, or bool (all true) for a mask

    == is identity: comparing the arrays would need a verdict per cell.
    """

    shape: tuple[int, ...]
    index: np.ndarray
    value: np.ndarray

    def dense(self) -> np.ndarray:
        array = np.zeros(self.shape, dtype=self.value.dtype)
        array.reshape(-1)[self.index] = self.value
        return array

    def at(self, index: np.ndarray) -> np.ndarray:
        """The values at flat indices, +0.0 where no value is stored."""
        pos = np.searchsorted(self.index, index)
        found = pos < len(self.index)
        found[found] = self.index[pos[found]] == index[found]
        values = np.zeros(len(index), dtype=self.value.dtype)
        values[found] = self.value[pos[found]]
        return values


def _offsets(reg: np.ndarray | Cells, lead: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """(K, 8) offsets of (..., 8, H, W) maps, dense or Cells, at K cells (lead, cell of H * W).

    The rows are C-ordered. A cell that Cells do not store reads +0.0, as
    its dense array would.
    """
    plane = math.prod(reg.shape[-2:])
    if isinstance(reg, Cells):
        at = (lead[:, None] * 8 + np.arange(8)) * plane + cell[:, None]
        return reg.at(at.ravel()).reshape(-1, 8)
    return reg.reshape(math.prod(reg.shape[:-3]), 8, plane)[lead, :, cell]


class _Tensor:
    """A TargetMaps tensor field: holds a dense array or Cells, and reads dense.

    Cells are made dense on the first read, and that array is kept, so a
    caller that writes into it changes the maps for every later reader.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, maps, owner=None) -> np.ndarray:
        if maps is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        kept = maps.__dict__[self.name]
        if isinstance(kept, Cells):
            kept = maps.__dict__[self.name] = kept.dense()
        return kept

    def __set__(self, maps, value: np.ndarray | Cells) -> None:
        maps.__dict__[self.name] = value


@dataclass(repr=False, eq=False)
class TargetMaps:
    """Encoded maps for one image.

    heatmap:    [2][num_classes][height][width], values in {0, 1} for targets
    regression: [2][8][height][width], offsets in input pixels, channel order
                (dx1, dy1, dx2, dy2) for l1 then the same for l2
    reg_mask:   [2][height][width] bool, true where regression is defined
    n_objects:  encoded (non-degenerate) annotation count, the loss normalizer

    Each of the three tensors is given as a dense array or as Cells, and
    reads as a dense array, made from its Cells on the first read. kept()
    gives a tensor as it is held, which is how the container, decode and
    total_loss use Cells without making a grid. repr shows each tensor as
    held, and == is identity, so neither makes a grid either.
    """

    stride: int
    num_classes: int
    width: int
    height: int
    image_w: int
    image_h: int
    heatmap: np.ndarray = _Tensor()
    regression: np.ndarray = _Tensor()
    reg_mask: np.ndarray = _Tensor()
    n_objects: int

    def kept(self, name: str) -> np.ndarray | Cells:
        """Tensor `name` as held: its dense array once one exists, else its Cells."""
        return self.__dict__[name]

    def __repr__(self) -> str:
        def show(value) -> str:
            if isinstance(value, Cells):
                return f"Cells(shape={value.shape}, stored={len(value.index)})"
            if isinstance(value, np.ndarray):
                return f"array(shape={value.shape}, dtype={value.dtype})"
            return repr(value)

        shown = (f"{f.name}={show(self.__dict__[f.name])}" for f in fields(self))
        return f"TargetMaps({', '.join(shown)})"


def _cell_anchors(rows, cols, stride: int) -> np.ndarray:
    """The input point of each cell, repeated for the four endpoints: (K, 8), or (8,) for one.

    In float64, so no stride wraps: the points are exact for strides below
    2**53 and round, or overflow to inf, past that.
    """
    return np.tile(np.stack((cols, rows), axis=-1) * float(stride), 4)


def _drift_radii(centre: np.ndarray, lengths: np.ndarray, stride: int, r: float):
    """Centres in cells and drift region radii in cells of N objects.

    The base rule is min(r / stride, shorter midline length / (2 * stride)).
    Very thin objects can push that below one cell, so a radius is raised
    just far enough that the rounded center cell always stays inside.
    """
    c = centre / stride
    base = np.minimum(r / stride, lengths.min(axis=1) / (2.0 * stride))
    gap = np.floor(c + 0.5) - c
    to_center_cell = _map(math.hypot, gap[:, 1], gap[:, 0])
    return c, np.maximum(base, to_center_cell + _CENTER_SLACK)


def _disc_cells(
    centre: np.ndarray, radius: np.ndarray, width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(object, row, col) of every cell of N drift regions.

    Row k of centre is (cx, cy) in cells. A cell is in a region when it is
    strictly inside the disc; the rounded center cell, clamped into the
    grid, is appended for every object, so an object may list a cell twice.
    All discs are tested in one broadcast over a stencil of side
    2 * ceil(max radius) + 3 cut to the grid, a bounded number of objects
    at a time.
    """
    cx, cy = centre[:, 0], centre[:, 1]
    n = len(radius)
    side = 2 * math.ceil(radius.max()) + 3 if n else 0
    side_r, side_c = min(side, height), min(side, width)
    lo_r, hi_r = np.ceil(cy - radius), np.floor(cy + radius)
    lo_c, hi_c = np.ceil(cx - radius), np.floor(cx + radius)
    top = np.clip(lo_r, 0, height - side_r).astype(np.int64)
    left = np.clip(lo_c, 0, width - side_c).astype(np.int64)
    parts = [(
        np.arange(n),
        np.clip(np.floor(cy + 0.5), 0, height - 1).astype(np.int64),
        np.clip(np.floor(cx + 0.5), 0, width - 1).astype(np.int64),
    )]
    step = max(1, _STENCIL_CELLS // max(1, side_r * side_c))
    for s in range(0, n, step):
        k = slice(s, s + step)
        rows = top[k, None] + np.arange(side_r)
        cols = left[k, None] + np.arange(side_c)
        row_ok = (rows >= lo_r[k, None]) & (rows <= hi_r[k, None])
        col_ok = (cols >= lo_c[k, None]) & (cols <= hi_c[k, None])
        with np.errstate(over="ignore"):  # a far-off center only fails the test
            dist2 = (rows - cy[k, None])[:, :, None] ** 2 + (cols - cx[k, None])[:, None, :] ** 2
        inside = dist2 < (radius[k] * radius[k])[:, None, None]
        inside &= row_ok[:, :, None] & col_ok[:, None, :]
        o, i, j = np.nonzero(inside)
        parts.append((o + s, rows[o, i], cols[o, j]))
    obj, rows, cols = (np.concatenate(a) for a in zip(*parts))
    return obj, rows, cols


def encode_image(
    annotations: Boxes | Sequence[OrientedBox],
    image_w: int,
    image_h: int,
    num_classes: int,
    stride: int = DEFAULT_STRIDE,
    r: float = DEFAULT_DRIFT_R,
    branch_low: float = BRANCH_LOW_DEG,
    branch_high: float = BRANCH_HIGH_DEG,
) -> TargetMaps:
    """Rasterize annotations into heatmap, regression, and mask cells.

    Heatmap positives are written for every object into its own class
    channel. A cell contested within one branch takes its regression
    targets from the smallest-area object, and from the earliest of equal
    areas. Annotations whose midlines degenerate are skipped and do not
    count toward n_objects. A class id outside [0, num_classes), an
    overflowing midline or a center outside the image raises for the first
    such annotation in input order.

    The configuration is checked first, with the CLI's rules and texts: the
    branch window must satisfy branch_low < branch_high, stride must be an
    integer >= 1 (not a bool) and r must be > 0; each raises ValueError.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError(f"bad image size {image_w}x{image_h}")
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    if not branch_low < branch_high:
        raise ValueError(f"branch window empty: [{branch_low}, {branch_high}]")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    if not r > 0.0:
        raise ValueError(f"drift_r must be > 0, got {r}")
    width = math.ceil(image_w / stride)
    height = math.ceil(image_h / stride)

    boxes = annotations if isinstance(annotations, Boxes) else Boxes.of(annotations)
    corners, classes = boxes.corners, boxes.class_id
    lines = midline_arrays(corners, branch_low, branch_high)
    live = ~(lines.degenerate | lines.non_finite)
    x, y = lines.centre[:, 0], lines.centre[:, 1]
    inside = (0.0 <= x) & (x <= image_w) & (0.0 <= y) & (y <= image_h)
    bad_class = (classes < 0) | (classes >= num_classes)
    fault = bad_class | lines.non_finite | (live & ~inside)
    if fault.any():
        i = int(np.argmax(fault))
        if bad_class[i]:
            raise ValueError(f"class id {classes[i]} outside [0, {num_classes})")
        if lines.non_finite[i]:
            raise lines.error(i)
        x, y = lines.centre[i].tolist()
        raise OutOfBounds(f"annotation {i} center ({x}, {y}) outside {image_w}x{image_h}")

    keep = np.flatnonzero(live)
    ends, branch = lines.ends[keep], lines.branch[keep]
    centre, radius = _drift_radii(lines.centre[keep], lines.lengths[keep], stride, r)
    obj, rows, cols = _disc_cells(centre, radius, width, height)
    b = branch[obj]
    lit = np.sort(((b * num_classes + classes[keep][obj]) * height + rows) * width + cols)
    lit = lit[np.diff(lit, prepend=-1) != 0]  # np.unique, without its hash table
    # The smallest area owns a contested cell, the earlier index a tie: sort
    # by (cell, area, index) and keep the first entry of each cell, so the
    # winners come in increasing cell order.
    cell = (b * height + rows) * width + cols
    areas = np.abs(quad_area(*corners[keep].reshape(-1, 8).T))
    order = np.lexsort((obj, areas[obj], cell))
    first = np.ones(len(order), dtype=bool)
    first[1:] = cell[order[1:]] != cell[order[:-1]]
    win = order[first]
    obj, rows, cols, b, cell = obj[win], rows[win], cols[win], b[win], cell[win]
    offsets = ends[obj] - _cell_anchors(rows, cols, stride)
    plane = height * width
    at = (b[:, None] * 8 + np.arange(8)) * plane + (rows * width + cols)[:, None]
    # In cell order the winners run by branch, and by (row, col) within a
    # branch, so each branch's (K_b, 8) rows transposed are its flat
    # indices in increasing order.
    split = np.searchsorted(b, 1)
    at, offsets = (np.concatenate((x[:split].T.ravel(), x[split:].T.ravel())) for x in (at, offsets))
    stored = offsets.view(np.uint64) != 0

    return TargetMaps(
        stride=stride,
        num_classes=num_classes,
        width=width,
        height=height,
        image_w=image_w,
        image_h=image_h,
        heatmap=Cells((2, num_classes, height, width), lit, np.ones(len(lit))),
        regression=Cells((2, 8, height, width), at[stored], offsets[stored]),
        reg_mask=Cells((2, height, width), cell, np.ones(len(cell), dtype=bool)),
        n_objects=len(keep),
    )
