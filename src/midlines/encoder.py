"""Dense training targets: per-branch heatmaps and midline-offset maps.

Feature cell (row, col) corresponds to input point (col * stride, row * stride).
Every cell of an object's drift region is a heatmap positive at value 1.0 and
regresses the offsets from its own input point to the four midline endpoints,
so the box can be recovered from any cell of the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateBox, OutOfBounds
from .geometry import (
    BRANCH_HIGH_DEG,
    BRANCH_LOW_DEG,
    MidlinePair,
    OrientedBox,
    box_to_midlines,
    intersection_point,
)

DEFAULT_STRIDE = 4
DEFAULT_DRIFT_R = 16.0

# A cell center can sit up to sqrt(2)/2 from the region center after
# rounding; this slack keeps it strictly inside the open disc.
_CENTER_SLACK = 1e-6


@dataclass
class TargetMaps:
    """Encoded maps for one image.

    heatmap:    [2][num_classes][height][width], values in {0, 1} for targets
    regression: [2][8][height][width], offsets in input pixels, channel order
                (dx1, dy1, dx2, dy2) for l1 then the same for l2
    reg_mask:   [2][height][width] bool, true where regression is defined
    n_objects:  encoded (non-degenerate) annotation count, the loss normalizer
    """

    stride: int
    num_classes: int
    width: int
    height: int
    image_w: int
    image_h: int
    heatmap: np.ndarray
    regression: np.ndarray
    reg_mask: np.ndarray
    n_objects: int


def drift_radius(pair: MidlinePair, stride: int = DEFAULT_STRIDE, r: float = DEFAULT_DRIFT_R) -> float:
    """Radius in cells of the drift region for one object.

    The base rule is min(r / stride, shorter midline length / (2 * stride)).
    Very thin objects can push that below one cell, so the result is raised
    just far enough that the rounded center cell always stays inside.
    """
    base = min(r / stride, min(pair.l1.length, pair.l2.length) / (2.0 * stride))
    ip = intersection_point(pair)
    cx, cy = ip.x / stride, ip.y / stride
    row0, col0 = math.floor(cy + 0.5), math.floor(cx + 0.5)
    to_center_cell = math.hypot(row0 - cy, col0 - cx)
    return max(base, to_center_cell + _CENTER_SLACK)


def drift_region_cells(
    cx: float, cy: float, radius: float, width: int, height: int
) -> np.ndarray:
    """Integer (row, col) cells strictly inside a drift region's disc, row-major.

    The disc is centered at (cx, cy) in feature-map units (the intersection
    point divided by the stride) with a radius in cells. The rounded center
    cell is always included (clamped into bounds), even when floating-point
    slack would leave the disc empty.
    """
    lo_r = max(0, math.ceil(cy - radius))
    hi_r = min(height - 1, math.floor(cy + radius))
    lo_c = max(0, math.ceil(cx - radius))
    hi_c = min(width - 1, math.floor(cx + radius))
    cells: list[tuple[int, int]] = []
    for row in range(lo_r, hi_r + 1):
        dr2 = (row - cy) ** 2
        for col in range(lo_c, hi_c + 1):
            if dr2 + (col - cx) ** 2 < radius * radius:
                cells.append((row, col))
    center_cell = (
        min(max(math.floor(cy + 0.5), 0), height - 1),
        min(max(math.floor(cx + 0.5), 0), width - 1),
    )
    if center_cell not in cells:
        cells.append(center_cell)
        cells.sort()
    return np.asarray(cells, dtype=np.int64).reshape(-1, 2)


def encode_image(
    annotations: Sequence[OrientedBox],
    image_w: int,
    image_h: int,
    num_classes: int,
    stride: int = DEFAULT_STRIDE,
    r: float = DEFAULT_DRIFT_R,
    branch_low: float = BRANCH_LOW_DEG,
    branch_high: float = BRANCH_HIGH_DEG,
) -> TargetMaps:
    """Rasterize annotations into heatmap, regression, and mask grids.

    Heatmap positives are written for every object into its own class
    channel. A cell contested within one branch takes its regression
    targets from the smallest-area object, and from the earliest of equal
    areas. Annotations whose midlines degenerate are skipped and do not
    count toward n_objects.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError(f"bad image size {image_w}x{image_h}")
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    width = math.ceil(image_w / stride)
    height = math.ceil(image_h / stride)
    heatmap = np.zeros((2, num_classes, height, width), dtype=np.float64)
    regression = np.zeros((2, 8, height, width), dtype=np.float64)
    reg_mask = np.zeros((2, height, width), dtype=bool)
    owner_area = np.full((2, height, width), np.inf, dtype=np.float64)

    encoded = 0
    for index, box in enumerate(annotations):
        if not 0 <= box.class_id < num_classes:
            raise ValueError(f"class id {box.class_id} outside [0, {num_classes})")
        try:
            pair = box_to_midlines(box, branch_low, branch_high)
        except DegenerateBox:
            continue
        ip = intersection_point(pair)
        if not (0.0 <= ip.x <= image_w and 0.0 <= ip.y <= image_h):
            raise OutOfBounds(
                f"annotation {index} center ({ip.x}, {ip.y}) outside {image_w}x{image_h}"
            )
        cells = drift_region_cells(
            ip.x / stride, ip.y / stride, drift_radius(pair, stride, r), width, height
        )
        rows, cols = cells[:, 0], cells[:, 1]
        b = pair.branch.index
        heatmap[b, box.class_id, rows, cols] = 1.0
        # Smallest area wins a contested cell; earlier index wins a tie
        # (strict comparison keeps the incumbent on equal areas).
        take = box.area < owner_area[b, rows, cols]
        t_rows, t_cols = rows[take], cols[take]
        offsets = (
            pair.l1.ep1.x, pair.l1.ep1.y,
            pair.l1.ep2.x, pair.l1.ep2.y,
            pair.l2.ep1.x, pair.l2.ep1.y,
            pair.l2.ep2.x, pair.l2.ep2.y,
        )
        for ch, value in enumerate(offsets):
            anchor = t_cols if ch % 2 == 0 else t_rows
            regression[b, ch, t_rows, t_cols] = value - anchor * float(stride)
        owner_area[b, t_rows, t_cols] = box.area
        reg_mask[b, t_rows, t_cols] = True
        encoded += 1

    return TargetMaps(
        stride=stride,
        num_classes=num_classes,
        width=width,
        height=height,
        image_w=image_w,
        image_h=image_h,
        heatmap=heatmap,
        regression=regression,
        reg_mask=reg_mask,
        n_objects=encoded,
    )
