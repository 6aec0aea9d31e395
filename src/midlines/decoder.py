"""Detections from predicted maps: threshold, label, read offsets, rebuild.

No non-maximum suppression and no top-K cut: every connected domain above
threshold yields exactly one detection, and only the cross-branch merge can
remove one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .encoder import TargetMaps
from .errors import DegenerateBox, ShapeMismatch
from .evaluation import may_overlap, rotated_iou
from .geometry import (
    BranchId,
    MidlinePair,
    OrientedBox,
    Point2,
    _order_l1,
    _order_l2,
    midlines_to_box,
)

DEFAULT_THRESHOLD = 0.3
DEFAULT_MERGE_IOU = 0.7

_EIGHT_CONN = np.ones((3, 3), dtype=int)


@dataclass
class Component:
    """One connected domain of above-threshold heatmap cells."""

    cells: np.ndarray  # (k, 2) int array of (row, col)
    score: float
    class_id: int
    branch: BranchId


@dataclass(frozen=True)
class Detection:
    """A decoded box; class id and score live on the box itself."""

    box: OrientedBox
    branch: BranchId

    @property
    def score(self) -> float:
        return self.box.score

    @property
    def class_id(self) -> int:
        return self.box.class_id


def extract_components(
    channel: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
    class_id: int = 0,
    branch: BranchId = BranchId.HORIZONTAL,
) -> list[Component]:
    """Connected domains of cells strictly above threshold, 8-connected.

    Components come back ordered by the scan position of their first cell;
    a component's score is its highest cell value.
    """
    binary = channel > threshold
    labels, count = ndimage.label(binary, structure=_EIGHT_CONN)
    if count == 0:
        return []
    cells = np.argwhere(binary)
    cell_labels = labels[cells[:, 0], cells[:, 1]]
    order = np.argsort(cell_labels, kind="stable")
    cells = cells[order]
    cell_labels = cell_labels[order]
    boundaries = np.searchsorted(cell_labels, np.arange(1, count + 2))
    components = []
    for k in range(count):
        group = cells[boundaries[k] : boundaries[k + 1]]
        components.append(
            Component(
                cells=group,
                score=float(channel[group[:, 0], group[:, 1]].max()),
                class_id=class_id,
                branch=branch,
            )
        )
    components.sort(key=lambda c: (int(c.cells[0, 0]), int(c.cells[0, 1])))
    return components


def reconstruct_at_cell(
    reg: np.ndarray,
    row: int,
    col: int,
    stride: int,
    branch: BranchId,
    class_id: int = 0,
    score: float = 1.0,
) -> Detection:
    """Rebuild the box stored in the offset channels of one cell."""
    base_x, base_y = col * stride, row * stride
    d = reg[:, row, col]
    e1 = Point2(base_x + d[0], base_y + d[1])
    e2 = Point2(base_x + d[2], base_y + d[3])
    e3 = Point2(base_x + d[4], base_y + d[5])
    e4 = Point2(base_x + d[6], base_y + d[7])
    pair = MidlinePair(_order_l1(e1, e2), _order_l2(e3, e4), branch)
    box = midlines_to_box(pair, class_id=class_id, score=score)
    return Detection(box=box, branch=branch)


def component_to_detection(
    comp: Component,
    reg: np.ndarray,
    stride: int,
) -> Detection:
    """Round the component centroid to its lookup cell and read the box."""
    centroid = comp.cells.mean(axis=0)
    row = math.floor(centroid[0] + 0.5)
    col = math.floor(centroid[1] + 0.5)
    row = min(max(row, 0), reg.shape[1] - 1)
    col = min(max(col, 0), reg.shape[2] - 1)
    return reconstruct_at_cell(
        reg, row, col, stride, comp.branch, comp.class_id, comp.score
    )


def merge_branches(
    detections: list[Detection],
    iou_threshold: float = DEFAULT_MERGE_IOU,
) -> list[Detection]:
    """Collapse cross-branch duplicates of the same class.

    For every horizontal/oriented pair of the same class with overlap
    strictly above the threshold, the lower-scoring one is dropped; an
    exact score tie keeps the horizontal one. Detections within a branch
    never suppress each other.
    """
    horizontal = [d for d in detections if d.branch is BranchId.HORIZONTAL]
    oriented = [d for d in detections if d.branch is BranchId.ORIENTED]
    dead: set[int] = set()
    for i, j in zip(*np.nonzero(may_overlap(horizontal, oriented))):
        h, o = horizontal[i], oriented[j]
        if rotated_iou(h.box, o.box) > iou_threshold:
            if o.score > h.score:
                dead.add(id(h))
            else:
                dead.add(id(o))
    return [d for d in detections if id(d) not in dead]


def decode(
    maps: TargetMaps,
    threshold: float = DEFAULT_THRESHOLD,
    merge_iou: float = DEFAULT_MERGE_IOU,
    stats: dict | None = None,
) -> list[Detection]:
    """All detections in one image's maps, cross-branch merged, unsorted.

    Degenerate regressions (coincident, parallel or near-parallel endpoint
    pairs) drop their component; the count lands in
    stats["dropped_degenerate"] when a stats dict is supplied.
    """
    if maps.heatmap.shape[0] != 2 or maps.heatmap.shape[2:] != maps.regression.shape[2:]:
        raise ShapeMismatch(
            f"heatmap {maps.heatmap.shape} vs regression {maps.regression.shape}"
        )
    if maps.regression.shape[:2] != (2, 8):
        raise ShapeMismatch(f"regression shape {maps.regression.shape}")
    dropped = 0
    detections: list[Detection] = []
    for branch in (BranchId.HORIZONTAL, BranchId.ORIENTED):
        b = branch.index
        for class_id in range(maps.num_classes):
            for comp in extract_components(
                maps.heatmap[b, class_id], threshold, class_id, branch
            ):
                try:
                    detections.append(
                        component_to_detection(comp, maps.regression[b], maps.stride)
                    )
                except DegenerateBox:
                    dropped += 1
    if stats is not None:
        stats["dropped_degenerate"] = dropped
    return merge_branches(detections, merge_iou)
