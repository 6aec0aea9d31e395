"""Detections from predicted maps: threshold, label, read offsets, rebuild.

No non-maximum suppression and no top-K cut: every connected domain above
threshold yields exactly one detection, and only the cross-branch merge can
remove one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import TargetMaps
from .errors import DegenerateBox, ShapeMismatch
from .evaluation import may_overlap, rotated_iou
from .geometry import (  # noqa: F401 - perfbench's trace mode wraps decoder.midlines_to_box
    NON_FINITE,
    BranchId,
    OrientedBox,
    _BRANCHES,
    midline_boxes,
    midlines_to_box,
)

DEFAULT_THRESHOLD = 0.3
DEFAULT_MERGE_IOU = 0.7

# Cells join 8-connected inside one (branch, class) channel, never across.
_IN_CHANNEL = np.zeros((3, 3, 3), dtype=int)
_IN_CHANNEL[1] = 1


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
    heatmap: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected domains of cells strictly above threshold, in one labelling.

    `heatmap` is (2, C, H, W); a domain never spans two channels. Returns
    the label volume (heatmap's shape, 0 off, k + 1 on component k), a
    (K, 3) int array of each component's flat channel b * C + c and its
    lookup cell (centroid rounded half up), and the K scores (highest cell
    value). Labels follow the scan order of each component's first cell,
    so components come in (branch, class, first row, first col) order.
    """
    from scipy import ndimage  # loaded on first use: only decode labels anything

    stack = heatmap.reshape(-1, *heatmap.shape[-2:])
    lit = stack > threshold
    labels, count = ndimage.label(lit, structure=_IN_CHANNEL)
    flat = np.flatnonzero(lit)  # the bool mask: far faster than a 3-D np.nonzero or the labels
    del lit
    cells = np.unravel_index(flat, labels.shape)
    label = labels.ravel()[flat]
    size = np.bincount(label, minlength=count + 1)[1:]
    centroid = np.stack(
        [np.bincount(label, weights=axis, minlength=count + 1)[1:] / size for axis in cells],
        axis=1,
    )
    lookup = np.clip(np.floor(centroid + 0.5).astype(int), 0, np.array(stack.shape) - 1)
    scores = np.full(count + 1, -np.inf)
    np.maximum.at(scores, label, stack[cells])
    return labels.reshape(heatmap.shape), lookup, scores[1:]


def _cell_anchors(rows, cols, stride: int) -> np.ndarray:
    """The image position of each cell, repeated for the four endpoints: (K, 8), or (8,) for one."""
    return np.tile(np.stack((cols, rows), axis=-1) * stride, 4)


def reconstruct_at_cell(
    reg: np.ndarray,
    row: int,
    col: int,
    stride: int,
    branch: BranchId,
    class_id: int = 0,
    score: float = 1.0,
) -> Detection:
    """Rebuild the box stored in the offset channels of one cell: one row of decode's rebuild."""
    rebuilt = midline_boxes(reg[:, row, col] + _cell_anchors(row, col, stride))
    return Detection(box=rebuilt.box(0, class_id=class_id, score=score), branch=branch)


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

    The offsets at every component's lookup cell are read with one index
    and all boxes are rebuilt at once by geometry.midline_boxes. A row that
    passes its midline rules becomes a Detection, in component order, when
    OrientedBox accepts its corners. Degenerate regressions (coincident,
    parallel or near-parallel endpoint pairs) drop their component; the
    count lands in stats["dropped_degenerate"] when a stats dict is
    supplied. Offsets whose rebuild overflows raise the ValueError of the
    first such component.
    """
    if maps.regression.ndim != 4 or maps.regression.shape[:2] != (2, 8):
        raise ShapeMismatch(f"regression shape {maps.regression.shape}")
    if maps.heatmap.shape != (2, maps.num_classes, *maps.regression.shape[2:]):
        raise ShapeMismatch(
            f"heatmap {maps.heatmap.shape} vs regression {maps.regression.shape}"
            f" and {maps.num_classes} classes"
        )
    _, lookup, scores = extract_components(maps.heatmap, threshold)
    branch, class_id = np.divmod(lookup[:, 0], maps.num_classes)
    rows, cols = lookup[:, 1], lookup[:, 2]
    rebuilt = midline_boxes(
        maps.regression[branch, :, rows, cols] + _cell_anchors(rows, cols, maps.stride)
    )
    overflow = rebuilt.fault == NON_FINITE
    if overflow.any():
        raise rebuilt.error(int(np.argmax(overflow)))
    keep = np.flatnonzero(rebuilt.fault == 0)
    detections = []
    for i, b, c, score in zip(
        keep.tolist(), branch[keep].tolist(), class_id[keep].tolist(), scores[keep].tolist()
    ):
        try:
            box = rebuilt.box(i, class_id=c, score=score)
        except DegenerateBox:  # the rebuilt corners fail OrientedBox's shape rule
            continue
        detections.append(Detection(box=box, branch=_BRANCHES[b]))
    if stats is not None:
        stats["dropped_degenerate"] = len(lookup) - len(detections)
    return merge_branches(detections, merge_iou)
