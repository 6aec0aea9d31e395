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


def _jump(parent: np.ndarray) -> np.ndarray:
    """Point every node of a forest straight at its root; each pass halves every path."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def extract_components(
    heatmap: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected domains of cells strictly above threshold, in one labelling.

    `heatmap` is (2, C, H, W); cells join 8-connected inside one channel, never
    across. Returns the label volume (heatmap's shape, int32, 0 off, k + 1 on
    component k), a (K, 3) int array of each component's flat channel
    b * C + c and its lookup cell (centroid rounded half up), and the K scores
    (highest cell value). Labels follow the scan order of each component's
    first cell, so components come in (branch, class, first row, first col)
    order.

    Only the lit cells are visited. They are cut into row runs (He, Chao and
    Suzuki, "A Run-Based Two-Scan Labeling Algorithm", 2008), and the runs
    are joined by hooking each root to its smallest neighbouring root, with
    pointer jumping in between (Zhang, Azad and Hu, "FastSV", 2020): the
    rounds grow with the logarithm of the run count, not with the length of
    a component.
    """
    stack = heatmap.reshape(-1, *heatmap.shape[-2:])
    height, width = stack.shape[1:]
    values = stack.ravel()
    flat = np.flatnonzero(values > threshold)
    labels = np.zeros(values.size, dtype=np.int32)
    if not flat.size:
        return labels.reshape(heatmap.shape), np.zeros((0, 3), dtype=int), np.zeros(0)

    # Runs: a new one starts where the flat index jumps or a row begins. A
    # run's row counts the rows of the whole (2 * C * H, W) stack.
    begin = np.flatnonzero((np.diff(flat) != 1) | (flat[1:] % width == 0)) + 1
    starts = flat[np.concatenate(([0], begin))]
    ends = flat[np.append(begin - 1, flat.size - 1)]
    row = starts // width
    length = ends - starts + 1

    # The 8-neighbours of a run in the row above are the runs that end at or
    # after start - W - 1 and start at or before end - W + 1, both clamped to
    # that row: one contiguous slice [lo, hi) of the runs. A channel's first
    # row has none.
    lo = np.searchsorted(ends, np.maximum(starts - width - 1, (row - 1) * width))
    hi = np.searchsorted(starts, np.minimum(ends - width + 1, row * width - 1), side="right")
    n_up = np.where(row % height != 0, hi - lo, 0).clip(0)

    # A forest from each run's first upper neighbour, then hooking over the
    # edges to the other upper neighbours until every edge stays inside one
    # tree. Roots only ever hook to smaller roots, so each component ends
    # rooted at its first run.
    run = np.arange(starts.size)
    parent = _jump(np.where(n_up > 0, lo, run))
    extra = np.maximum(n_up - 1, 0)
    u = np.repeat(run, extra)
    v = np.arange(u.size) + np.repeat(lo + 1 - (np.cumsum(extra) - extra), extra)
    while True:
        pu, pv = parent[u], parent[v]
        apart = pu != pv
        if not apart.any():
            break
        u, v, pu, pv = u[apart], v[apart], pu[apart], pv[apart]
        np.minimum.at(parent, pu, pv)
        np.minimum.at(parent, pv, pu)
        parent = _jump(parent)

    root = parent == run
    component = (np.cumsum(root) - 1)[parent]
    # Sizes and centroid sums per run in closed form: integer sums below
    # 2**53, exact in float64 whatever the order they are added in.
    size = np.bincount(component, weights=length)
    sums = [
        np.bincount(component, weights=axis)
        for axis in (row % height * length, starts % width * length + length * (length - 1) // 2)
    ]
    lookup = np.column_stack([
        starts[root] // (height * width),
        *(np.floor(total / size + 0.5).astype(int) for total in sums),
    ])
    owner = np.repeat(component, length)  # the component of each lit cell
    scores = np.full(len(lookup), -np.inf)
    np.maximum.at(scores, owner, values[flat])
    labels[flat] = owner + 1
    return labels.reshape(heatmap.shape), lookup, scores


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
