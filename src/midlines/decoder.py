"""Detections from predicted maps: threshold, label, read offsets, rebuild.

No non-maximum suppression and no top-K cut: every connected domain above
threshold yields exactly one detection, and only the cross-branch merge can
remove one. The detections of an image come back as one Detections table:
a geometry.Boxes of their corners, class ids and scores, never difficult,
plus a branch column. A Detection row is made only when one is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import Cells, TargetMaps, _cell_anchors, _offsets
from .errors import ShapeMismatch
from .evaluation import may_overlap, rotated_iou
from .geometry import (  # noqa: F401 - perfbench's trace mode wraps decoder.midlines_to_box
    NON_FINITE,
    Boxes,
    BranchId,
    OrientedBox,
    _BRANCHES,
    midline_boxes,
    midlines_to_box,
    oriented_quads,
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


@dataclass(frozen=True, eq=False)
class Detections(Boxes):
    """The detections of one image: a Boxes table, row k for detection k,
    whose difficult column is all false, plus one more column.

    branch: (K,) BranchId.index

    Iterating gives each row as a Detection, made from the columns in one
    tolist pass.
    """

    branch: np.ndarray

    def __iter__(self):
        for box, branch in zip(super().__iter__(), self.branch.tolist()):
            yield Detection(box=box, branch=_BRANCHES[branch])


def _jump(parent: np.ndarray) -> np.ndarray:
    """Point every node of a forest straight at its root; each pass halves every path."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def extract_components(
    heatmap: np.ndarray | Cells,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Connected domains of cells strictly above threshold, in one labelling.

    `heatmap` is (2, C, H, W), a dense array or Cells; cells join
    8-connected inside one channel, never across. A dense heatmap is
    scanned once for its lit cells, and Cells are lit by their stored
    values alone, unless the threshold is below 0: that lights every
    unstored +0.0 cell too, so the Cells are made dense and scanned.
    Returns the flat indices of the lit cells into the heatmap, in
    increasing order, and the component k of each; a (K, 3) int array of each
    component's flat channel b * C + c and its lookup cell (centroid rounded
    half up); and the K scores (highest cell value). Components are numbered
    in the scan order of their first cell, so they come in (branch, class,
    first row, first col) order.

    Only the lit cells are visited. They are cut into row runs (He, Chao and
    Suzuki, "A Run-Based Two-Scan Labeling Algorithm", 2008), and the runs
    are joined by hooking each root to its smallest neighbouring root, with
    pointer jumping in between (Zhang, Azad and Hu, "FastSV", 2020): the
    rounds grow with the logarithm of the run count, not with the length of
    a component.
    """
    height, width = heatmap.shape[-2:]
    if isinstance(heatmap, Cells) and not threshold < 0.0:
        lit = heatmap.value > threshold
        flat, values = heatmap.index[lit], heatmap.value[lit]
    else:
        grid = heatmap.dense() if isinstance(heatmap, Cells) else heatmap
        values = grid.ravel()
        flat = np.flatnonzero(values > threshold)
        values = values[flat]
    if not flat.size:
        return flat, flat, np.zeros((0, 3), dtype=int), np.zeros(0)

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
    np.maximum.at(scores, owner, values)
    return flat, owner, lookup, scores


def merge_branches(
    detections: Detections,
    iou_threshold: float = DEFAULT_MERGE_IOU,
) -> Detections:
    """Collapse cross-branch duplicates of the same class.

    For every horizontal/oriented pair of the same class with overlap
    strictly above the threshold, the lower-scoring one is dropped; an
    exact score tie keeps the horizontal one. Detections within a branch
    never suppress each other. Only the pairs may_overlap finds get a
    rotated_iou call. The merge keeps the one-pair call, where eval and
    roundtrip score theirs in one rotated_iou_pairs call: an array call
    costs about 0.2 ms at any size under about 50 pairs, and one decode
    meets 4 to 47. On the detect benchmark's seed-0 pass (32 images, 842
    pairs) per-call batches took 6.2 ms against 3.1 ms one pair at a time.
    """
    horizontal = np.flatnonzero(detections.branch == BranchId.HORIZONTAL.index)
    oriented = np.flatnonzero(detections.branch == BranchId.ORIENTED.index)
    h, o = (detections.take(rows) for rows in (horizontal, oriented))
    pairs = np.nonzero(may_overlap(h.corners, h.class_id, o.corners, o.class_id))
    rows_h, rows_o = horizontal[pairs[0]], oriented[pairs[1]]
    corners, score = detections.corners, detections.score
    keep = np.ones(len(detections), dtype=bool)
    for i, j, corners_i, corners_j, score_i, score_j in zip(
        rows_h.tolist(), rows_o.tolist(), corners[rows_h].tolist(), corners[rows_o].tolist(),
        score[rows_h].tolist(), score[rows_o].tolist(),
    ):
        if rotated_iou(corners_i, corners_j) > iou_threshold:
            keep[i if score_j > score_i else j] = False
    return detections.take(keep)


def decode(
    maps: TargetMaps,
    threshold: float = DEFAULT_THRESHOLD,
    merge_iou: float = DEFAULT_MERGE_IOU,
    stats: dict | None = None,
) -> Detections:
    """All detections in one image's maps, cross-branch merged, unsorted.

    The maps are read as they are kept (TargetMaps.kept): a dense heatmap
    by one threshold scan, Cells by their stored values. The offsets at
    every component's lookup cell are read in one gather by
    encoder._offsets, the reader the line loss uses too, all boxes are
    rebuilt at once by geometry.midline_boxes, and geometry.quad_rule runs
    once on the columns of their corners. A row that passes the midline
    rules and the quad rule is a detection, in component order, with its
    corners flipped to (0, 3, 2, 1) when its area is negative, as
    OrientedBox keeps them. Degenerate regressions (coincident,
    parallel or near-parallel endpoint pairs) drop their component; the
    count lands in stats["dropped_degenerate"] when a stats dict is
    supplied. Offsets whose rebuild overflows raise the ValueError of the
    first such component, and a score outside [0, 1] the ValueError
    OrientedBox raises for the first kept one.
    """
    heatmap, regression = maps.kept("heatmap"), maps.kept("regression")
    if len(regression.shape) != 4 or regression.shape[:2] != (2, 8):
        raise ShapeMismatch(f"regression shape {regression.shape}")
    if heatmap.shape != (2, maps.num_classes, *regression.shape[2:]):
        raise ShapeMismatch(
            f"heatmap {heatmap.shape} vs regression {regression.shape}"
            f" and {maps.num_classes} classes"
        )
    *_, lookup, scores = extract_components(heatmap, threshold)
    branch, class_id = np.divmod(lookup[:, 0], maps.num_classes)
    rows, cols = lookup[:, 1], lookup[:, 2]
    offsets = _offsets(regression, branch, rows * regression.shape[3] + cols)
    rebuilt = midline_boxes(offsets + _cell_anchors(rows, cols, maps.stride))
    overflow = rebuilt.fault == NON_FINITE
    if overflow.any():
        raise rebuilt.error(int(np.argmax(overflow)))
    keep = np.flatnonzero(rebuilt.fault == 0)
    bad_score = ~((scores[keep] >= 0.0) & (scores[keep] <= 1.0))
    if bad_score.any():
        raise ValueError(f"score {scores[keep][np.argmax(bad_score)].item()} outside [0, 1]")
    code, corners = oriented_quads(rebuilt.corners[keep])
    good = code == 0
    keep = keep[good]
    table = Detections(corners[good], class_id[keep], scores[keep], np.zeros(len(keep), dtype=bool), branch[keep])
    if stats is not None:
        stats["dropped_degenerate"] = len(lookup) - len(table)
    return merge_branches(table, merge_iou)
