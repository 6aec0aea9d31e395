"""Rotated-box overlap, detection matching, and dataset metrics."""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import UnknownClass
from .geometry import Boxes, OrientedBox, signed_area

_MIN_INTERSECTION = 1e-9
# rotated_iou_pairs clips this many pairs at a time. Its scratch tables take
# about 1.4 kB a pair, and blocks of 512 pairs or more cost the same per pair.
_PAIR_BLOCK = 1024

def _clip_by_edge(points: list[tuple[float, float]], a, b) -> list[tuple[float, float]]:
    """Keep the part of a polygon on the left of directed edge a->b."""
    ax, ay = a
    bx, by = b
    ex, ey = bx - ax, by - ay
    inside = [ex * (y - ay) - ey * (x - ax) >= 0.0 for x, y in points]
    out: list[tuple[float, float]] = []
    for i, p in enumerate(points):
        j = i + 1 if i + 1 < len(points) else 0
        if inside[i]:
            out.append(p)
            if not inside[j]:
                out.append(_crossing(p, points[j], ax, ay, ex, ey))
        elif inside[j]:
            out.append(_crossing(p, points[j], ax, ay, ex, ey))
    return out


def _crossing(p, q, ax, ay, ex, ey) -> tuple[float, float]:
    """Where segment pq crosses the line through (ax, ay) along (ex, ey)."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    denom = ex * dy - ey * dx
    if denom == 0.0:
        # pq is parallel to the clip line, so the side test split it
        # only by rounding; the whole segment lies on the line.
        return q
    t = (ex * (ay - p[1]) - ey * (ax - p[0])) / denom
    # Near-parallel edges can push t outside the segment by rounding.
    t = min(max(t, 0.0), 1.0)
    return (p[0] + t * dx, p[1] + t * dy)


def rotated_iou(a, b) -> float:
    """Intersection over union of two boxes (convex by construction).

    Each box is an OrientedBox or its four corners as (x, y) pairs in the
    order OrientedBox keeps them. The intersection polygon comes from
    clipping one box by the other's edges; intersections below 1e-9 square
    pixels count as empty.
    """
    subject = quad = a.corners if isinstance(a, OrientedBox) else a
    clip = b.corners if isinstance(b, OrientedBox) else b
    for i in range(4):
        subject = _clip_by_edge(subject, clip[i], clip[(i + 1) % 4])
        if not subject:
            return 0.0
    inter = abs(signed_area(subject))
    if inter < _MIN_INTERSECTION:
        return 0.0
    return inter / (abs(signed_area(quad)) + abs(signed_area(clip)) - inter)


def _next_column(v: np.ndarray, wrap: np.ndarray) -> np.ndarray:
    """Each column's next one in a padded vertex table, column 0 where wrap is set."""
    return np.where(wrap, v[:, :1], np.concatenate((v[:, 1:], v[:, :1]), axis=1))


def _shoelace(x: np.ndarray, y: np.ndarray, count: np.ndarray) -> np.ndarray:
    """abs(signed_area) of each row's first count[k] (x, y) vertices, its
    terms added in vertex order from 0.0, as signed_area adds them."""
    col = np.arange(x.shape[1])
    wrap = col + 1 >= count[:, None]
    terms = np.where(col < count[:, None], x * _next_column(y, wrap) - _next_column(x, wrap) * y, 0.0)
    total = np.zeros(len(x))
    for k in range(x.shape[1]):
        total = total + terms[:, k]
    return np.abs(total / 2.0)


def rotated_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rotated_iou(a[k], b[k]) of every row of two (P, 4, 2) corner arrays, as (P,) float64.

    Each subject quad a[k] is clipped by the four edges of its clip quad
    b[k] (Sutherland-Hodgman, batched as in Zhou et al., "IoU Loss for
    2D/3D Object Detection", 2019) on x and y vertex tables padded to the
    widest row, with a per-row vertex count, and the shoelace area is
    taken of what is left. Every pair goes through the float operations
    of rotated_iou in their order, so each IoU has the same bits: the same
    side test, each crossing taken from a vertex towards the next, the
    same clamp of t, and the shoelace terms summed in vertex order.
    Overflow gives the same inf or NaN, without a warning. Pairs are
    clipped in blocks of 1,024, so scratch memory stays near 1.4 MB.
    """
    a, b = (np.asarray(c, dtype=np.float64).reshape(-1, 4, 2) for c in (a, b))
    if len(a) > _PAIR_BLOCK:
        blocks = range(0, len(a), _PAIR_BLOCK)
        return np.concatenate([rotated_iou_pairs(a[k : k + _PAIR_BLOCK], b[k : k + _PAIR_BLOCK]) for k in blocks])
    n = len(a)
    x, y = a[:, :, 0], a[:, :, 1]
    count = np.full(n, 4)
    with np.errstate(all="ignore"):
        for e in range(4):
            ax, ay = b[:, e, 0, None], b[:, e, 1, None]
            ex, ey = b[:, (e + 1) % 4, 0, None] - ax, b[:, (e + 1) % 4, 1, None] - ay
            col = np.arange(x.shape[1])
            valid, wrap = col < count[:, None], col + 1 >= count[:, None]
            inside = (ex * (y - ay) - ey * (x - ax) >= 0.0) & valid
            crosses = valid & (inside != _next_column(inside, wrap))
            qx, qy = _next_column(x, wrap), _next_column(y, wrap)
            dx, dy = qx - x, qy - y
            denom = ex * dy - ey * dx
            t = (ex * (ay - y) - ey * (ax - x)) / denom
            t = np.where(0.0 > t, 0.0, t)  # min(max(t, 0.0), 1.0), -0.0 and NaN kept
            t = np.where(1.0 < t, 1.0, t)
            parallel = denom == 0.0
            # Each vertex gives itself when inside, then its crossing; the
            # kept ones move left, in order, into the next tables.
            shape = (n, 2 * x.shape[1])
            keep = np.stack((inside, crosses), axis=2).reshape(shape)
            vx = np.stack((x, np.where(parallel, qx, x + t * dx)), axis=2).reshape(shape)
            vy = np.stack((y, np.where(parallel, qy, y + t * dy)), axis=2).reshape(shape)
            count = keep.sum(axis=1)
            rows, cols = np.nonzero(keep)
            slot = rows, (np.cumsum(keep, axis=1) - 1)[rows, cols]
            x, y = np.zeros((n, count.max(initial=0))), np.zeros((n, count.max(initial=0)))
            x[slot], y[slot] = vx[rows, cols], vy[rows, cols]
        inter = _shoelace(x, y, count)
        quads = np.concatenate((a, b))
        quad = _shoelace(quads[:, :, 0], quads[:, :, 1], np.full(2 * n, 4))
        return np.where(inter < _MIN_INTERSECTION, 0.0, inter / (quad[:n] + quad[n:] - inter))


def may_overlap(corners_a: np.ndarray, class_a, corners_b: np.ndarray, class_b) -> np.ndarray:
    """Which pairs of boxes can have a non-zero IoU: a (len(a), len(b)) bool array.

    Each side is given as (N, 4, 2) corners and N class ids. True where the
    two boxes share a class and their closed axis-aligned bounding boxes
    intersect; every other pair has rotated_iou exactly 0.
    """
    (x0, y0), (x1, y1) = corners_a.min(axis=1).T, corners_a.max(axis=1).T
    (u0, v0), (u1, v1) = corners_b.min(axis=1).T, corners_b.max(axis=1).T
    return (
        (np.asarray(class_a)[:, None] == np.asarray(class_b)[None, :])
        & (x0[:, None] <= u1[None, :])
        & (y0[:, None] <= v1[None, :])
        & (u0[None, :] <= x1[:, None])
        & (v0[None, :] <= y1[:, None])
    )


def average_precision(
    tp_flags: Sequence[bool],
    scores: Sequence[float],
    n_gt: int,
    mode: str = "all-point",
) -> float | None:
    """Interpolated average precision over a ranked detection list.

    Returns None when the class is undefined (no ground truth and no
    detections) so callers can skip it; 0.0 when there is no ground truth
    but false positives exist.
    """
    if mode not in ("all-point", "11-point"):
        raise ValueError(f"unknown AP mode {mode!r}")
    if n_gt == 0:
        return None if len(tp_flags) == 0 else 0.0
    order = sorted(range(len(tp_flags)), key=lambda i: -scores[i])
    tp = np.cumsum([1.0 if tp_flags[i] else 0.0 for i in order])
    fp = np.cumsum([0.0 if tp_flags[i] else 1.0 for i in order])
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, np.finfo(np.float64).eps)
    if mode == "11-point":
        # Summed before the one division, so eleven maxima of 1.0 give exactly 1.0.
        hits = (precision[recall >= r] for r in np.arange(0.0, 1.1, 0.1))
        return float(sum(h.max() if h.size else 0.0 for h in hits) / 11.0)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    # The precision envelope: the best precision at this recall or any higher.
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]).sum())


@dataclass
class EvalReport:
    """Dataset metrics, either AP-based or micro precision/recall."""

    mode: str
    iou_threshold: float
    counts: dict[str, tuple[int, int, int]]  # class -> (tp, fp, fn)
    per_class_ap: dict[str, float | None] | None = None
    map_score: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "mode": self.mode,
            "iou_threshold": self.iou_threshold,
            "counts": {k: list(v) for k, v in self.counts.items()},
        }
        if self.mode == "map":
            out["per_class_ap"] = self.per_class_ap
            out["map"] = self.map_score
        else:
            out["precision"] = self.precision
            out["recall"] = self.recall
            out["f1"] = self.f1
        return out

    def format_table(self) -> str:
        rows = []
        if self.mode == "map":
            header = ("class", "ap", "tp", "fp", "fn")
            for name in sorted(self.counts):
                ap = self.per_class_ap.get(name)
                tp, fp, fn = self.counts[name]
                rows.append((name, "-" if ap is None else f"{ap:.4f}", str(tp), str(fp), str(fn)))
            footer = ("mAP", f"{self.map_score:.4f}", "", "", "")
        else:
            header = ("class", "tp", "fp", "fn", "")
            for name in sorted(self.counts):
                tp, fp, fn = self.counts[name]
                rows.append((name, str(tp), str(fp), str(fn), ""))
            footer = (
                "micro",
                f"P={self.precision:.4f}",
                f"R={self.recall:.4f}",
                f"F1={self.f1:.4f}",
                "",
            )
        table = [header, *rows, footer]
        widths = [max(len(r[c]) for r in table) for c in range(len(header))]
        lines = []
        for r in table:
            lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)).rstrip())
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def _table(items):
    """One image's boxes as a table: a Boxes (or Detections) as it is, OrientedBoxes or rows with .box as one Boxes."""
    if isinstance(items, Boxes):
        return items
    return Boxes.of([item if isinstance(item, OrientedBox) else item.box for item in items])


def _greedy_matches(
    classes, scores, difficult, det_rows, gt_rows, ious, iou_threshold: float
) -> Iterator[tuple[int, float, bool]]:
    """Class id, score and hit of each detection of one image, best first.

    The columns are the image's detection class ids and scores and its
    ground truth's difficult flags; its candidate pairs are det_rows[k]
    and gt_rows[k], in row-major order, with IoU ious[k]. A detection that
    claims difficult ground truth is left out.
    """
    candidates: list[list[tuple[int, float]]] = [[] for _ in classes]
    for i, j, iou in zip(det_rows, gt_rows, ious):
        candidates[i].append((j, iou))
    taken = [False] * len(difficult)
    for i in sorted(range(len(classes)), key=lambda i: -scores[i]):
        best_iou, best_j = 0.0, -1
        for j, iou in candidates[i]:
            if not taken[j] and iou > best_iou:
                best_iou, best_j = iou, j
        hit = best_j >= 0 and best_iou >= iou_threshold
        if hit:
            taken[best_j] = True
        if not (hit and difficult[best_j]):
            yield classes[i], scores[i], hit


def evaluate(
    dets,
    gts,
    mode: str = "map",
    iou_threshold: float = 0.5,
    ap_mode: str = "all-point",
    class_names: Sequence[str] | None = None,
) -> EvalReport:
    """Score detections against ground truth.

    dets and gts are either one image's boxes or mappings from image id
    to them; an image missing on one side is empty there. Boxes come as a
    Boxes or Detections table, read by column, or as OrientedBoxes or rows
    carrying one under .box, which are made one Boxes table.
    mode "map" reports per-class interpolated AP and their mean; mode
    "text" reports micro-averaged precision/recall/F1 at the IoU threshold.

    Matching is greedy and one-to-one, one pass per image for all classes:
    detections are visited best score first (stable for ties), and each
    claims the not-yet-taken ground truth of its class with the highest
    IoU, if that reaches the threshold. A detection that claims difficult
    ground truth counts nowhere; a class's misses are its non-difficult
    ground truth minus its true positives. The candidate pairs of every
    image (may_overlap) are scored in one rotated_iou_pairs call before
    any matching: an array call costs about 0.2 ms at any size under
    about 50 pairs, so scored per image (about 50 pairs on a benchmark
    tile) or per detection (1 to 3) they would cost more than one pair
    at a time.
    """
    if mode not in ("map", "text"):
        raise ValueError(f"unknown eval mode {mode!r}")
    dets_by_image = dets if isinstance(dets, Mapping) else {"": dets}
    gts_by_image = gts if isinstance(gts, Mapping) else {"": gts}
    highest, n_gt = -1, Counter()
    # Every image's columns and candidate pairs, end to end in flat lists,
    # and the pairs' corners in two growing float64 buffers, for one
    # rotated_iou_pairs call over the whole evaluation. Lists and arrays
    # per image would cost about 1 kB an image, and the benchmark's detect
    # mAP evaluates about 9,000 groups as images.
    classes, det_scores, difficult, det_rows, gt_rows, sizes = [], [], [], [], [], []
    det_xy, gt_xy = array("d"), array("d")
    for image_id in sorted(set(dets_by_image) | set(gts_by_image)):
        # One image's tables at a time: kept for every image, their arrays outweigh the boxes.
        det, gt = (_table(by_image.get(image_id, ())) for by_image in (dets_by_image, gts_by_image))
        highest = max([highest, *det.class_id.tolist(), *gt.class_id.tolist()])
        n_gt.update(gt.class_id[~gt.difficult].tolist())
        rows, cols = np.nonzero(may_overlap(det.corners, det.class_id, gt.corners, gt.class_id))
        det_xy.frombytes(det.corners[rows].astype(np.float64, copy=False).tobytes())
        gt_xy.frombytes(gt.corners[cols].astype(np.float64, copy=False).tobytes())
        classes += det.class_id.tolist()
        det_scores += det.score.tolist()
        difficult += gt.difficult.tolist()
        det_rows += rows.tolist()
        gt_rows += cols.tolist()
        sizes.append((len(det), len(gt), len(rows)))
    corners = (np.frombuffer(xy).reshape(-1, 4, 2) for xy in (det_xy, gt_xy))
    ious = rotated_iou_pairs(*corners).tolist()
    # Per class, in image order and then descending score, as AP breaks ties.
    flags: defaultdict[int, list[bool]] = defaultdict(list)
    scores: defaultdict[int, list[float]] = defaultdict(list)
    d = g = p = 0
    for n_det, n_truth, n_pairs in sizes:
        image = (
            classes[d : d + n_det], det_scores[d : d + n_det], difficult[g : g + n_truth],
            det_rows[p : p + n_pairs], gt_rows[p : p + n_pairs], ious[p : p + n_pairs],
        )
        for class_id, score, hit in _greedy_matches(*image, iou_threshold):
            flags[class_id].append(hit)
            scores[class_id].append(score)
        d, g, p = d + n_det, g + n_truth, p + n_pairs
    if class_names is None:
        class_names = [f"class_{i}" for i in range(highest + 1)]
    if highest >= len(class_names):
        raise UnknownClass(
            f"class id {highest} outside vocabulary of {len(class_names)} names"
        )

    per_class_ap: dict[str, float | None] = {}
    counts: dict[str, tuple[int, int, int]] = {}
    for class_id, name in enumerate(class_names):
        class_flags, class_scores, counted = flags[class_id], scores[class_id], n_gt[class_id]
        tp = sum(class_flags)
        # A true positive uses up exactly one non-difficult box of its class.
        counts[name] = (tp, len(class_flags) - tp, counted - tp)
        per_class_ap[name] = average_precision(class_flags, class_scores, counted, ap_mode)
    total_tp = sum(map(sum, flags.values()))
    total_fp = sum(map(len, flags.values())) - total_tp
    total_fn = sum(n_gt.values()) - total_tp

    if mode == "map":
        defined = [ap for ap in per_class_ap.values() if ap is not None]
        map_score = float(np.mean(defined)) if defined else 0.0
        return EvalReport(
            mode=mode, iou_threshold=iou_threshold, counts=counts,
            per_class_ap=per_class_ap, map_score=map_score,
        )
    precision = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
    recall = total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        mode=mode, iou_threshold=iou_threshold, counts=counts,
        precision=precision, recall=recall, f1=f1,
    )
