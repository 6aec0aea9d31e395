"""Seeded synthetic DOTA-like inputs for the three workloads.

The generators use numpy and the standard library only. They never call the
package's encoder, decoder, tiler or evaluator, so a workload's inputs and its
set-up time do not move when one of those layers changes. The package's box
type (OrientedBox) is the input format, so building boxes is part of set-up.

Every generator takes the workload seed; the same seed gives the same inputs.
Object counts are spread evenly over their stated range and shuffled, so the
per-image cost distribution is the same for every seed and only the
placement, classes, shapes and noise vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from midlines.geometry import OrientedBox, Point2
from midlines.ingest import DOTA_CLASS_NAMES

STRIDE = 4
NUM_CLASSES = len(DOTA_CLASS_NAMES)
SMALL_VEHICLE = DOTA_CLASS_NAMES.index("small-vehicle")

# About 70% small-vehicle, the rest spread over the other 14 classes with
# DOTA-like frequency.
_OTHER_WEIGHTS = {
    "large-vehicle": 8, "ship": 6, "plane": 3, "storage-tank": 3, "harbor": 2,
    "tennis-court": 1.5, "swimming-pool": 1, "bridge": 1, "basketball-court": 0.8,
    "baseball-diamond": 0.8, "ground-track-field": 0.7, "soccer-ball-field": 0.7,
    "roundabout": 0.8, "helicopter": 0.7,
}
CLASS_P = np.zeros(NUM_CLASSES)
CLASS_P[SMALL_VEHICLE] = 70.0
for _name, _w in _OTHER_WEIGHTS.items():
    CLASS_P[DOTA_CLASS_NAMES.index(_name)] = _w
CLASS_P /= CLASS_P.sum()

# (shortest long side, longest long side, widest aspect) per class, in px.
_SIZE = {name: (20.0, 70.0, 3.0) for name in DOTA_CLASS_NAMES}
_SIZE.update({
    "small-vehicle": (10.0, 26.0, 2.6), "large-vehicle": (20.0, 48.0, 4.0),
    "ship": (16.0, 56.0, 4.5), "plane": (30.0, 70.0, 1.3),
    "storage-tank": (12.0, 48.0, 1.1), "helicopter": (20.0, 40.0, 1.5),
})
_SIZE_TABLE = np.array([_SIZE[name] for name in DOTA_CLASS_NAMES])

_UNIT_X = np.array([-0.5, 0.5, 0.5, -0.5])
_UNIT_Y = np.array([-0.5, -0.5, 0.5, 0.5])


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """Independent stream per workload, so adding one never shifts another."""
    return np.random.default_rng([seed, sum(workload.encode())])


def stratified_counts(rng: np.random.Generator, low: int, high: int, n: int) -> np.ndarray:
    """n counts spread evenly over [low, high], in random order."""
    return rng.permutation(np.rint(np.linspace(low, high, n)).astype(int))


def shuffled_labels(rng: np.random.Generator, n: int, shares) -> np.ndarray:
    """n labels 0..k-1 in the given proportions (largest remainder), shuffled.

    Exact proportions instead of independent draws keep the amount of work
    (class sizes, hence all-pairs IoU counts) nearly the same for every seed.
    """
    shares = np.asarray(shares, dtype=float) / np.sum(shares)
    counts = np.floor(shares * n).astype(int)
    counts[np.argsort(counts - shares * n)[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(shares)), counts))


@dataclass
class Objects:
    """A batch of rotated rectangles: corners (n, 4, 2), classes, flags."""

    corners: np.ndarray
    classes: np.ndarray
    difficult: np.ndarray
    horizontal: np.ndarray  # near-vertical midline strictly inside (88, 92) degrees
    near_window: np.ndarray  # placed within 2.5 degrees of that window


def sample_objects(
    rng: np.random.Generator,
    cx: np.ndarray,
    cy: np.ndarray,
    max_side: float = np.inf,
) -> Objects:
    """Rotated rectangles at the given centres with DOTA-like edge cases.

    40% are axis-aligned, 10% sit within 2.5 degrees of the 88-92
    degree branch window, 5% are thin (aspect 6-12), 5% are below the
    two-stride resolution limit, and 5% are flagged difficult.
    """
    n = len(cx)
    classes = shuffled_labels(rng, n, CLASS_P)
    lo, hi, aspect = _SIZE_TABLE[classes].T
    length = np.exp(rng.uniform(np.log(lo), np.log(hi)))
    width = length / rng.uniform(1.0, aspect)
    shape = shuffled_labels(rng, n, (0.05, 0.05, 0.90))
    thin = shape == 0
    width[thin] = length[thin] / rng.uniform(6.0, 12.0, thin.sum())
    subres = shape == 1
    scale = rng.uniform(2.0, 7.0, subres.sum()) / width[subres]
    length[subres] *= scale
    width[subres] *= scale
    length = np.minimum(length, max_side)
    width = np.minimum(width, length)

    pose = shuffled_labels(rng, n, (0.40, 0.10, 0.50))
    angle = rng.uniform(0.0, 180.0, n)
    axis = pose == 0
    angle[axis] = rng.choice([0.0, 90.0], axis.sum())
    near = pose == 1
    angle[near] = rng.choice([0.0, 90.0], near.sum()) + rng.uniform(-2.5, 2.5, near.sum())
    # Long side along x at angle 0; swap so both orientations occur.
    swap = rng.random(n) < 0.5
    w = np.where(swap, width, length)
    h = np.where(swap, length, width)

    rad = np.radians(angle)
    ca, sa = np.cos(rad)[:, None], np.sin(rad)[:, None]
    dx, dy = _UNIT_X * w[:, None], _UNIT_Y * h[:, None]
    corners = np.stack([cx[:, None] + dx * ca - dy * sa, cy[:, None] + dx * sa + dy * ca], axis=-1)
    theta = _near_vertical_angle(corners)
    difficult = shuffled_labels(rng, n, (0.05, 0.95)) == 0
    return Objects(corners, classes, difficult, (theta > 88.0) & (theta < 92.0), near)


def _folded_angle(d: np.ndarray) -> np.ndarray:
    return np.degrees(np.arctan2(d[..., 1], d[..., 0])) % 180.0


def _near_vertical_angle(corners: np.ndarray) -> np.ndarray:
    """Angle of the more vertical midline, as the package's branch rule uses it."""
    mid_a = (corners[:, 0] + corners[:, 1]) / 2.0 - (corners[:, 2] + corners[:, 3]) / 2.0
    mid_b = (corners[:, 1] + corners[:, 2]) / 2.0 - (corners[:, 3] + corners[:, 0]) / 2.0
    ang_a, ang_b = _folded_angle(mid_a), _folded_angle(mid_b)
    return np.where(np.abs(ang_a - 90.0) <= np.abs(ang_b - 90.0), ang_a, ang_b)


def to_boxes(corners: np.ndarray, classes: np.ndarray, difficult: np.ndarray) -> list[OrientedBox]:
    """OrientedBox per quad, leaving out quads that are degenerate or crossed."""
    out: list[OrientedBox] = []
    for corners, class_id, difficult in zip(corners, classes, difficult):
        try:
            out.append(OrientedBox(
                tuple(Point2(float(x), float(y)) for x, y in corners),
                class_id=int(class_id),
                difficult=bool(difficult),
            ))
        except ValueError:
            continue
    return out


def has_zero_midline(box: OrientedBox) -> bool:
    """True when either midline candidate of the stored corners has length 0."""
    p0, p1, p2, p3 = box.corners
    a = ((p0.x + p1.x) / 2.0, (p0.y + p1.y) / 2.0) == ((p2.x + p3.x) / 2.0, (p2.y + p3.y) / 2.0)
    b = ((p1.x + p2.x) / 2.0, (p1.y + p2.y) / 2.0) == ((p3.x + p0.x) / 2.0, (p3.y + p0.y) / 2.0)
    return a or b


# --- train_step ----------------------------------------------------------------


TRAIN_TILE = 800


@dataclass
class TrainInputs:
    tiles: list[list[OrientedBox]]
    expected_encoded: list[int]  # boxes whose midlines are non-degenerate
    hm_noise: np.ndarray  # shared heatmap perturbation, (2, C, H, W)
    reg_noise: np.ndarray  # shared regression perturbation, (2, 8, H, W)


def train_inputs(seed: int, n_tiles: int) -> TrainInputs:
    """Dense 800x800 tiles as cut from larger scenes.

    Object centroids lie inside the tile and corners are clamped to it, as
    the tiler does, so objects cut by the tile edge become non-rectangular
    quads; quads the clamp collapses are dropped.
    """
    rng = rng_for(seed, "train_step")
    tiles, expected = [], []
    for n in stratified_counts(rng, 300, 400, n_tiles):
        cx, cy = rng.uniform(0.0, TRAIN_TILE, (2, n))
        objs = sample_objects(rng, cx, cy)
        np.clip(objs.corners, 0.0, float(TRAIN_TILE), out=objs.corners)
        boxes = to_boxes(objs.corners, objs.classes, objs.difficult)
        tiles.append(boxes)
        expected.append(sum(1 for b in boxes if not has_zero_midline(b)))
    cells = TRAIN_TILE // STRIDE
    hm_noise = rng.uniform(0.02, 0.15, (2, NUM_CLASSES, cells, cells))
    reg_noise = rng.normal(0.0, 1.5, (2, 8, cells, cells))
    return TrainInputs(tiles, expected, hm_noise, reg_noise)


# --- detect --------------------------------------------------------------------


DETECT_IMAGE = 1024
DETECT_CELLS = DETECT_IMAGE // STRIDE
_SLOT = 10  # cells per placement slot; blobs never reach the next slot
_SLOTS = DETECT_CELLS // _SLOT
THRESHOLD = 0.3


@dataclass
class DetectImage:
    """One predicted map, stored as the cells it changes from background."""

    hm_index: np.ndarray  # flat indices into the (2, C, H, W) heatmap
    hm_value: np.ndarray
    reg_index: np.ndarray  # flat indices into the (2, 8, H, W) regression
    reg_value: np.ndarray
    gts: list[OrientedBox]
    expected_detections: int
    expected_dropped: int


@dataclass
class DetectInputs:
    images: list[DetectImage]
    background: np.ndarray  # shared sub-threshold heatmap, (2, C, H, W)


def _disc(radius: int) -> np.ndarray:
    r = np.arange(-radius, radius + 1)
    dr, dc = np.meshgrid(r, r, indexing="ij")
    keep = dr**2 + dc**2 <= radius**2
    return np.stack([dr[keep], dc[keep]], axis=1)


_DISCS = {r: _disc(r) for r in (1, 2, 3)}


def _midline_endpoints(corners: np.ndarray) -> np.ndarray:
    """(n, 8): l1 = midpoints of edges p0p1 and p2p3, l2 = of p1p2 and p3p0."""
    m = [
        (corners[:, 0] + corners[:, 1]) / 2.0, (corners[:, 2] + corners[:, 3]) / 2.0,
        (corners[:, 1] + corners[:, 2]) / 2.0, (corners[:, 3] + corners[:, 0]) / 2.0,
    ]
    return np.concatenate(m, axis=1)


def detect_image(rng: np.random.Generator, n_objects: int) -> DetectImage:
    """A crowded 1024x1024 predicted map with its ground truth.

    Objects sit one per 10x10-cell slot, so heatmap blobs never touch and
    every above-threshold blob is exactly one component. About 8% of
    objects peak below threshold, 5% extra false-positive blobs appear, one
    blob per 150 objects regresses a zero-length line (the decoder drops
    it), and the visible objects near the branch window (about 9% of them)
    appear in both branches with the same regression, so the decoder
    rebuilds the same box twice and its cross-branch merge keeps one.
    Reading the same values keeps the merge IoU far above threshold for
    small and thin boxes too.
    """
    n_fp = max(1, round(0.05 * n_objects))
    n_deg = max(1, n_objects // 150)
    n = n_objects + n_fp + n_deg
    slots = rng.choice(_SLOTS * _SLOTS, n, replace=False)
    row = (slots // _SLOTS) * _SLOT + _SLOT // 2 + rng.integers(-1, 2, n)
    col = (slots % _SLOTS) * _SLOT + _SLOT // 2 + rng.integers(-1, 2, n)
    cx = col * STRIDE + rng.uniform(-2.0, 2.0, n)
    cy = row * STRIDE + rng.uniform(-2.0, 2.0, n)
    objs = sample_objects(rng, cx, cy, max_side=44.0)
    is_obj = np.arange(n) < n_objects
    is_deg = np.arange(n) >= n_objects + n_fp

    peak = rng.uniform(0.35, 0.98, n)
    hidden = np.zeros(n, dtype=bool)
    hidden[:n_objects] = shuffled_labels(rng, n_objects, (0.08, 0.92)) == 0
    peak[hidden] = rng.uniform(0.12, 0.28, hidden.sum())
    shortest = np.min(_side_lengths(objs.corners), axis=1)
    both = is_obj & ~hidden & objs.near_window

    ends = _midline_endpoints(objs.corners) + rng.normal(0.0, 1.0, (n, 8))
    ends[is_deg, 6:8] = ends[is_deg, 4:6]  # l2 collapses to a point
    radius = np.clip(np.rint(shortest / 8.0), 1, 3).astype(int)

    hm_idx, hm_val, reg_idx, reg_val = [], [], [], []
    even = (np.arange(8) % 2 == 0)[None, :, None]
    for r, disc in _DISCS.items():
        sel = np.flatnonzero(radius == r)
        rows = row[sel, None] + disc[None, :, 0]  # (objects, cells)
        cols = col[sel, None] + disc[None, :, 1]
        values = peak[sel, None] * np.exp(-(disc**2).sum(axis=1) / (2.0 * (r / 1.2) ** 2))
        anchors = np.where(even, cols[:, None, :], rows[:, None, :]) * float(STRIDE)
        offsets = ends[sel, :, None] - anchors  # (objects, 8, cells)
        jitter = rng.normal(0.0, 0.15, offsets.shape)
        jitter[is_deg[sel]] = 0.0
        offsets += jitter
        for b, in_branch in ((0, objs.horizontal[sel]), (1, ~objs.horizontal[sel])):
            on = in_branch | both[sel]
            plane = (b * NUM_CLASSES + objs.classes[sel][on])[:, None] * DETECT_CELLS
            hm_idx.append(((plane + rows[on]) * DETECT_CELLS + cols[on]).ravel())
            hm_val.append(values[on].ravel())
            channel = (b * 8 + np.arange(8))[None, :, None] * DETECT_CELLS
            reg_idx.append(((channel + rows[on][:, None, :]) * DETECT_CELLS + cols[on][:, None, :]).ravel())
            reg_val.append(offsets[on].ravel())

    visible = peak > THRESHOLD
    return DetectImage(
        hm_index=np.concatenate(hm_idx), hm_value=np.concatenate(hm_val),
        reg_index=np.concatenate(reg_idx), reg_value=np.concatenate(reg_val),
        gts=to_boxes(objs.corners[is_obj], objs.classes[is_obj], objs.difficult[is_obj]),
        expected_detections=int((visible & ~is_deg).sum()),
        expected_dropped=int((visible & is_deg).sum()),
    )


def _side_lengths(corners: np.ndarray) -> np.ndarray:
    return np.linalg.norm(corners - np.roll(corners, -1, axis=1), axis=-1)


def detect_inputs(seed: int, n_images: int) -> DetectInputs:
    rng = rng_for(seed, "detect")
    images = [detect_image(rng, n) for n in stratified_counts(rng, 50, 500, n_images)]
    background = rng.uniform(0.0, 0.25, (2, NUM_CLASSES, DETECT_CELLS, DETECT_CELLS))
    return DetectInputs(images, background)


# --- cli_chain -----------------------------------------------------------------


SCENE = 2000


def scene_label_text(rng: np.random.Generator, n_objects: int) -> str:
    """One DOTA label file for a 2000x2000 scene.

    Besides well-formed objects it holds the two header lines, lines with the
    wrong field count, unparseable coordinates and a bad difficult flag, an
    unknown category, and objects clamped at the scene border. One object
    reaches the far corner so the parsed extent is exactly the scene size.
    """
    cx, cy = rng.uniform(0.0, SCENE, (2, n_objects))
    objs = sample_objects(rng, cx, cy)
    np.clip(objs.corners, 0.0, float(SCENE), out=objs.corners)
    objs.corners[0] = [[SCENE - 24.0, SCENE - 12.0], [SCENE, SCENE - 12.0], [SCENE, SCENE], [SCENE - 24.0, SCENE]]
    lines = ["imagesource:GoogleEarth", "gsd:0.146"]
    for i in range(n_objects):
        coords = " ".join(f"{v:.1f}" for v in objs.corners[i].ravel())
        lines.append(f"{coords} {DOTA_CLASS_NAMES[objs.classes[i]]} {int(objs.difficult[i])}")
    bad = [
        "12.0 14.0 30.0 14.0 30.0 20.0 small-vehicle 0",
        "1.0 2.0 3.0 4.0 x 6.0 7.0 8.0 plane 0",
        "100.0 100.0 120.0 100.0 120.0 110.0 100.0 110.0 ship 2",
        "300.0 300.0 340.0 300.0 340.0 320.0 300.0 320.0 vehicle-ish 0",
    ]
    for line in bad:
        lines.insert(int(rng.integers(2, len(lines) + 1)), line)
    return "\n".join(lines) + "\n"


def cli_scenes(seed: int, n_scenes: int, n_objects: int) -> dict[str, str]:
    """Label file name -> text for n_scenes scenes."""
    rng = rng_for(seed, "cli_chain")
    return {f"P{k:04d}.txt": scene_label_text(rng, n_objects) for k in range(n_scenes)}
