"""Independent reference implementations the tests check against.

These deliberately avoid the package's own algorithms: overlap by counting
lattice points instead of polygon clipping, components by breadth-first
flood fill instead of scipy labeling.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from midlines.geometry import OrientedBox


def inside_convex(xg: np.ndarray, yg: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Half-plane test per edge; boxes store positive-winding corners."""
    mask = np.ones(xg.shape, dtype=bool)
    corners = box.corners
    for i in range(4):
        p, q = corners[i], corners[(i + 1) % 4]
        mask &= (q.x - p.x) * (yg - p.y) - (q.y - p.y) * (xg - p.x) >= 0.0
    return mask


def _reach(lo: np.ndarray, hi: np.ndarray, a: float, b: float, margin: float) -> slice:
    """The run of grid lines whose samples span [lo, hi] and come within margin of [a, b]."""
    hit = np.flatnonzero((hi >= a - margin) & (lo <= b + margin))
    return slice(hit[0], hit[-1] + 1)


def mc_iou(
    a: OrientedBox,
    b: OrientedBox,
    resolution: int = 1000,
    rng: np.random.Generator | None = None,
) -> float:
    """Rasterization estimate of IoU over the joint bounding box.

    With an rng the sample is jittered stratified (one uniform point per
    stratum cell), which kills the aliasing bias a fixed lattice has along
    box edges; without one it falls back to the plain lattice.
    """
    xs = [p.x for p in (*a.corners, *b.corners)]
    ys = [p.y for p in (*a.corners, *b.corners)]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if rng is None:
        gx = np.linspace(x0, x1, resolution)
        gy = np.linspace(y0, y1, resolution)
        xg, yg = np.meshgrid(gx, gy)
    else:
        u = (np.arange(resolution) + rng.random((resolution, resolution))) / resolution
        v = (np.arange(resolution)[:, None] + rng.random((resolution, resolution))) / resolution
        xg = x0 + u * (x1 - x0)
        yg = y0 + v * (y1 - y0)
    # A sample more than a stratum outside a box's bounding box is outside
    # the box whatever the rounding, so each box is tested only on the rows
    # and columns of samples that come nearer.
    row_lo, row_hi = yg.min(axis=1), yg.max(axis=1)
    col_lo, col_hi = xg.min(axis=0), xg.max(axis=0)
    inside = []
    for box in (a, b):
        bx, by = [p.x for p in box.corners], [p.y for p in box.corners]
        rows = _reach(row_lo, row_hi, min(by), max(by), (y1 - y0) / resolution)
        cols = _reach(col_lo, col_hi, min(bx), max(bx), (x1 - x0) / resolution)
        mask = np.zeros(xg.shape, dtype=bool)
        mask[rows, cols] = inside_convex(xg[rows, cols], yg[rows, cols], box)
        inside.append(mask)
    in_a, in_b = inside
    union = np.logical_or(in_a, in_b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(in_a, in_b).sum() / union)


def flood_components(binary: np.ndarray) -> list[set[tuple[int, int]]]:
    """8-connected components by BFS, in scan order of their first cell."""
    height, width = binary.shape
    seen = np.zeros_like(binary, dtype=bool)
    components = []
    for r in range(height):
        for c in range(width):
            if not binary[r, c] or seen[r, c]:
                continue
            group = set()
            queue = deque([(r, c)])
            seen[r, c] = True
            while queue:
                cr, cc = queue.popleft()
                group.add((cr, cc))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = cr + dr, cc + dc
                        if 0 <= nr < height and 0 <= nc < width:
                            if binary[nr, nc] and not seen[nr, nc]:
                                seen[nr, nc] = True
                                queue.append((nr, nc))
            components.append(group)
    return components
