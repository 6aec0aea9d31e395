"""
Boxes and their middle lines
============================

A tour of the core representation: every oriented box is equivalent to an
ordered pair of middle lines plus a branch flag, and the mapping runs both
ways without loss.
"""

import math

import numpy as np

from midlines.geometry import (
    BranchId,
    box_to_midlines,
    midlines_to_box,
    rectangle,
)


def fmt(x, y):
    return f"({x:.2f}, {y:.2f})"


def vertex_error(box, rebuilt):
    """Worst distance from a corner of box to the nearest corner of rebuilt."""
    return max(
        min(math.hypot(c.x - r.x, c.y - r.y) for r in rebuilt.corners) for c in box.corners
    )


def show(title, box):
    # The midlines of a box are one row: 8 endpoint values (l1's two
    # endpoints, then l2's, as x, y), a branch index, lengths and the centre.
    lines = box_to_midlines(box)
    x1, y1, x2, y2, x3, y3, x4, y4 = lines.ends[0].tolist()
    len1, len2 = lines.lengths[0].tolist()
    print(f"--- {title}")
    print(f"corners      {[(round(p.x, 2), round(p.y, 2)) for p in box.corners]}")
    print(f"branch       {BranchId(int(lines.branch[0]) + 1).name}")
    print(f"l1           {fmt(x1, y1)} -> {fmt(x2, y2)}  (length {len1:.2f})")
    print(f"l2           {fmt(x3, y3)} -> {fmt(x4, y4)}  (length {len2:.2f})")
    print(f"intersection {fmt(*lines.centre[0].tolist())}")
    rebuilt = midlines_to_box(lines.ends)
    print(f"round-trip vertex error {vertex_error(box, rebuilt):.2e}")
    print()


# An axis-aligned box: the near-vertical middle line puts it on the
# horizontal branch, and l1 is the more horizontal of the two lines.
show("axis-aligned 40x16", rectangle(50, 30, 40, 16))

# Rotate well away from the axes and the branch flips; now l1 is simply
# the longer middle line, whatever its direction.
show("same box at 35 degrees", rectangle(50, 30, 40, 16, 35))

# Just short of the 88..92 degree window the box stays oriented; inside
# the window the vertical line is considered upright and branch 1 takes it.
show("at 87 degrees (oriented)", rectangle(50, 30, 40, 16, 87))
show("at 89 degrees (horizontal)", rectangle(50, 30, 40, 16, 89))

# The endpoint order is part of the representation: l1 starts at its
# larger-x endpoint, l2 at its smaller-y endpoint. That makes the eight
# regression targets unambiguous no matter how the corners were listed.

# Round-trip precision over a big random batch:
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    box = rectangle(
        rng.uniform(-100, 100), rng.uniform(-100, 100),
        rng.uniform(1, 80), rng.uniform(1, 80), rng.uniform(0, 360),
    )
    worst = max(worst, vertex_error(box, midlines_to_box(box_to_midlines(box).ends)))
print(f"2000 random rectangles, worst round-trip vertex error: {worst:.2e}")
