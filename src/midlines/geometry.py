"""Oriented boxes and their middle-line representation.

A box is stored as four corners. Its two midlines connect the midpoints of
opposite edges; together with an ordering convention they carry the same
information as the box, and they are what the dense maps actually regress.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateBox

# Objects whose near-vertical midline sits inside this open angle window
# (degrees, measured from the +x axis) go to the horizontal branch.
BRANCH_LOW_DEG = 88.0
BRANCH_HIGH_DEG = 92.0


class BranchId(Enum):
    """Output branch for an object: near-axis-aligned vs everything else."""

    HORIZONTAL = 1
    ORIENTED = 2

    @property
    def index(self) -> int:
        """Zero-based array index for this branch."""
        return self.value - 1


@dataclass(frozen=True)
class Point2:
    """Immutable 2D point in image coordinates (x right, y down)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def __add__(self, other: Point2) -> Point2:
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Point2) -> Point2:
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> Point2:
        return Point2(self.x * factor, self.y * factor)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def midpoint(a: Point2, b: Point2) -> Point2:
    return Point2((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def cross(a: Point2, b: Point2) -> float:
    return a.x * b.y - a.y * b.x


def dot(a: Point2, b: Point2) -> float:
    return a.x * b.x + a.y * b.y


@dataclass(frozen=True)
class Segment:
    """Directed segment from ep1 to ep2."""

    ep1: Point2
    ep2: Point2

    @property
    def length(self) -> float:
        return (self.ep1 - self.ep2).norm()

    @property
    def direction(self) -> Point2:
        return self.ep1 - self.ep2


def _angle_deg(d: Point2) -> float:
    """Angle of a direction in degrees, folded into [0, 180)."""
    return math.degrees(math.atan2(d.y, d.x)) % 180.0


def _signed_area(corners: tuple[Point2, ...]) -> float:
    """Shoelace signed area in the stored coordinate system."""
    total = 0.0
    for i, p in enumerate(corners):
        q = corners[(i + 1) % len(corners)]
        total += p.x * q.y - q.x * p.y
    return total / 2.0


def _turns(corners: tuple[Point2, ...]) -> list[float]:
    """Cross product of the two edges meeting at each corner, in corner order."""
    out = []
    for i, b in enumerate(corners):
        a, c = corners[i - 1], corners[(i + 1) % len(corners)]
        out.append((b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x))
    return out


class _BadShape(ValueError):
    """Corners that enclose no area or do not bound a convex region."""


@dataclass(frozen=True)
class OrientedBox:
    """Convex quadrilateral with a class id, a score, and a difficult flag.

    Corners are normalized at construction so the shoelace signed area is
    positive; the first corner is kept first. Zero-area input is rejected,
    and so is any corner order whose turns bend both ways (a dart or a
    crossed bowtie), so every box is convex; collinear corners are allowed.
    """

    corners: tuple[Point2, Point2, Point2, Point2]
    class_id: int = 0
    score: float = 1.0
    difficult: bool = False

    def __post_init__(self):
        corners = tuple(self.corners)
        if len(corners) != 4:
            raise ValueError(f"need 4 corners, got {len(corners)}")
        if self.class_id < 0:
            raise ValueError(f"negative class id {self.class_id}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        area = _signed_area(corners)
        if area == 0.0:
            raise _BadShape("zero-area box")
        turns = _turns(corners)
        if min(turns) < 0.0 < max(turns):
            raise _BadShape("non-convex quad")
        if area < 0.0:
            corners = (corners[0], corners[3], corners[2], corners[1])
        object.__setattr__(self, "corners", corners)

    @property
    def area(self) -> float:
        return abs(_signed_area(self.corners))

    def corner_array(self) -> list[float]:
        """Corners flattened to [x0, y0, x1, y1, x2, y2, x3, y3]."""
        out: list[float] = []
        for p in self.corners:
            out.extend((p.x, p.y))
        return out


@dataclass(frozen=True)
class MidlinePair:
    """The two ordered midlines of a box plus its branch assignment.

    Endpoint order is canonical: l1 runs from the larger-x endpoint to the
    smaller (ties broken by smaller y first), l2 from the smaller-y endpoint
    to the larger (ties broken by larger x first). Both lines must have
    strictly positive length.
    """

    l1: Segment
    l2: Segment
    branch: BranchId

    def __post_init__(self):
        if self.l1.length == 0.0 or self.l2.length == 0.0:
            raise DegenerateBox("zero-length midline")
        a, b = self.l1.ep1, self.l1.ep2
        if (a.x, -a.y) < (b.x, -b.y):
            raise ValueError("l1 endpoints out of order")
        c, d = self.l2.ep1, self.l2.ep2
        if (c.y, -c.x) > (d.y, -d.x):
            raise ValueError("l2 endpoints out of order")


def _order_l1(a: Point2, b: Point2) -> Segment:
    """Order so ep1 has the larger x, ties broken by the smaller y."""
    if (a.x, -a.y) >= (b.x, -b.y):
        return Segment(a, b)
    return Segment(b, a)


def _order_l2(a: Point2, b: Point2) -> Segment:
    """Order so ep1 has the smaller y, ties broken by the larger x."""
    if (a.y, -a.x) <= (b.y, -b.x):
        return Segment(a, b)
    return Segment(b, a)


def _midline_candidates(box: OrientedBox) -> tuple[tuple[Point2, Point2], tuple[Point2, Point2]]:
    """Candidate A joins midpoints of edges p0p1/p2p3, candidate B the other pair."""
    p0, p1, p2, p3 = box.corners
    cand_a = (midpoint(p0, p1), midpoint(p2, p3))
    cand_b = (midpoint(p1, p2), midpoint(p3, p0))
    return cand_a, cand_b


def classify_branch(
    box: OrientedBox,
    low_deg: float = BRANCH_LOW_DEG,
    high_deg: float = BRANCH_HIGH_DEG,
) -> BranchId:
    """Assign a box to a branch by the angle of its more vertical midline.

    The angle is measured in degrees from the +x axis, folded into [0, 180).
    Strictly inside the open interval (low_deg, high_deg) means HORIZONTAL;
    everything else, boundary included, is ORIENTED.
    """
    (a1, a2), (b1, b2) = _midline_candidates(box)
    if (a1 - a2).norm() == 0.0 or (b1 - b2).norm() == 0.0:
        raise DegenerateBox("zero-length midline")
    ang_a = _angle_deg(a1 - a2)
    ang_b = _angle_deg(b1 - b2)
    vertical = min(abs(ang_a - 90.0), abs(ang_b - 90.0))
    theta = ang_a if abs(ang_a - 90.0) == vertical else ang_b
    if low_deg < theta < high_deg:
        return BranchId.HORIZONTAL
    return BranchId.ORIENTED


def box_to_midlines(
    box: OrientedBox,
    low_deg: float = BRANCH_LOW_DEG,
    high_deg: float = BRANCH_HIGH_DEG,
) -> MidlinePair:
    """Split a box into its two ordered midlines.

    On the horizontal branch l1 is the more horizontal candidate; on the
    oriented branch l1 is the longer one. Ties pick candidate A (the line
    through the midpoints of edges p0p1 and p2p3).
    """
    branch = classify_branch(box, low_deg, high_deg)
    cand_a, cand_b = _midline_candidates(box)
    ang_a = _angle_deg(cand_a[0] - cand_a[1])
    ang_b = _angle_deg(cand_b[0] - cand_b[1])
    if branch is BranchId.HORIZONTAL:
        a_first = abs(ang_a - 90.0) >= abs(ang_b - 90.0)
    else:
        len_a = (cand_a[0] - cand_a[1]).norm()
        len_b = (cand_b[0] - cand_b[1]).norm()
        a_first = len_a >= len_b
    first, second = (cand_a, cand_b) if a_first else (cand_b, cand_a)
    return MidlinePair(l1=_order_l1(*first), l2=_order_l2(*second), branch=branch)


def intersection_point(pair: MidlinePair) -> Point2:
    """Mean of the four endpoints; for midlines of a box this is its center."""
    s = pair.l1.ep1 + pair.l1.ep2 + pair.l2.ep1 + pair.l2.ep2
    return s.scaled(0.25)


def midlines_to_box(
    pair: MidlinePair,
    class_id: int = 0,
    score: float = 1.0,
    difficult: bool = False,
) -> OrientedBox:
    """Rebuild the box spanned by a midline pair.

    With c the endpoint mean, u half of l1's directed extent and v half of
    l2's, the corners are c+u+v, c+u-v, c-u-v, c-u+v. Raises DegenerateBox
    when either half-extent vanishes, the two lines are parallel, or they
    are so close to parallel that the rounded corners fail OrientedBox's
    shape rule.
    """
    c = intersection_point(pair)
    u = pair.l1.direction.scaled(0.5)
    v = pair.l2.direction.scaled(0.5)
    if u.norm() == 0.0 or v.norm() == 0.0:
        raise DegenerateBox("zero-length midline")
    if cross(u, v) == 0.0:
        raise DegenerateBox("parallel midlines span no area")
    corners = (c + u + v, c + u - v, c - u - v, c - u + v)
    try:
        return OrientedBox(corners, class_id=class_id, score=score, difficult=difficult)
    except _BadShape as err:
        raise DegenerateBox(f"rebuilt corners: {err}") from None


def rectangle(
    cx: float,
    cy: float,
    width: float,
    height: float,
    angle_deg: float = 0.0,
    class_id: int = 0,
    score: float = 1.0,
    difficult: bool = False,
) -> OrientedBox:
    """Axis-aligned width x height rectangle at (cx, cy), rotated by angle_deg."""
    ca = math.cos(math.radians(angle_deg))
    sa = math.sin(math.radians(angle_deg))
    corners = []
    for dx, dy in ((-width / 2, -height / 2), (width / 2, -height / 2),
                   (width / 2, height / 2), (-width / 2, height / 2)):
        corners.append(Point2(cx + dx * ca - dy * sa, cy + dx * sa + dy * ca))
    return OrientedBox(tuple(corners), class_id=class_id, score=score, difficult=difficult)

