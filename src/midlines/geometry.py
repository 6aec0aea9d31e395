"""Oriented boxes and their middle-line representation.

A box is stored as four corners. Its two midlines connect the midpoints of
opposite edges; together with an ordering convention they carry the same
information as the box, and they are what the dense maps actually regress.
A midline pair is only ever held as a row of 8 endpoint values: the
midlines of N boxes are one MidlineArrays from midline_arrays, and N pairs
are rebuilt into boxes at once by midline_boxes. box_to_midlines and
midlines_to_box are one-row calls of these two. Whether four corners make
a box is quad_rule, which runs unchanged on Python floats for one box and
on numpy columns for many; OrientedBox is the one place a single box is
checked, and it keeps its corners as Point2s, plain (x, y) named tuples.
Many boxes are held as one Boxes table of columns, whose rows read as
OrientedBox; decoder.Detections is a Boxes with one more column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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


def _non_finite_point(x: float, y: float) -> ValueError:
    return ValueError(f"non-finite point ({x}, {y})")


def check_finite(points: Iterable[tuple[float, float]]) -> None:
    """Raise the ValueError of the first (x, y) point that is not finite."""
    for x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise _non_finite_point(x, y)


class Point2(NamedTuple):
    """A 2D point in image coordinates (x right, y down), as OrientedBox keeps its corners."""

    x: float
    y: float


class _ShapeError(ValueError):
    """Four corners make no box; only OrientedBox's shape rule raises it."""


def signed_area(points: Sequence[tuple[float, float]]) -> float:
    """Shoelace signed area of a polygon given as (x, y) pairs, summed in corner order."""
    total = 0.0
    for i, (px, py) in enumerate(points):
        qx, qy = points[(i + 1) % len(points)]
        total += px * qy - qx * py
    return total / 2.0


# Why four corners make no box: the code quad_rule gives, 0 for a box.
ZERO_AREA, NON_FINITE_AREA, NON_CONVEX = 1, 2, 3
QUAD_MESSAGES = {ZERO_AREA: "zero-area box", NON_FINITE_AREA: "non-finite area", NON_CONVEX: "non-convex quad"}


def quad_area(x0, y0, x1, y1, x2, y2, x3, y3):
    """Shoelace signed area of the quad (x0, y0) .. (x3, y3), its terms added in corner order."""
    return ((((x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1)) + (x2 * y3 - x3 * y2)) + (x3 * y0 - x0 * y3)) / 2.0


def quad_rule(x0, y0, x1, y1, x2, y2, x3, y3):
    """Whether four corners make a box: (code, signed area).

    The code is 0 for a box, else the first rule the corners break: the area
    is zero (ZERO_AREA), the area is not finite (NON_FINITE_AREA), or the
    turns bend both ways, which a dart and a crossed bowtie do (NON_CONVEX).
    The turn at a corner is the cross product of the edges meeting there;
    collinear corners (a zero turn) are allowed. A NaN turn has no sign, and
    a NaN turn at the first corner allows the quad, as Python's min and max
    over the turns in corner order decide it.

    Only arithmetic and comparison operators are used, so the same code
    gives the same floats on Python floats for one quad and on (K,) numpy
    columns for K quads; callers on arrays silence numpy's overflow warnings.
    """
    area = quad_area(x0, y0, x1, y1, x2, y2, x3, y3)
    t0 = (x0 - x3) * (y1 - y0) - (y0 - y3) * (x1 - x0)
    t1 = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
    t2 = (x2 - x1) * (y3 - y2) - (y2 - y1) * (x3 - x2)
    t3 = (x3 - x2) * (y0 - y3) - (y3 - y2) * (x0 - x3)
    zero = area == 0.0
    non_finite = area - area != 0.0  # true for inf and NaN
    bent = (
        (t0 == t0)
        & ((t0 < 0.0) | (t1 < 0.0) | (t2 < 0.0) | (t3 < 0.0))
        & ((t0 > 0.0) | (t1 > 0.0) | (t2 > 0.0) | (t3 > 0.0))
    )
    # zero and non_finite exclude each other; bent counts only when both are false.
    return ZERO_AREA * zero + NON_FINITE_AREA * non_finite + NON_CONVEX * (bent > (zero | non_finite)), area


@dataclass(frozen=True)
class OrientedBox:
    """Convex quadrilateral with a class id, a score, and a difficult flag.

    Corners are normalized at construction so the shoelace signed area is
    positive; the first corner is kept first. Zero-area input is rejected,
    as is finite input whose area overflows, and so is any corner order
    whose turns bend both ways (a dart or a crossed bowtie), so every box is
    convex; collinear corners are allowed. The rule is quad_rule, the
    package's only statement of it; decode applies it to whole columns.

    The corners may be any four (x, y) pairs; they are kept as Point2s.
    Faults are reported in this order: a non-finite corner, a corner count
    other than 4, a negative class id, a score outside [0, 1], quad_rule's.
    """

    corners: tuple[Point2, Point2, Point2, Point2]
    class_id: int = 0
    score: float = 1.0
    difficult: bool = False

    def __post_init__(self):
        corners = tuple(self.corners)
        try:
            p0, p1, p2, p3 = corners
        except ValueError:
            check_finite(corners)
            raise ValueError(f"need 4 corners, got {len(corners)}") from None
        if not (type(p0) is type(p1) is type(p2) is type(p3) is Point2):
            p0, p1, p2, p3 = map(Point2._make, corners)
        code, area = quad_rule(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, p3.x, p3.y)
        if code:  # a non-finite corner gives a non-finite area, so it has a code
            check_finite(corners)
        if self.class_id < 0:
            raise ValueError(f"negative class id {self.class_id}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        if code:
            raise _ShapeError(QUAD_MESSAGES[code])
        object.__setattr__(self, "corners", (p0, p3, p2, p1) if area < 0.0 else (p0, p1, p2, p3))

    @property
    def area(self) -> float:
        return abs(signed_area(self.corners))

    def corner_array(self) -> list[float]:
        """Corners flattened to [x0, y0, x1, y1, x2, y2, x3, y3]."""
        return [v for p in self.corners for v in p]


# Why a midline pair makes or rebuilds no box: MidlineBoxes.fault, 0 for a
# pair that passes every midline rule.
ZERO_LENGTH, PARALLEL, NON_FINITE = 1, 2, 3
_FAULT_MESSAGES = {
    ZERO_LENGTH: "zero-length midline",
    PARALLEL: "parallel midlines span no area",
}


@dataclass(frozen=True)
class MidlineArrays:
    """The midlines of N boxes, row i for box i.

    ends:       (N, 8) endpoints l1.ep1, l1.ep2, l2.ep1, l2.ep2 as x, y, in
                order_midline_ends' order
    branch:     (N,) BranchId.index
    theta:      (N,) folded angle in degrees of the more vertical candidate,
                the value the branch window is tested on
    lengths:    (N, 2) lengths of l1 and l2
    centre:     (N, 2) endpoint mean (((e1 + e2) + e3) + e4) * 0.25, where
                the two midlines cross
    degenerate: (N,) a midline has zero length
    non_finite: (N,) a midpoint, a midline direction or the endpoint sum
                overflows
    bad_point:  (N, 2) on a non-finite row, the first point that overflows

    The other fields of a degenerate or non-finite row are meaningless.
    """

    ends: np.ndarray
    branch: np.ndarray
    theta: np.ndarray
    lengths: np.ndarray
    centre: np.ndarray
    degenerate: np.ndarray
    non_finite: np.ndarray
    bad_point: np.ndarray

    def error(self, i: int) -> Exception | None:
        """What box_to_midlines raises for row i; None for a row without fault."""
        if self.non_finite[i]:
            return _non_finite_point(*self.bad_point[i].tolist())
        return DegenerateBox(_FAULT_MESSAGES[ZERO_LENGTH]) if self.degenerate[i] else None

    def check(self) -> None:
        """Raise the error of the first faulty row."""
        faulty = self.degenerate | self.non_finite
        if faulty.any():
            raise self.error(int(np.argmax(faulty)))


def oriented_quads(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """quad_rule's code for each of N (N, 4, 2) quads, and the corners as OrientedBox
    keeps them: (0, 3, 2, 1) where the area is negative. A faulty row's are meaningless."""
    with np.errstate(over="ignore", invalid="ignore"):
        code, area = quad_rule(*corners.reshape(-1, 8).T)
    return code, np.where((area < 0.0)[:, None, None], corners[:, [0, 3, 2, 1]], corners)


@dataclass(frozen=True, eq=False)
class Boxes:
    """N boxes as columns, row i for box i; every row is a box quad_rule accepts.

    corners:   (N, 4, 2) float64, in the order OrientedBox keeps them
    class_id:  (N,) int64
    score:     (N,) float64
    difficult: (N,) bool

    len counts rows. Iterating gives each row as an OrientedBox, made from
    the columns in one tolist pass, and table[k] is iteration's row k. A
    subclass adds columns as fields after these four. == is identity.
    """

    corners: np.ndarray
    class_id: np.ndarray
    score: np.ndarray
    difficult: np.ndarray

    @classmethod
    def of(cls, boxes: Sequence[OrientedBox]) -> Boxes:
        """The table of a sequence of OrientedBox, in its order: the one conversion from rows."""
        xy = [v for box in boxes for p in box.corners for v in p]
        return cls(
            np.array(xy, dtype=np.float64).reshape(len(boxes), 4, 2),
            np.array([box.class_id for box in boxes], dtype=np.int64),
            np.array([box.score for box in boxes], dtype=np.float64),
            np.array([box.difficult for box in boxes], dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.corners)

    def __getitem__(self, k: int):
        (row,) = self.take(np.array([k]))
        return row

    def take(self, rows):
        """The table of the given rows: indices, a bool mask or a slice."""
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __iter__(self):
        columns = (self.corners.tolist(), self.class_id.tolist(), self.score.tolist(), self.difficult.tolist())
        for corners, class_id, score, difficult in zip(*columns):
            # A row passed quad_rule and was flipped as a column, so it skips
            # OrientedBox's checks: a flipped row's area could round differently.
            box = object.__new__(OrientedBox)
            vars(box).update(
                corners=tuple(map(Point2._make, corners)), class_id=class_id, score=score, difficult=difficult
            )
            yield box


_NEXT = np.array([1, 2, 3, 0])  # the corner after each corner of a quad


# Sort keys per endpoint, as (x, -y): l1's ep1 has the larger x, then the
# larger -y; l2's has the larger -y, then the larger x. Rows of _ORDER_KEYS
# pick, for l1 and l2, the first key of ep1 and of ep2, then the tie keys.
_KEY_SIGNS = np.array([1.0, -1.0] * 4)
_ORDER_KEYS = np.array([[0, 5], [2, 7], [1, 4], [3, 6]])


def order_midline_ends(ends: np.ndarray) -> np.ndarray:
    """N rows of endpoints l1.ep1, l1.ep2, l2.ep1, l2.ep2 as x, y, in the package's order.

    l1 runs from the larger x, ties broken by the smaller y; l2 from the
    smaller y, ties broken by the larger x. This is the only statement of
    that order. Returns a new (N, 8) array; a row already in order comes
    back unchanged.
    """
    flat = np.asarray(ends, dtype=np.float64).reshape(-1, 8)
    key1, key2, tie1, tie2 = (flat * _KEY_SIGNS)[:, _ORDER_KEYS].transpose(1, 0, 2)
    keep = np.where(key1 == key2, tie1 >= tie2, key1 > key2)  # (N, line)
    lines = flat.reshape(-1, 2, 2, 2)  # line, endpoint, x/y
    return np.where(keep[:, :, None, None], lines, lines[:, :, ::-1]).reshape(-1, 8)


def _map(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fn over paired elements of two equal-shape arrays.

    numpy's arctan2 and hypot kernels round differently from math.atan2 and
    math.hypot on a few inputs. Branch choice and line order compare these
    values with ties, and the recorded benchmark references were made with
    the math module, so its functions are mapped over the elements.
    """
    out = list(map(fn, a.ravel().tolist(), b.ravel().tolist()))
    return np.array(out, dtype=np.float64).reshape(a.shape)


def midline_arrays(
    corners: np.ndarray,
    low_deg: float = BRANCH_LOW_DEG,
    high_deg: float = BRANCH_HIGH_DEG,
) -> MidlineArrays:
    """Split N boxes, given as (N, 4, 2) corners, into ordered midlines.

    Candidate A joins the midpoints of edges p0p1 and p2p3, candidate B
    those of p1p2 and p3p0. The branch is HORIZONTAL when the folded angle
    of the more vertical candidate lies strictly inside (low_deg, high_deg),
    and ORIENTED otherwise, boundary included; A is the more vertical one
    on a tie. On the horizontal branch l1 is the more horizontal candidate,
    on the oriented branch the longer one; ties pick A. Endpoints are put
    in order by order_midline_ends.
    """
    p = np.asarray(corners, dtype=np.float64).reshape(-1, 4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        mids = (p + p[:, _NEXT]) / 2.0  # edge midpoints m01, m12, m23, m30
        cand = mids[:, [[0, 2], [1, 3]]]  # (N, candidate A/B, endpoint, xy)
        d = cand[:, :, 0] - cand[:, :, 1]
    length = _map(math.hypot, d[..., 0], d[..., 1])
    angle = np.degrees(_map(math.atan2, d[..., 1], d[..., 0])) % 180.0
    off = np.abs(angle - 90.0)
    a_vertical = off[:, 0] <= off[:, 1]
    theta = np.where(a_vertical, angle[:, 0], angle[:, 1])
    horizontal = (low_deg < theta) & (theta < high_deg)
    a_first = np.where(horizontal, off[:, 0] >= off[:, 1], length[:, 0] >= length[:, 1])
    lengths = np.where(a_first[:, None], length, length[:, ::-1])
    ends = order_midline_ends(np.where(a_first[:, None, None, None], cand, cand[:, ::-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.accumulate(ends.reshape(-1, 4, 2), axis=1)  # left to right: e1, e1+e2, ...

    # The scalar rule builds the midpoints of A and B, then A's direction,
    # A's length, B's direction, B's length and the running endpoint sum,
    # and stops at the first point that overflows or length that is zero.
    rows = np.arange(len(p))
    zero = length == 0.0
    points = np.concatenate((mids[:, [0, 2, 1, 3]], d, sums[:, 1:]), axis=1)
    overflow = ~np.isfinite(points).all(axis=-1)
    overflow[:, 5] &= ~zero[:, 0]
    overflow[:, 6:] &= ~zero.any(axis=1, keepdims=True)
    non_finite = overflow.any(axis=1)
    return MidlineArrays(
        ends=ends,
        branch=np.where(horizontal, BranchId.HORIZONTAL.index, BranchId.ORIENTED.index),
        theta=theta,
        lengths=lengths,
        centre=sums[:, 3] * 0.25,
        degenerate=~non_finite & zero.any(axis=1),
        non_finite=non_finite,
        bad_point=points[rows, np.argmax(overflow, axis=1)],
    )


_BRANCHES = tuple(BranchId)  # indexed by BranchId.index


def box_to_midlines(
    box: OrientedBox,
    low_deg: float = BRANCH_LOW_DEG,
    high_deg: float = BRANCH_HIGH_DEG,
) -> MidlineArrays:
    """A box's midlines: the one-row MidlineArrays of midline_arrays.

    Raises the row's error, so the row returned has no fault.
    """
    lines = midline_arrays(Boxes.of([box]).corners, low_deg, high_deg)
    lines.check()
    return lines


@dataclass(frozen=True)
class MidlineBoxes:
    """The boxes rebuilt from N midline pairs, row i from pair i.

    corners: (N, 4, 2) c+u+v, c+u-v, c-u-v, c-u+v, in this order before
             OrientedBox orients them
    fault:   (N,) 0 when the row passes the midline rules, else the first
             one it breaks: ZERO_LENGTH, PARALLEL or NON_FINITE
    points:  (N, 17, 2) every point the rebuild makes, in the order it
             makes them; on a NON_FINITE row the first non-finite one is
             the point that overflows

    The corners of a faulty row are meaningless. Whether the corners of a
    row with fault 0 make a box is OrientedBox's shape rule, which
    midlines_to_box applies.
    """

    corners: np.ndarray
    fault: np.ndarray
    points: np.ndarray

    def error(self, i: int) -> Exception | None:
        """What midlines_to_box raises for row i by the midline rules; None for no fault."""
        fault = int(self.fault[i])
        if fault == NON_FINITE:
            points = self.points[i]
            return _non_finite_point(*points[np.argmax(~np.isfinite(points).all(axis=1))].tolist())
        return DegenerateBox(_FAULT_MESSAGES[fault]) if fault else None


# The checks midline_boxes makes, in the order the scalar steps make them,
# as (fault, column of its `failed` array). Columns 0-16 say that a point
# overflows, in MidlineBoxes.points' order: the four endpoints, l1's and
# l2's extents, u and v (finite when the extents are), the running
# endpoint sum, then c+u, two corners, c-u and two corners. Columns 17-20
# say that l1's extent, l2's extent, u or v is zero; 21 is the parallel
# test, and 22 is always true, which leaves fault 0.
_CHECKS = (
    *((NON_FINITE, k) for k in range(5)),
    (ZERO_LENGTH, 17),
    (NON_FINITE, 5),
    (ZERO_LENGTH, 18),
    *((NON_FINITE, k) for k in (8, 9, 10)),
    (ZERO_LENGTH, 19),  # u or v rounds to zero
    (ZERO_LENGTH, 20),
    (PARALLEL, 21),
    *((NON_FINITE, k) for k in range(11, 17)),
    (0, 22),
)
_CHECK_FAULT, _CHECK_COLUMN = (np.array(column) for column in zip(*_CHECKS))
_U_SIGNS = np.array([[1.0], [1.0], [-1.0], [-1.0]])  # c + u * -1 is c - u, bit for bit
_V_SIGNS = np.array([[1.0], [-1.0], [-1.0], [1.0]])


def midline_boxes(ends: np.ndarray) -> MidlineBoxes:
    """Rebuild N boxes from midline endpoints given as (N, 8) rows.

    Row i holds both endpoints of l1, then both of l2, as x, y, in either
    order along each line; order_midline_ends puts them in the package's
    order. With c the endpoint mean (((e1 + e2) + e3) + e4) * 0.25, u half
    of l1's directed extent and v half of l2's, the corners are (c+u)+v,
    (c+u)-v, (c-u)-v and (c-u)+v. The checks run in this order, and each
    row records the first that fails: an endpoint is not finite; l1's
    extent overflows, or is zero (ZERO_LENGTH); the same for l2; the
    endpoint sum overflows; u or v rounds to zero (ZERO_LENGTH); u x v is
    zero (PARALLEL); a corner overflows. An overflow is NON_FINITE. Every
    value is the float a scalar evaluation of these steps gives, bit for
    bit. Whether the corners make a box is left to OrientedBox.
    """
    raw = np.asarray(ends, dtype=np.float64).reshape(-1, 4, 2)
    e = order_midline_ends(raw).reshape(-1, 4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        extent = e[:, 0::2] - e[:, 1::2]  # l1's, then l2's
        half = extent * 0.5  # u, then v
        sums = np.add.accumulate(e, axis=1)  # adds left to right: e1, e1+e2, ...
        c_u = sums[:, 3:] * 0.25 + half[:, :1] * _U_SIGNS  # c+u, c+u, c-u, c-u
        corners = c_u + half[:, 1:] * _V_SIGNS
        points = np.concatenate((
            raw, extent, half, sums[:, 1:],
            c_u[:, :1], corners[:, :2], c_u[:, 2:3], corners[:, 2:],
        ), axis=1)
        products = half[:, 0] * half[:, 1, ::-1]  # u.x * v.y, u.y * v.x
        parallel = products[:, :1] - products[:, 1:] == 0.0
    failed = np.concatenate((
        ~np.isfinite(points).all(axis=2),
        (points[:, 4:8] == 0.0).all(axis=2),  # l1's and l2's extents, u, v
        parallel,
        np.ones_like(parallel),
    ), axis=1)
    return MidlineBoxes(
        corners=corners,
        fault=_CHECK_FAULT[np.argmax(failed[:, _CHECK_COLUMN], axis=1)],
        points=points,
    )


def midlines_to_box(
    ends,
    class_id: int = 0,
    score: float = 1.0,
    difficult: bool = False,
) -> OrientedBox:
    """Rebuild a box from one midline pair's 8 endpoint values: one row of midline_boxes.

    The values are l1's endpoints, then l2's, as x, y, in either order along
    each line, as box_to_midlines(box).ends holds them. A row the midline
    rules reject raises its MidlineBoxes.error, and rebuilt corners that
    fail OrientedBox's shape rule, as near-parallel lines can give, raise
    DegenerateBox("rebuilt corners: <reason>").
    """
    rebuilt = midline_boxes(np.asarray(ends, dtype=np.float64).reshape(1, 8))
    err = rebuilt.error(0)
    if err is not None:
        raise err
    try:
        return OrientedBox(rebuilt.corners[0].tolist(), class_id=class_id, score=score, difficult=difficult)
    except _ShapeError as shape:
        raise DegenerateBox(f"rebuilt corners: {shape}") from shape


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
    hw, hh = width / 2, height / 2
    offsets = ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
    corners = [(cx + dx * ca - dy * sa, cy + dx * sa + dy * ca) for dx, dy in offsets]
    return OrientedBox(corners, class_id=class_id, score=score, difficult=difficult)

