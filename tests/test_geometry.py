import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from midlines.errors import DegenerateBox
from midlines.geometry import (
    Boxes,
    BranchId,
    OrientedBox,
    Point2,
    box_to_midlines,
    midline_arrays,
    midlines_to_box,
    order_midline_ends,
    quad_rule,
    rectangle,
)
from midlines.ingest import AnnotatedImage

RECT = OrientedBox((Point2(70, 80), Point2(130, 80), Point2(130, 120), Point2(70, 120)))
SQUARE_45 = OrientedBox((Point2(100, 60), Point2(140, 100), Point2(100, 140), Point2(60, 100)))


def corners_xy(box):
    return [(p.x, p.y) for p in box.corners]


def folded_deg(dx, dy):
    """Angle of a direction in degrees, folded into [0, 180)."""
    return math.degrees(math.atan2(dy, dx)) % 180.0


def candidate_angles(box):
    """Folded angles of midline candidates A (p0p1 to p2p3) and B (p1p2 to p3p0)."""
    p0, p1, p2, p3 = box.corners
    out = []
    for a, b, c, d in ((p0, p1, p2, p3), (p1, p2, p3, p0)):
        dx = (a.x + b.x) / 2.0 - (c.x + d.x) / 2.0
        dy = (a.y + b.y) / 2.0 - (c.y + d.y) / 2.0
        out.append(folded_deg(dx, dy))
    return out


def assert_vertex_sets_close(a, b, tol=1e-9):
    """Greedy nearest matching between two 4-point sets."""
    remaining = list(b)
    worst = 0.0
    for p in a:
        dists = [math.hypot(p[0] - q[0], p[1] - q[1]) for q in remaining]
        i = dists.index(min(dists))
        worst = max(worst, dists[i])
        remaining.pop(i)
    assert worst < tol, f"vertex sets differ by {worst}"


# --- branch classification ---------------------------------------------------


def branch_of(box, low_deg=88.0, high_deg=92.0):
    """The branch midline_arrays gives one box."""
    return BranchId(int(midline_arrays(Boxes.of([box]).corners, low_deg, high_deg).branch[0]) + 1)


def test_axis_aligned_rect_is_horizontal():
    assert branch_of(RECT) is BranchId.HORIZONTAL


def test_square_at_45_is_oriented():
    assert branch_of(SQUARE_45) is BranchId.ORIENTED


def test_branch_interval_is_open_at_both_ends():
    # Measure the exact folded angle this box presents, then use it as the
    # bound: a value sitting exactly on the boundary must stay ORIENTED.
    box = rectangle(100, 100, 60, 30, angle_deg=-2.0)
    angles = sorted(candidate_angles(box), key=lambda t: abs(t - 90))
    theta = angles[0]
    assert 87.9 < theta < 88.1
    assert branch_of(box, low_deg=theta, high_deg=92.0) is BranchId.ORIENTED
    below = math.nextafter(theta, 0.0)
    assert branch_of(box, low_deg=below, high_deg=92.0) is BranchId.HORIZONTAL

    box_hi = rectangle(100, 100, 60, 30, angle_deg=2.0)
    angles = sorted(candidate_angles(box_hi), key=lambda t: abs(t - 90))
    theta_hi = angles[0]
    assert 91.9 < theta_hi < 92.1
    assert branch_of(box_hi, low_deg=88.0, high_deg=theta_hi) is BranchId.ORIENTED
    above = math.nextafter(theta_hi, 180.0)
    assert branch_of(box_hi, low_deg=88.0, high_deg=above) is BranchId.HORIZONTAL


def test_vertical_rect_is_horizontal_branch():
    # Tall axis-aligned rect: its long midline is exactly vertical (90 deg).
    box = rectangle(50, 50, 20, 80)
    assert branch_of(box) is BranchId.HORIZONTAL


@given(angle=st.floats(min_value=0.0, max_value=180.0, exclude_max=True))
@settings(max_examples=150)
def test_branch_totality_matches_angle_window(angle):
    box = rectangle(0.0, 0.0, 40.0, 12.0, angle_deg=angle)
    theta = min(candidate_angles(box), key=lambda t: abs(t - 90.0))
    expected = BranchId.HORIZONTAL if 88.0 < theta < 92.0 else BranchId.ORIENTED
    assert branch_of(box) is expected


# --- box_to_midlines ----------------------------------------------------------


def test_rect_midlines_match_hand_values():
    lines = box_to_midlines(RECT)
    assert lines.branch.tolist() == [BranchId.HORIZONTAL.index]
    # l1's two endpoints, then l2's, as x, y
    assert lines.ends.tolist() == [[130, 100, 70, 100, 100, 80, 100, 120]]


def test_square_45_tie_picks_first_candidate():
    # Both midlines have equal length; candidate A must become l1.
    lines = box_to_midlines(SQUARE_45)
    assert lines.branch.tolist() == [BranchId.ORIENTED.index]
    assert lines.ends.tolist() == [[120, 80, 80, 120, 80, 80, 120, 120]]


def test_oriented_branch_puts_longer_line_first():
    box = rectangle(0, 0, 80, 20, angle_deg=30)
    lines = box_to_midlines(box)
    assert lines.branch.tolist() == [BranchId.ORIENTED.index]
    (l1, l2), = lines.lengths.tolist()
    assert l1 > l2


@st.composite
def random_rectangles(draw):
    cx = draw(st.floats(min_value=-500, max_value=500))
    cy = draw(st.floats(min_value=-500, max_value=500))
    w = draw(st.floats(min_value=1.0, max_value=300.0))
    h = draw(st.floats(min_value=1.0, max_value=300.0))
    ang = draw(st.floats(min_value=0.0, max_value=360.0))
    return rectangle(cx, cy, w, h, angle_deg=ang)


@given(box=random_rectangles())
@settings(max_examples=200)
def test_endpoint_ordering_invariants(box):
    lines = box_to_midlines(box)
    x1, y1, x2, y2, x3, y3, x4, y4 = lines.ends[0].tolist()
    assert x1 >= x2
    if x1 == x2:
        assert y1 <= y2
    assert y3 <= y4
    if y3 == y4:
        assert x3 >= x4
    assert (lines.lengths > 0).all()


@given(box=random_rectangles())
@settings(max_examples=200)
def test_rectangle_round_trip_is_exact(box):
    rebuilt = midlines_to_box(box_to_midlines(box).ends)
    assert_vertex_sets_close(corners_xy(box), corners_xy(rebuilt), tol=1e-9)


def scalar_midlines(box, low=88.0, high=92.0):
    """The midline rule in Python floats, one box at a time: (ends, branch index, theta)."""
    p = box.corners
    cands = []
    for a, b, c, d in ((p[0], p[1], p[2], p[3]), (p[1], p[2], p[3], p[0])):
        e1 = ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
        e2 = ((c.x + d.x) / 2.0, (c.y + d.y) / 2.0)
        dx, dy = e1[0] - e2[0], e1[1] - e2[1]
        cands.append((e1, e2, math.hypot(dx, dy), folded_deg(dx, dy)))
    a, b = cands
    off_a, off_b = abs(a[3] - 90.0), abs(b[3] - 90.0)
    theta = a[3] if off_a <= off_b else b[3]
    horizontal = low < theta < high
    a_first = off_a >= off_b if horizontal else a[2] >= b[2]
    (p1, p2, *_), (q1, q2, *_) = (a, b) if a_first else (b, a)
    if (p1[0], -p1[1]) < (p2[0], -p2[1]):
        p1, p2 = p2, p1
    if (q1[1], -q1[0]) > (q2[1], -q2[0]):
        q1, q2 = q2, q1
    return [*p1, *p2, *q1, *q2], 0 if horizontal else 1, theta


@given(
    boxes=st.lists(
        st.tuples(
            random_rectangles(),
            st.sampled_from([None, 0.0, 90.0, 2.0, -2.0, 45.0]),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=100)
def test_midline_arrays_match_the_scalar_rule_row_by_row(boxes):
    # Squares (tied candidates) and the angles at the branch bounds included.
    shapes = []
    for box, angle, square in boxes:
        if angle is not None:
            box = rectangle(box.corners[0].x, box.corners[0].y, 30.0, 30.0 if square else 12.0, angle)
        shapes.append(box)
    lines = midline_arrays(Boxes.of(shapes).corners)
    assert not (lines.degenerate | lines.non_finite).any()
    for i, box in enumerate(shapes):
        ends, branch, theta = scalar_midlines(box)
        assert lines.ends[i].tolist() == ends
        assert lines.branch[i] == branch
        assert lines.theta[i] == theta  # bit for bit: branch choice compares it
        x1, y1, x2, y2, x3, y3, x4, y4 = ends
        assert lines.lengths[i].tolist() == [math.hypot(x1 - x2, y1 - y2), math.hypot(x3 - x4, y3 - y4)]
        assert lines.centre[i].tolist() == [(((x1 + x2) + x3) + x4) * 0.25, (((y1 + y2) + y3) + y4) * 0.25]
        one = box_to_midlines(box)
        for name in ("ends", "branch", "theta", "lengths", "centre"):
            assert getattr(one, name).tolist() == [getattr(lines, name)[i].tolist()]


# --- the intersection point ------------------------------------------------------


def solve_line_crossing(ends) -> tuple[float, float]:
    """Independent oracle: intersect the two infinite lines through l1's and l2's endpoints."""
    x1, y1, x2, y2, x3, y3, x4, y4 = ends
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    px = ((x1 * y2 - y1 * x2) * (x3 - x4) - (x1 - x2) * (x3 * y4 - y3 * x4)) / den
    py = ((x1 * y2 - y1 * x2) * (y3 - y4) - (y1 - y2) * (x3 * y4 - y3 * x4)) / den
    return px, py


def test_intersection_point_of_rect_midlines():
    assert box_to_midlines(RECT).centre.tolist() == [[100, 100]]


def test_intersection_point_of_symmetric_endpoints_is_origin():
    box = OrientedBox((Point2(10, -5), Point2(10, 5), Point2(-10, 5), Point2(-10, -5)))
    lines = box_to_midlines(box)
    assert sorted(lines.ends[0].tolist()) == [-10, -5, 0, 0, 0, 0, 5, 10]
    assert lines.centre.tolist() == [[0, 0]]


@given(box=random_rectangles())
@settings(max_examples=150)
def test_intersection_point_lies_on_both_midlines(box):
    lines = box_to_midlines(box)
    (x, y), = lines.centre.tolist()
    px, py = solve_line_crossing(lines.ends[0].tolist())
    assert math.hypot(x - px, y - py) < 1e-9


# --- midlines_to_box ----------------------------------------------------------


def test_parallelogram_reconstruction_hand_values():
    box = midlines_to_box([10, 0, -10, 0, 2, -5, -2, 5])
    assert_vertex_sets_close(
        corners_xy(box), [(12, -5), (8, 5), (-12, 5), (-8, -5)], tol=1e-12
    )


def test_rect_reconstruction_hand_values():
    box = midlines_to_box(box_to_midlines(RECT).ends)
    assert_vertex_sets_close(
        corners_xy(box), [(130, 80), (130, 120), (70, 120), (70, 80)], tol=1e-12
    )


def test_coincident_endpoints_are_rejected():
    with pytest.raises(DegenerateBox, match="^zero-length midline$"):
        midlines_to_box([5, 5] * 4)


def test_parallel_midlines_are_rejected():
    with pytest.raises(DegenerateBox):
        midlines_to_box([10, 0, -10, 0, 5, 0, -5, 0])


def test_half_extent_that_underflows_is_zero_length():
    # l1 spans the smallest subnormal, so half of it rounds to 0: the
    # half-extent test fires before the parallel test.
    with pytest.raises(DegenerateBox, match="^zero-length midline$"):
        midlines_to_box([5e-324, 0, 0, 0, 0, -5, 0, 5])


def test_endpoints_in_either_order_rebuild_one_box():
    ends = [10, 0, -10, 0, 2, -5, -2, 5]
    box = midlines_to_box(ends)
    for swapped in ([-10, 0, 10, 0, 2, -5, -2, 5], [10, 0, -10, 0, -2, 5, 2, -5]):
        assert midlines_to_box(swapped) == box
    with pytest.raises(ValueError):
        midlines_to_box(ends + ends)  # one pair is 8 values


@st.composite
def random_midline_pairs(draw):
    """l1's endpoints, then l2's, in order, as x, y: 8 values.

    Keep the two half-extents well separated in length and clearly
    non-parallel so branch assignment and ordering stay unambiguous, and
    keep the more vertical line away from the horizontal-branch window so
    the rebuilt box stays on the oriented branch.
    """
    a = draw(st.floats(min_value=20.0, max_value=100.0))
    b = draw(st.floats(min_value=2.0, max_value=15.0))
    t1 = draw(st.floats(min_value=0.0, max_value=math.pi))
    skew = draw(st.floats(min_value=0.35, max_value=math.pi - 0.35))
    t2 = t1 + skew
    ux, uy = a * math.cos(t1), a * math.sin(t1)
    vx, vy = b * math.cos(t2), b * math.sin(t2)
    theta = min((folded_deg(ux, uy), folded_deg(vx, vy)), key=lambda t: abs(t - 90.0))
    assume(not 87.9 < theta < 92.1)
    return order_midline_ends([ux, uy, -ux, -uy, vx, vy, -vx, -vy])[0].tolist()


@given(ends=random_midline_pairs())
@settings(max_examples=150)
def test_pair_box_pair_round_trip(ends):
    again = box_to_midlines(midlines_to_box(ends))
    assert again.branch.tolist() == [BranchId.ORIENTED.index]
    got, want = again.ends[0].tolist(), ends
    for g, w in zip(sorted([got[:4], got[4:]]), sorted([want[:4], want[4:]])):
        for gv, wv in zip(g, w):
            assert abs(gv - wv) < 1e-9


# --- OrientedBox validation ---------------------------------------------------


def test_box_needs_four_corners():
    with pytest.raises(ValueError):
        OrientedBox((Point2(0, 0), Point2(1, 0), Point2(1, 1)))


def test_zero_area_box_is_rejected():
    with pytest.raises(ValueError):
        OrientedBox((Point2(0, 0), Point2(5, 0), Point2(10, 0), Point2(2, 0)))


def test_self_intersecting_box_is_rejected():
    with pytest.raises(ValueError):
        OrientedBox((Point2(0, 0), Point2(10, 0), Point2(0, 10), Point2(10, 10)))


def test_winding_is_normalized_keeping_first_corner():
    fwd = OrientedBox((Point2(0, 0), Point2(10, 0), Point2(10, 6), Point2(0, 6)))
    rev = OrientedBox((Point2(0, 0), Point2(0, 6), Point2(10, 6), Point2(10, 0)))
    assert corners_xy(rev) == corners_xy(fwd)
    assert rev.corners[0] == Point2(0, 0)


def test_score_and_class_are_validated():
    corners = (Point2(0, 0), Point2(10, 0), Point2(10, 6), Point2(0, 6))
    with pytest.raises(ValueError):
        OrientedBox(corners, score=1.5)
    with pytest.raises(ValueError):
        OrientedBox(corners, class_id=-1)


def test_non_finite_points_are_rejected():
    square = [(0.0, 0.0), (10.0, 0.0), (10.0, 6.0), (0.0, 6.0)]
    for k, point in ((1, (float("nan"), 0.0)), (3, (0.0, float("inf")))):
        corners = [*square[:k], point, *square[k + 1:]]
        message = re.escape(f"non-finite point {point}")
        with pytest.raises(ValueError, match=message):
            OrientedBox([Point2(*p) for p in corners])
        # A non-finite corner is reported before every other fault.
        with pytest.raises(ValueError, match=message):
            OrientedBox(corners[:k + 1], class_id=-1, score=2.0)


def test_corners_given_as_plain_pairs_are_kept_as_point2():
    pairs = [(0, 0), [10.0, 0.0], (10, 6), np.array([0.0, 6.0])]
    box = OrientedBox(pairs, class_id=1)
    assert all(type(p) is Point2 for p in box.corners)
    assert box.corners == ((0, 0), (10.0, 0.0), (10, 6), (0.0, 6.0))
    assert box == OrientedBox((Point2(0, 0), Point2(10, 0), Point2(10, 6), Point2(0, 6)), class_id=1)
    flipped = OrientedBox(pairs[::-1])
    assert flipped.corners == ((0.0, 6.0), (0, 0), (10.0, 0.0), (10, 6))
    assert all(type(p) is Point2 for p in flipped.corners)
    assert box.corner_array() == [0, 0, 10.0, 0.0, 10, 6, 0.0, 6.0] and box.area == 60.0


@pytest.mark.parametrize("corners", [
    [(-5e199, -5e199), (5e199, -5e199), (5e199, 5e199), (-5e199, 5e199)],
    [(0, 0), (1e200, 1e200), (1.5e200, 2e200), (0, 1e200)],
], ids=["area-inf", "area-nan"])
def test_finite_corners_whose_area_overflows_are_rejected(corners):
    # Each corner is finite, but the shoelace sum overflows to inf, or to
    # inf - inf; such a box would give a NaN IoU with itself.
    with pytest.raises(ValueError, match="non-finite area"):
        OrientedBox(tuple(Point2(x, y) for x, y in corners))
    with pytest.raises(ValueError, match="non-finite area"):
        rectangle(0, 0, 1e200, 1e200)


def test_convexity_helper():
    # A dart turns both ways without any two edges crossing, so no box
    # that reaches the overlap routine can be one.
    assert OrientedBox(RECT.corners) == RECT and OrientedBox(SQUARE_45.corners) == SQUARE_45
    for tip in (Point2(2, 2), Point2(3, 2)):
        corners = (Point2(0, 0), Point2(10, 1), tip, Point2(10, 10))
        for order in (corners, corners[::-1]):
            with pytest.raises(ValueError, match="non-convex"):
                OrientedBox(order)


def test_collinear_corners_are_allowed():
    # A triangle with a corner on one edge has a zero turn, not a reflex one.
    box = OrientedBox((Point2(0, 0), Point2(5, 0), Point2(10, 0), Point2(0, 10)))
    assert box.area == 50.0


def test_near_parallel_midlines_are_degenerate():
    # float32-exact offsets whose cross product is one unit in the last
    # place: the rebuilt corners round to a zero-area quad, which is a
    # degenerate regression rather than a bad argument.
    u = (0.6419510841369629, -0.3967475891113281)
    v = (1.038698673248291, -0.6419510841369629)
    ends = [(84.0 + dx, 128.0 + dy) for dx, dy in (u, (-u[0], -u[1]), v, (-v[0], -v[1]))]
    with pytest.raises(DegenerateBox, match="zero-area"):
        midlines_to_box(order_midline_ends([ends])[0])


# --- the quad rule on floats and on columns -----------------------------------

QUAD_MESSAGES = {1: "zero-area box", 2: "non-finite area", 3: "non-convex quad"}


def stated_rule(xy):
    """The quad rule as OrientedBox stated it on corner lists: (code, area)."""
    area = 0.0
    for i, (px, py) in enumerate(xy):
        qx, qy = xy[(i + 1) % 4]
        area += px * qy - qx * py
    area /= 2.0
    if area == 0.0:
        return 1, area
    if not math.isfinite(area):
        return 2, area
    turns = [
        (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        for (ax, ay), (bx, by), (cx, cy) in zip(xy[-1:] + xy[:-1], xy, xy[1:] + xy[:1])
    ]
    return (3 if min(turns) < 0.0 < max(turns) else 0), area


coords = st.floats(-1e3, 1e3, allow_nan=False)
points = st.tuples(coords, coords)


@st.composite
def quads(draw):
    """Four corners: a random quad, or one built to hit one rule or its edge."""
    kind = draw(st.sampled_from(["any", "collinear", "coincident", "dart", "bowtie", "huge", "nan-turns"]))
    if kind == "any":
        return [draw(points) for _ in range(4)]
    if kind == "collinear":
        (ax, ay), (dx, dy) = draw(points), draw(points)
        return [(ax + t * dx, ay + t * dy) for t in draw(st.lists(coords, min_size=4, max_size=4))]
    if kind == "coincident":
        corners = [draw(points) for _ in range(4)]
        i = draw(st.integers(0, 3))
        corners[i] = corners[draw(st.integers(0, 3))]
        return corners
    if kind == "dart":  # the third corner inside the triangle of the other three
        a, b, c = (draw(points) for _ in range(3))
        w = [draw(st.floats(0.01, 1.0)) for _ in range(3)]
        d = tuple(sum(wk * p[k] for wk, p in zip(w, (a, b, c))) / sum(w) for k in (0, 1))
        return [a, b, d, c]
    if kind == "bowtie":  # a rectangle with two corners swapped
        box = rectangle(*draw(points), draw(st.floats(1, 100)), draw(st.floats(1, 100)), draw(coords))
        p0, p1, p2, p3 = ((p.x, p.y) for p in box.corners)
        return [p0, p2, p1, p3]
    big = st.floats(1e150, 1.7e308) if kind == "huge" else st.sampled_from([1.7e308, 1e308, 0.0])
    if kind == "huge":  # areas or turns that overflow
        return [(draw(big) * draw(st.sampled_from([1, -1])), draw(big) * draw(st.sampled_from([1, -1])))
                for _ in range(4)]
    # x differences overflow while every area term stays finite: NaN turns, finite area
    tiny = st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, 2e-300])
    return [(draw(big) * draw(st.sampled_from([1, -1])), draw(tiny)) for _ in range(4)]


def hexed(values):
    return [float(v).hex() for v in values]


@given(st.lists(quads(), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_quad_rule_on_columns_is_the_float_rule_row_by_row(rows):
    flat = np.array([[v for corner in corners for v in corner] for corners in rows], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        codes, areas = quad_rule(*flat.T)
    assert codes.dtype.kind == "i" and codes.shape == areas.shape == (len(rows),)
    for corners, code, area in zip(rows, codes.tolist(), areas.tolist()):
        row_code, row_area = quad_rule(*[v for corner in corners for v in corner])
        assert (row_code, row_area.hex()) == (code, area.hex())  # bit for bit, -0.0 included
        stated_code, stated_area = stated_rule(list(corners))
        assert row_code == stated_code
        if row_code == 0:
            assert row_area == stated_area
        try:
            box = OrientedBox(tuple(Point2(x, y) for x, y in corners))
        except ValueError as err:
            assert code != 0
            assert str(err) == QUAD_MESSAGES[code]
        else:
            assert code == 0
            order = [0, 1, 2, 3] if area > 0.0 else [0, 3, 2, 1]
            assert corners_xy(box) == [tuple(corners[i]) for i in order]


def test_quad_rule_cases_by_hand():
    cases = [
        (0, [(0, 0), (4, 0), (4, 2), (0, 2)]),
        (1, [(0, 0), (5, 0), (10, 0), (2, 0)]),
        (2, [(-5e199, -5e199), (5e199, -5e199), (5e199, 5e199), (-5e199, 5e199)]),
        (3, [(0, 0), (10, 0), (0, 10), (12, 10)]),  # a bowtie whose lobes differ
        # Finite areas whose turns overflow to NaN: turns (nan, 0, inf, nan)
        # allow the quad, turns (inf, -0, -inf, nan) do not.
        (0, [(1.7e308, 0.0), (1.7e308, 0.0), (1.7e308, 1e-300), (-1.7e308, 0.0)]),
        (3, [(1.7e308, 0.0), (1.7e308, 1e-300), (1.7e308, -1e-300), (-1.7e308, 0.0)]),
    ]
    for code, corners in cases:
        got, area = quad_rule(*[float(v) for p in corners for v in p])
        assert got == code == stated_rule(corners)[0]
        assert code == 2 or math.isfinite(area)


# --- Boxes ------------------------------------------------------------------------


def test_boxes_rows_are_the_boxes_they_were_made_from():
    rows = [
        rectangle(10, 20, 8, 4, 30, class_id=2, score=0.5),
        OrientedBox((Point2(0, 0), Point2(0, 3), Point2(4, 3), Point2(4, 0)), class_id=1, difficult=True),
        rectangle(-5.5, 1e6, 3, 2, 91),
    ]
    boxes = Boxes.of(rows)
    assert len(boxes) == 3
    assert boxes.corners.shape == (3, 4, 2) and boxes.corners.dtype == np.float64
    assert (boxes.class_id.dtype, boxes.score.dtype, boxes.difficult.dtype) == (np.int64, np.float64, bool)
    assert list(boxes) == rows
    assert boxes[1] == rows[1] and boxes[-1] == rows[-1]
    assert list(boxes.take(np.array([False, True, True]))) == rows[1:]
    assert list(boxes.take(slice(0, 1))) == rows[:1]
    empty = Boxes.of([])
    assert len(empty) == 0 and empty.corners.shape == (0, 4, 2) and list(empty) == []


def test_boxes_compare_by_identity_and_hash():
    rows = [rectangle(10, 20, 8, 4), rectangle(30, 20, 8, 4)]
    a, b = Boxes.of(rows), Boxes.of(rows)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_annotated_image_holds_its_objects_as_one_table():
    rows = [rectangle(10, 20, 8, 4, class_id=3)]
    img = AnnotatedImage("a", 64, 64, rows)
    assert isinstance(img.objects, Boxes) and list(img.objects) == rows
    assert AnnotatedImage("b", 64, 64, img.objects).objects is img.objects
    assert len(AnnotatedImage("c", 64, 64).objects) == 0
