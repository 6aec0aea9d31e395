import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlines.encoder import _drift_radii, encode_image
from midlines.errors import DegenerateBox, OutOfBounds
from midlines.geometry import (
    Boxes,
    BranchId,
    OrientedBox,
    Point2,
    box_to_midlines,
    midline_arrays,
    rectangle,
)

RECT = OrientedBox((Point2(70, 80), Point2(130, 80), Point2(130, 120), Point2(70, 120)))


def disc_oracle(cx, cy, radius, width, height):
    """Brute-force scan of the whole grid; independent of the encoder's loop."""
    out = set()
    for row in range(height):
        for col in range(width):
            if (row - cy) ** 2 + (col - cx) ** 2 < radius ** 2:
                out.add((row, col))
    return out


# --- the drift radius -------------------------------------------------------------


def drift_of(box, stride=4, r=16.0):
    """One box's branch index, centre (x, y) in input pixels and drift radius in cells."""
    lines = box_to_midlines(box)
    _, radius = _drift_radii(lines.centre, lines.lengths, stride, r)
    return int(lines.branch[0]), lines.centre[0].tolist(), float(radius[0])


def test_drift_radius_caps_at_r_over_stride():
    assert drift_of(rectangle(100, 100, 200, 100), stride=4, r=16.0)[2] == 4.0


def test_drift_radius_square_midlines():
    assert drift_of(rectangle(100, 100, 128, 128, angle_deg=10), stride=4, r=16.0)[2] == 4.0


def test_drift_radius_thin_box_still_covers_center_cell():
    # Shorter midline of 4 px gives a base radius of 0.5 cells, below the
    # worst-case rounding distance; the region must still own its cell.
    for center in ((100.0, 100.0), (102.0, 103.0), (97.9, 101.3)):
        box = rectangle(center[0], center[1], 200, 4)
        b, (x, y), radius = drift_of(box, stride=4, r=16.0)
        assert radius >= 0.5
        maps = encode_image([box], 256, 256, num_classes=1)
        center_cell = (math.floor(y / 4 + 0.5), math.floor(x / 4 + 0.5))
        assert maps.heatmap[b, 0][center_cell] == 1.0


# --- the drift region, as encode_image writes it ---------------------------------


def region_and_oracle(cx, cy, side, size=50, stride=4, r=16.0):
    """encode_image's positives for a side x side square centred at (cx, cy) cells, and the oracle's.

    The oracle scans the whole grid for the disc at the centre and radius
    that box_to_midlines and the drift radius rule give, plus the rounded
    centre cell clamped into the grid.
    """
    box = rectangle(cx * stride, cy * stride, side, side)
    maps = encode_image([box], size * stride, size * stride, num_classes=1, stride=stride, r=r)
    b, (x, y), radius = drift_of(box, stride, r)
    x, y = x / stride, y / stride
    want = disc_oracle(x, y, radius, size, size)
    want.add((min(max(math.floor(y + 0.5), 0), size - 1), min(max(math.floor(x + 0.5), 0), size - 1)))
    got = {tuple(c) for c in np.argwhere(maps.heatmap[b, 0] == 1.0)}
    assert not maps.heatmap[1 - b].any()
    return got, want


def test_region_cells_match_full_grid_oracle():
    got, want = region_and_oracle(25.0, 25.0, 32.0)  # radius min(16, 32 / 2) / 4 = 4 cells
    assert got == want == disc_oracle(25.0, 25.0, 4.0, 50, 50)
    assert len(got) == 45


@given(
    cx=st.floats(min_value=3.0, max_value=45.0),
    cy=st.floats(min_value=3.0, max_value=45.0),
    radius=st.floats(min_value=0.3, max_value=6.0),
)
@settings(max_examples=60, deadline=None)
def test_region_cells_match_oracle_randomized(cx, cy, radius):
    got, want = region_and_oracle(cx, cy, 8.0 * radius, r=64.0)
    assert got == want


def test_region_cells_are_row_major_and_in_bounds():
    # A region that reaches past the top-left corner is cut to the grid.
    got, want = region_and_oracle(1.0, 1.0, 28.0)
    assert got == want == disc_oracle(1.0, 1.0, 3.5, 50, 50)


# --- encode_image -------------------------------------------------------------


def test_rect_example_heatmap_disc():
    maps = encode_image([RECT], 256, 256, num_classes=1)
    assert maps.heatmap.shape == (2, 1, 64, 64)
    assert maps.regression.shape == (2, 8, 64, 64)
    assert maps.reg_mask.shape == (2, 64, 64)
    b = BranchId.HORIZONTAL.index
    positives = {tuple(c) for c in np.argwhere(maps.heatmap[b, 0] == 1.0)}
    assert positives == disc_oracle(25.0, 25.0, 4.0, 64, 64)
    assert maps.heatmap[BranchId.ORIENTED.index].sum() == 0.0
    assert maps.n_objects == 1


def test_rect_example_center_cell_offsets():
    maps = encode_image([RECT], 256, 256, num_classes=1)
    b = BranchId.HORIZONTAL.index
    got = maps.regression[b, :, 25, 25]
    np.testing.assert_array_equal(got, [30, 0, -30, 0, 0, -20, 0, 20])


def test_every_masked_cell_reproduces_the_endpoints():
    box = rectangle(101.5, 97.25, 80, 30, angle_deg=25)
    lines = box_to_midlines(box)
    maps = encode_image([box], 256, 256, num_classes=1)
    b = int(lines.branch[0])
    endpoints = lines.ends[0]
    cells = np.argwhere(maps.reg_mask[b])
    assert len(cells) > 1
    for row, col in cells:
        delta = maps.regression[b, :, row, col]
        anchor = np.array([col, row] * 4, dtype=float) * maps.stride
        np.testing.assert_allclose(delta + anchor, endpoints, atol=1e-12)


def test_empty_annotation_list_gives_zero_maps():
    maps = encode_image([], 128, 96, num_classes=3)
    assert maps.width == 32 and maps.height == 24
    assert maps.heatmap.sum() == 0
    assert not maps.reg_mask.any()
    assert maps.n_objects == 0


def test_two_disjoint_objects_fill_their_own_class_channels():
    a = rectangle(60, 60, 40, 24, class_id=0)
    b = rectangle(180, 180, 48, 30, angle_deg=30, class_id=2)
    maps = encode_image([a, b], 256, 256, num_classes=3)
    for box in (a, b):
        branch, (x, y), radius = drift_of(box)
        want = disc_oracle(x / 4, y / 4, radius, maps.width, maps.height)
        got = {
            tuple(c)
            for c in np.argwhere(maps.heatmap[branch, box.class_id] == 1.0)
        }
        assert got == want
    # Nothing leaked into the unused class channel or wrong branch cells.
    assert maps.heatmap[:, 1].sum() == 0
    assert maps.n_objects == 2


def test_mask_true_exactly_where_some_class_is_positive():
    boxes = [
        rectangle(60, 60, 40, 24, class_id=0),
        rectangle(70, 64, 36, 20, class_id=1),  # overlaps the first
        rectangle(190, 200, 50, 28, angle_deg=40, class_id=1),
    ]
    maps = encode_image(boxes, 256, 256, num_classes=2)
    for b in range(2):
        union = maps.heatmap[b].max(axis=0) == 1.0
        np.testing.assert_array_equal(maps.reg_mask[b], union)


def center_cell_endpoints(maps, box):
    """Branch, center cell, stored endpoints there, and box's true endpoints."""
    lines = box_to_midlines(box)
    b = int(lines.branch[0])
    x, y = lines.centre[0].tolist()
    row, col = math.floor(y / 4 + 0.5), math.floor(x / 4 + 0.5)
    anchor = np.array([col, row] * 4, dtype=float) * maps.stride
    stored = maps.regression[b, :, row, col] + anchor
    return b, (row, col), stored, lines.ends[0]


def test_overlap_regression_goes_to_smaller_area_object():
    big = rectangle(100, 100, 60, 40, class_id=0)
    small = rectangle(102, 101, 30, 20, class_id=1)
    for boxes in ([big, small], [small, big]):
        maps = encode_image(boxes, 256, 256, num_classes=2)
        # Both regions cover the small box's center cell; whatever the input
        # order, the stored offsets must reconstruct the small box's endpoints.
        b, (row, col), stored, endpoints = center_cell_endpoints(maps, small)
        np.testing.assert_allclose(stored, endpoints, atol=1e-12)
        # Both class channels are positive at that cell all the same.
        assert maps.heatmap[b, 0, row, col] == 1.0
        assert maps.heatmap[b, 1, row, col] == 1.0


def test_resolve_overlap_prefers_smaller_area():
    # Two boxes share a centre: their regions contest the same centre cell,
    # and the smaller one owns it in either input order.
    larger = rectangle(100, 100, 40, 30)
    smaller = rectangle(100, 100, 40, 20)
    assert smaller.area < larger.area
    for boxes in ([larger, smaller], [smaller, larger]):
        maps = encode_image(boxes, 256, 256, num_classes=1)
        b, cell, stored, endpoints = center_cell_endpoints(maps, smaller)
        b2, cell2, _, other = center_cell_endpoints(maps, larger)
        assert (b, cell) == (b2, cell2)  # one contested cell
        np.testing.assert_allclose(stored, endpoints, atol=1e-12)
        assert not np.allclose(stored, other)


def test_overlap_equal_areas_go_to_earlier_index():
    wide = rectangle(100, 100, 40, 20)
    tall = rectangle(100, 100, 20, 40)
    assert wide.area == tall.area
    for first, second in ((wide, tall), (tall, wide)):
        maps = encode_image([first, second], 256, 256, num_classes=1)
        b, cell, stored, endpoints = center_cell_endpoints(maps, first)
        b2, cell2, _, other = center_cell_endpoints(maps, second)
        assert (b, cell) == (b2, cell2)  # one contested cell
        np.testing.assert_allclose(stored, endpoints, atol=1e-12)
        assert not np.allclose(stored, other)


def test_single_object_touches_exactly_one_branch():
    for angle in (0.0, 15.0, -1.0, 45.0):
        box = rectangle(128, 128, 60, 24, angle_deg=angle)
        maps = encode_image([box], 256, 256, num_classes=1)
        touched = [b for b in range(2) if maps.heatmap[b].sum() > 0]
        assert len(touched) == 1
        assert touched == box_to_midlines(box).branch.tolist()


def test_center_outside_image_is_rejected():
    box = rectangle(300, 50, 20, 10)
    with pytest.raises(OutOfBounds):
        encode_image([box], 256, 256, num_classes=1)


def test_class_id_outside_range_is_rejected():
    box = rectangle(100, 100, 20, 10, class_id=5)
    with pytest.raises(ValueError):
        encode_image([box], 256, 256, num_classes=3)


# --- the array rules on seeded scenes -------------------------------------------


def combine_single_encodes(boxes, image_w, image_h, num_classes, **kw):
    """Encode each box alone, then merge the maps one box at a time.

    Heatmaps and masks are unions; a contested cell keeps the offsets of the
    smallest area, and the strict comparison keeps the earlier box on a tie.
    """
    base = encode_image([], image_w, image_h, num_classes, **kw)
    heatmap, regression, mask = base.heatmap, base.regression, base.reg_mask
    best = np.full(mask.shape, np.inf)
    n_objects = 0
    for box in boxes:
        one = encode_image([box], image_w, image_h, num_classes, **kw)
        take = one.reg_mask & (box.area < best)
        regression = np.where(take[:, None], one.regression, regression)
        best[take] = box.area
        heatmap = np.maximum(heatmap, one.heatmap)
        mask = mask | one.reg_mask
        n_objects += one.n_objects
    return heatmap, regression, mask, n_objects


def random_scene(rng, image_w, image_h, n):
    """Boxes with squares, the branch-bound angles, edge centers and duplicates."""
    boxes = []
    for _ in range(n):
        kind = rng.integers(6)
        cx, cy = rng.uniform(0, image_w), rng.uniform(0, image_h)
        w, h = rng.uniform(1.0, 70.0), rng.uniform(1.0, 50.0)
        angle = float(rng.choice([0.0, 90.0, 2.0, -2.0, 88.0, 92.0, 45.0, rng.uniform(0, 180)]))
        if kind == 0:
            h = w  # a square: the two midline candidates tie
        elif kind == 1:
            # On the image edge or corner: the disc is clipped and the
            # rounded center cell clamped into the grid.
            cx = float(rng.choice([0.0, image_w, cx]))
            cy = float(rng.choice([0.0, image_h]))
        elif kind == 2 and boxes:
            # An exact copy in another class: an equal-area contest.
            prev = boxes[int(rng.integers(len(boxes)))]
            boxes.append(OrientedBox(prev.corners, class_id=int(rng.integers(3))))
            continue
        elif kind == 3:
            w = rng.uniform(0.5, 4.0)  # thin: radius raised to reach the center cell
        boxes.append(rectangle(cx, cy, w, h, angle_deg=angle, class_id=int(rng.integers(3))))
    return boxes


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("stride, r", [(4, 16.0), (2, 40.0), (1, 3.0)])
def test_encode_equals_single_encodes_combined_by_the_owner_rule(seed, stride, r):
    rng = np.random.default_rng(seed)
    image_w, image_h = int(rng.integers(60, 200)), int(rng.integers(60, 200))
    boxes = random_scene(rng, image_w, image_h, int(rng.integers(1, 40)))
    for scene in (boxes, boxes[::-1]):
        maps = encode_image(scene, image_w, image_h, 3, stride=stride, r=r)
        heatmap, regression, mask, n_objects = combine_single_encodes(
            scene, image_w, image_h, 3, stride=stride, r=r
        )
        np.testing.assert_array_equal(maps.heatmap, heatmap)
        np.testing.assert_array_equal(maps.regression, regression)
        np.testing.assert_array_equal(maps.reg_mask, mask)
        assert maps.n_objects == n_objects == len(scene)


def test_square_encodes_candidate_a_as_l1():
    # Equal candidates: A (through the midpoints of p0p1 and p2p3) is l1.
    square = OrientedBox((Point2(100, 60), Point2(140, 100), Point2(100, 140), Point2(60, 100)))
    maps = encode_image([square], 256, 256, num_classes=1)
    b = BranchId.ORIENTED.index
    np.testing.assert_array_equal(
        maps.regression[b, :, 25, 25], [20, -20, -20, 20, -20, -20, 20, 20]
    )


@pytest.mark.parametrize("angle", [-2.0, 2.0])
def test_branch_bounds_are_open_in_encode(angle):
    # Turned by -2 or +2 degrees, the box's more vertical midline sits at
    # about 88 or 92 degrees. With that angle itself as the bound the box is
    # ORIENTED; with the bound one step further out it is HORIZONTAL.
    box = rectangle(100, 100, 60, 30, angle_deg=angle)
    theta = float(midline_arrays(Boxes.of([box]).corners).theta[0])
    assert abs(theta - (90.0 + angle)) < 1e-9
    outward = math.nextafter(theta, 0.0 if angle < 0 else 180.0)
    for bound, branch in ((theta, BranchId.ORIENTED), (outward, BranchId.HORIZONTAL)):
        low, high = (bound, 92.0) if angle < 0 else (88.0, bound)
        maps = encode_image([box], 256, 256, 1, branch_low=low, branch_high=high)
        assert maps.heatmap[branch.index].sum() > 0
        assert maps.heatmap[1 - branch.index].sum() == 0


def test_center_on_the_far_corner_is_clamped_into_the_grid():
    # 250 px is 62.5 cells: the rounded center (63, 63) lies off the grid
    # and is clamped to the last cell, which the region still owns.
    box = rectangle(250, 250, 3, 3)
    maps = encode_image([box], 250, 250, num_classes=1)
    assert (maps.width, maps.height) == (63, 63)
    cells = {tuple(c) for c in np.argwhere(maps.reg_mask[BranchId.HORIZONTAL.index])}
    assert (62, 62) in cells
    assert all(0 <= row < 63 and 0 <= col < 63 for row, col in cells)


def test_equal_areas_go_to_the_earlier_index_in_both_orders():
    a = rectangle(120, 120, 40, 20, class_id=0)
    b = OrientedBox(a.corners, class_id=1)  # same corners, same area
    for first, second in ((a, b), (b, a)):
        maps = encode_image([first, second], 256, 256, num_classes=2)
        heatmap, regression, mask, _ = combine_single_encodes([first, second], 256, 256, 2)
        np.testing.assert_array_equal(maps.regression, regression)
        # Both classes are positive on the shared cells.
        np.testing.assert_array_equal(maps.heatmap[:, 0], maps.heatmap[:, 1])


def test_the_first_faulty_annotation_names_the_error():
    fine = rectangle(50, 50, 20, 10)
    bad_class = rectangle(60, 60, 20, 10, class_id=7)
    outside = rectangle(300, 50, 20, 10)
    with pytest.raises(ValueError, match=r"class id 7 outside \[0, 3\)"):
        encode_image([fine, bad_class, outside], 256, 256, num_classes=3)
    with pytest.raises(OutOfBounds, match="annotation 1 center"):
        encode_image([fine, outside, bad_class], 256, 256, num_classes=3)


def test_an_endpoint_sum_that_overflows_names_the_first_partial_sum():
    # Finite midpoints near 1e308 whose running endpoint sum overflows at
    # the third endpoint: the error names that partial sum, not a center.
    wide = OrientedBox((Point2(0.7e308, 0.0), Point2(0.8e308, 0.0), Point2(0.8e308, 1.0), Point2(0.7e308, 1.0)))
    corners = Boxes.of([wide]).corners
    assert np.isfinite((corners + np.roll(corners, -1, axis=1)) / 2.0).all()
    calls = (lambda: encode_image([rectangle(50, 50, 20, 10), wide], 100, 100, 1), lambda: box_to_midlines(wide))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "non-finite point (inf, 1.0)"
        assert not isinstance(err.value, OutOfBounds)


def test_degenerate_object_is_skipped_before_its_center_is_checked():
    # At y = 2**53 these corners' opposite-edge midpoints round onto each
    # other: a zero-length midline. It is skipped, not reported out of bounds.
    y = 2.0 ** 53
    flat = OrientedBox((Point2(0, y), Point2(2, y - 1), Point2(2, y + 2), Point2(0, y)))
    with pytest.raises(DegenerateBox):
        box_to_midlines(flat)
    maps = encode_image([flat, rectangle(50, 50, 20, 10)], 256, 256, num_classes=1)
    assert maps.n_objects == 1


# --- the configuration ------------------------------------------------------------


@pytest.mark.parametrize("kw, message", [
    ({"stride": -4}, "stride must be an integer >= 1, got -4"),
    ({"stride": 0}, "stride must be an integer >= 1, got 0"),
    ({"stride": 4.5}, "stride must be an integer >= 1, got 4.5"),
    ({"stride": True}, "stride must be an integer >= 1, got True"),
    ({"stride": "4"}, "stride must be an integer >= 1, got '4'"),
    ({"r": 0.0}, "drift_r must be > 0, got 0.0"),
    ({"r": -5.0}, "drift_r must be > 0, got -5.0"),
    ({"r": math.nan}, "drift_r must be > 0, got nan"),
    ({"branch_low": math.nan}, "branch window empty: [nan, 92.0]"),
    ({"branch_high": math.nan}, "branch window empty: [88.0, nan]"),
    ({"branch_low": 50, "branch_high": 10}, "branch window empty: [50, 10]"),
    ({"branch_low": 92.0}, "branch window empty: [92.0, 92.0]"),
    ({"stride": 0, "branch_low": 95.0}, "branch window empty: [95.0, 92.0]"),
], ids=lambda v: ",".join(f"{k}={v[k]}" for k in v) if isinstance(v, dict) else "")
def test_encode_rejects_the_configurations_the_cli_rejects(kw, message):
    # These used to encode, or fail with an unrelated error: stride -4 gave
    # maps of negative size, stride 0 divided by zero, stride 4.5 wrote a
    # manifest that read_maps refuses, and r <= 0 or an empty branch window
    # encoded silently.
    with pytest.raises(ValueError) as err:
        encode_image([RECT], 256, 256, num_classes=1, **kw)
    assert str(err.value) == message


def test_encode_takes_an_infinite_radius_and_a_numpy_stride():
    maps = encode_image([RECT], 256, 256, num_classes=1, stride=np.int64(4), r=math.inf)
    plain = encode_image([RECT], 256, 256, num_classes=1, stride=4, r=math.inf)
    np.testing.assert_array_equal(maps.regression, plain.regression)
    assert maps.reg_mask.sum() > 1


# --- the cell layout --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scene_kind=st.sampled_from(
        ["both-branches", "only-branch-1", "only-branch-2", "no-boxes", "contested"]
    ),
    stride=st.sampled_from([1, 2, 4]),
)
def test_encoded_cells_are_laid_out_as_sorting_them_gives(seed, scene_kind, stride):
    # Reference layout: every object's own cells, from encoding it alone, in
    # shuffled order, then np.unique for the heatmap and an argsort of the
    # flat indices for the regression offsets.
    rng = np.random.default_rng(seed)
    image_w, image_h = int(rng.integers(40, 160)), int(rng.integers(40, 160))
    scene = random_scene(rng, image_w, image_h, int(rng.integers(1, 20)))
    lines = midline_arrays(Boxes.of(scene).corners)
    x, y = lines.centre.T
    # An edge centre can round to just outside the image; such a box raises.
    wanted = (0 <= x) & (x <= image_w) & (0 <= y) & (y <= image_h)
    if scene_kind in ("only-branch-1", "only-branch-2"):
        branch = BranchId.HORIZONTAL if scene_kind == "only-branch-1" else BranchId.ORIENTED
        wanted &= lines.branch == branch.index
    elif scene_kind == "no-boxes":
        wanted[:] = False
    centres = lines.centre[wanted].tolist()
    scene = [box for box, keep in zip(scene, wanted) if keep]
    if scene_kind == "contested":
        scene += [OrientedBox(box.corners, class_id=(box.class_id + 1) % 3) for box in scene[:4]]
        scene += [rectangle(x, y, 30.0, 20.0, class_id=0) for x, y in centres[:4]]
    maps = encode_image(scene, image_w, image_h, 3, stride=stride)
    _, regression, mask, _ = combine_single_encodes(scene, image_w, image_h, 3, stride=stride)

    lit = np.concatenate([np.empty(0, np.int64)] + [
        np.flatnonzero(encode_image([box], image_w, image_h, 3, stride=stride).heatmap) for box in scene
    ])
    rng.shuffle(lit)
    np.testing.assert_array_equal(maps.kept("heatmap").index, np.unique(lit))

    b, row, col = np.nonzero(mask)
    shuffled = rng.permutation(len(b))
    b, row, col = b[shuffled], row[shuffled], col[shuffled]
    plane = maps.height * maps.width
    at = ((b[:, None] * 8 + np.arange(8)) * plane + (row * maps.width + col)[:, None]).ravel()
    offsets = regression[b, :, row, col].ravel()
    order = np.argsort(at)
    at, offsets = at[order], offsets[order]
    stored = offsets.view(np.uint64) != 0
    cells = maps.kept("regression")
    np.testing.assert_array_equal(cells.index, at[stored])
    np.testing.assert_array_equal(cells.value.view(np.uint64), offsets[stored].view(np.uint64))
    np.testing.assert_array_equal(maps.kept("reg_mask").index, np.flatnonzero(mask))
