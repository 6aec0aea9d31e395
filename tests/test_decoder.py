import math

import numpy as np
import pytest

from midlines.decoder import (
    Detection,
    Detections,
    decode,
    extract_components,
    merge_branches,
)
from midlines.encoder import TargetMaps, encode_image
from midlines.errors import DegenerateBox, ShapeMismatch
from midlines.evaluation import evaluate, rotated_iou
from midlines.geometry import Boxes, BranchId, OrientedBox, Point2, midline_boxes, midlines_to_box, rectangle

from oracles import flood_components


def make_maps(height=24, width=24, num_classes=1, stride=4):
    return TargetMaps(
        stride=stride,
        num_classes=num_classes,
        width=width,
        height=height,
        image_w=width * stride,
        image_h=height * stride,
        heatmap=np.zeros((2, num_classes, height, width)),
        regression=np.zeros((2, 8, height, width)),
        reg_mask=np.zeros((2, height, width), dtype=bool),
        n_objects=0,
    )


def write_box_offsets(reg, row, col, stride, half_w, half_h):
    """Offsets for an axis-aligned box centered exactly on the cell point."""
    reg[:, row, col] = [half_w, 0.0, -half_w, 0.0, 0.0, -half_h, 0.0, half_h]


def corner_set(box):
    return sorted((round(p.x, 9), round(p.y, 9)) for p in box.corners)


def table(dets):
    """A Detections table holding the given Detections, in order: the Boxes
    columns of their boxes plus their branch column."""
    boxes = Boxes.of([d.box for d in dets])
    return Detections(
        corners=boxes.corners,
        class_id=boxes.class_id,
        score=boxes.score,
        difficult=boxes.difficult,
        branch=np.array([d.branch.index for d in dets], dtype=int),
    )


def label_volume(heatmap, threshold=0.3):
    """extract_components' lit cells and their components as a label volume: 0 off, k + 1 on component k."""
    lit, owner, lookup, scores = extract_components(heatmap, threshold)
    labels = np.zeros(heatmap.size, dtype=np.int32)
    labels[lit] = owner + 1
    return labels.reshape(heatmap.shape), lookup, scores


# --- extract_components -----------------------------------------------------------


def components(grid, threshold=0.3):
    """extract_components on one channel: (cell set, score) per component."""
    heatmap = np.zeros((2, 1, *grid.shape))
    heatmap[0, 0] = grid
    labels, lookup, scores = label_volume(heatmap, threshold)
    assert len(lookup) == len(scores) == labels.max()
    return [
        (set(map(tuple, np.argwhere(labels[0, 0] == k + 1))), score)
        for k, score in enumerate(scores)
    ]


def test_empty_grid_has_no_components():
    labels, lookup, scores = label_volume(np.zeros((2, 3, 10, 10)))
    assert labels.shape == (2, 3, 10, 10) and not labels.any()
    assert lookup.shape == (0, 3) and scores.shape == (0,)


def test_two_blocks_with_scores():
    grid = np.zeros((12, 12))
    grid[2:4, 2:4] = 0.6
    grid[2, 3] = 0.8
    grid[8:10, 0:2] = 0.5
    assert components(grid) == [
        ({(2, 2), (2, 3), (3, 2), (3, 3)}, 0.8),
        ({(8, 0), (8, 1), (9, 0), (9, 1)}, 0.5),
    ]


def test_diagonal_cells_join_one_component():
    grid = np.zeros((5, 5))
    grid[0, 0] = 0.9
    grid[1, 1] = 0.9
    assert [cells for cells, _ in components(grid)] == [{(0, 0), (1, 1)}]


def test_threshold_is_strict():
    grid = np.zeros((4, 4))
    grid[1, 1] = 0.3
    grid[2, 2] = 0.3000001
    assert [cells for cells, _ in components(grid, threshold=0.3)] == [{(2, 2)}]


def test_components_ordered_by_first_cell_scan_position():
    heatmap = np.zeros((2, 2, 6, 6))
    heatmap[1, 0, 0, 0] = 0.9  # last: oriented branch
    heatmap[0, 1, 0, 0] = 0.9  # after every class-0 component of its branch
    heatmap[0, 0, 0, 5] = 0.9  # first in scan order despite the rightmost column
    heatmap[0, 0, 2, 0] = 0.9
    heatmap[0, 0, 4, 3] = 0.9
    *_, lookup, _ = extract_components(heatmap)
    assert lookup.tolist() == [[0, 0, 5], [0, 2, 0], [0, 4, 3], [1, 0, 0], [2, 0, 0]]


def test_components_carry_class_and_branch():
    heatmap = np.zeros((2, 9, 4, 4))
    heatmap[BranchId.ORIENTED.index, 7, 1, 1] = 0.9
    *_, lookup, scores = extract_components(heatmap)
    assert lookup.tolist() == [[9 + 7, 1, 1]]  # flat channel b * C + c
    assert scores.tolist() == [0.9]


def test_components_never_join_across_channels():
    # The same block in adjacent classes of both branches: four domains.
    heatmap = np.zeros((2, 2, 6, 6))
    heatmap[:, :, 2:4, 2:4] = 0.9
    labels, lookup, _ = label_volume(heatmap)
    assert lookup.tolist() == [[channel, 3, 3] for channel in range(4)]
    for k, (b, c) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        assert set(zip(*np.nonzero(labels == k + 1))) == {
            (b, c, row, col) for row in (2, 3) for col in (2, 3)
        }


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        grid = (rng.random((20, 20)) > 0.65).astype(float) * 0.9
        comps = components(grid, threshold=0.3)
        expected = flood_components(grid > 0.3)
        assert len(comps) == len(expected)
        for (cells, _), oracle_cells in zip(comps, expected):
            assert cells == oracle_cells


def test_lookup_cells_and_scores_match_a_per_component_loop():
    # Reference: flood fill channel by channel, then the centroid of each
    # component's cells rounded half up, and its highest cell value.
    rng = np.random.default_rng(12)
    for _ in range(10):
        heatmap = rng.random((2, 3, 16, 16))
        heatmap[heatmap < 0.6] = 0.0
        expected = []
        for channel, grid in enumerate(heatmap.reshape(6, 16, 16)):
            for cells in flood_components(grid > 0.3):
                rows, cols = np.array(sorted(cells)).T
                expected.append((
                    [channel, math.floor(rows.mean() + 0.5), math.floor(cols.mean() + 0.5)],
                    max(grid[r, c] for r, c in cells),
                ))
        *_, lookup, scores = extract_components(heatmap)
        assert list(zip(lookup.tolist(), scores.tolist())) == expected


def assert_matches_flood_fill(heatmap, threshold=0.3):
    """The label volume, channel by channel and in scan order, against the flood-fill oracle."""
    labels, lookup, _ = label_volume(heatmap, threshold)
    stack = heatmap.reshape(-1, *heatmap.shape[-2:])
    expected = [
        {(channel, r, c) for r, c in cells}
        for channel, grid in enumerate(stack)
        for cells in flood_components(grid > threshold)
    ]
    volume = labels.reshape(stack.shape)
    assert labels.dtype == np.int32 and volume.max() == len(lookup) == len(expected)
    assert [set(map(tuple, np.argwhere(volume == k + 1))) for k in range(len(expected))] == expected
    return lookup


def one_channel(grid):
    heatmap = np.zeros((2, 1, *grid.shape))
    heatmap[0, 0] = grid
    return heatmap


def test_fully_lit_volume_is_one_component_per_channel():
    lookup = assert_matches_flood_fill(np.ones((2, 3, 16, 16)))
    assert lookup.tolist() == [[channel, 8, 8] for channel in range(6)]  # 7.5 rounds up


def test_half_lit_random_volume_matches_flood_fill():
    rng = np.random.default_rng(21)
    for _ in range(5):
        assert_matches_flood_fill(rng.random((2, 2, 24, 24)), threshold=0.5)


def test_serpentine_is_one_component():
    grid = np.zeros((15, 15))
    grid[::2] = 0.9
    grid[1::4, -1] = 0.9  # the turns alternate between the right end
    grid[3::4, 0] = 0.9  # and the left end
    lookup = assert_matches_flood_fill(one_channel(grid))
    assert len(lookup) == 1


def test_run_ending_a_row_stays_apart_from_one_starting_the_next():
    # (1, 5) and (2, 0) are neighbours in the flat index, not on the map.
    grid = np.zeros((4, 6))
    grid[1, 4:] = 0.9
    grid[2, :2] = 0.9
    lookup = assert_matches_flood_fill(one_channel(grid))
    assert lookup[:, 1].tolist() == [1, 2]


def test_last_row_of_a_channel_never_joins_the_next_channels_first_row():
    heatmap = np.zeros((2, 2, 4, 5))
    heatmap[:, :, 0] = 0.9
    heatmap[:, :, -1] = 0.9
    lookup = assert_matches_flood_fill(heatmap)
    assert lookup.tolist() == [[channel, row, 2] for channel in range(4) for row in (0, 3)]


@pytest.mark.parametrize("gap, expected", [(0, 1), (1, 5)], ids=["diagonal", "one-cell-gap"])
def test_components_meeting_diagonally_below_either_end_of_a_run(gap, expected):
    # Two bars from the top row reach a later run only through the upper
    # diagonals of its end cells, and two cells hang off its ends the same
    # way from below. A gap of one cell at each end leaves five domains.
    grid = np.zeros((6, 12))
    grid[:3, 1] = grid[:3, 10] = 0.9
    grid[3, 2 + gap:10 - gap] = 0.9
    grid[4, 1] = grid[4, 10] = 0.9
    lookup = assert_matches_flood_fill(one_channel(grid))
    assert len(lookup) == expected


# --- reconstruction ---------------------------------------------------------------


def test_reconstruct_reads_one_cell():
    maps = make_maps(height=20, width=20)
    maps.heatmap[0, 0, 5, 7] = 0.9
    write_box_offsets(maps.regression[0], 5, 7, stride=4, half_w=20, half_h=8)
    (det,) = decode(maps)
    expected = rectangle(28, 20, 40, 16)
    assert corner_set(det.box) == corner_set(expected)
    assert det.branch is BranchId.HORIZONTAL


def test_centroid_rounds_half_up_to_lookup_cell():
    # Four cells centered between them: centroid (10.5, 10.5) reads (11, 11).
    maps = make_maps()
    maps.heatmap[0, 0, 10:12, 10:12] = 0.9
    maps.heatmap[0, 0, 10, 10] = 0.95
    for row, col in ((10, 10), (10, 11), (11, 10)):
        write_box_offsets(maps.regression[0], row, col, 4, half_w=5, half_h=2.5)
    write_box_offsets(maps.regression[0], 11, 11, 4, half_w=20, half_h=8)
    (det,) = decode(maps)
    assert corner_set(det.box) == corner_set(rectangle(44, 44, 40, 16))
    assert det.score == 0.95


def test_decode_reads_class_branch_and_score_from_channel():
    maps = make_maps(height=20, width=20, num_classes=3)
    write_box_offsets(maps.regression[1], 3, 3, 4, half_w=6, half_h=3)
    maps.heatmap[1, 2, 3, 3] = 0.7
    (det,) = decode(maps)
    assert det.class_id == 2
    assert det.score == 0.7
    assert det.branch is BranchId.ORIENTED


# --- merge_branches ---------------------------------------------------------------


def det_at(x, y, w=40, h=16, angle=0.0, class_id=0, score=0.9, branch=BranchId.HORIZONTAL):
    return Detection(
        box=rectangle(x, y, w, h, angle, class_id=class_id, score=score),
        branch=branch,
    )


def test_merge_drops_lower_scoring_duplicate():
    weak = det_at(0, 0, score=0.6, branch=BranchId.HORIZONTAL)
    strong = det_at(0, 0, angle=2.5, score=0.8, branch=BranchId.ORIENTED)
    kept = merge_branches(table([weak, strong]))
    assert list(kept) == [strong]
    # Role reversal keeps the horizontal one instead.
    strong_h = det_at(0, 0, score=0.8, branch=BranchId.HORIZONTAL)
    weak_o = det_at(0, 0, angle=2.5, score=0.6, branch=BranchId.ORIENTED)
    assert list(merge_branches(table([weak_o, strong_h]))) == [strong_h]


def test_merge_tie_keeps_horizontal():
    h = det_at(0, 0, score=0.7, branch=BranchId.HORIZONTAL)
    o = det_at(0, 0, angle=1.5, score=0.7, branch=BranchId.ORIENTED)
    assert list(merge_branches(table([o, h]))) == [h]


def test_merge_requires_strictly_greater_overlap():
    h = det_at(0, 0, score=0.6, branch=BranchId.HORIZONTAL)
    o = det_at(2, 0, score=0.9, branch=BranchId.ORIENTED)
    iou = rotated_iou(h.box, o.box)
    assert list(merge_branches(table([h, o]), iou_threshold=iou)) == [h, o]
    assert list(merge_branches(table([h, o]), iou_threshold=iou - 1e-9)) == [o]


def test_merge_ignores_other_classes_and_low_overlap():
    h = det_at(0, 0, class_id=0, score=0.6, branch=BranchId.HORIZONTAL)
    other_class = det_at(0, 0, class_id=1, score=0.9, branch=BranchId.ORIENTED)
    far = det_at(500, 500, class_id=0, score=0.9, branch=BranchId.ORIENTED)
    assert list(merge_branches(table([h, other_class, far]))) == [h, other_class, far]


def test_merge_never_suppresses_within_a_branch():
    a = det_at(0, 0, score=0.9, branch=BranchId.ORIENTED)
    b = det_at(0.5, 0, score=0.3, branch=BranchId.ORIENTED)
    assert list(merge_branches(table([a, b]))) == [a, b]


# --- decode -----------------------------------------------------------------------


def test_decode_rejects_malformed_maps():
    maps = make_maps()
    maps.regression = maps.regression[:, :6]
    with pytest.raises(ShapeMismatch):
        decode(maps)
    maps = make_maps(num_classes=2)
    maps.num_classes = 3  # disagrees with the heatmap's class channels
    with pytest.raises(ShapeMismatch, match="3 classes"):
        decode(maps)


def test_decode_empty_maps():
    stats = {}
    assert list(decode(make_maps(), stats=stats)) == []
    assert stats["dropped_degenerate"] == 0


def test_decode_drops_degenerate_regression():
    maps = make_maps()
    maps.heatmap[0, 0, 5, 5] = 0.9  # offsets all zero: endpoints coincide
    stats = {}
    assert list(decode(maps, stats=stats)) == []
    assert stats["dropped_degenerate"] == 1


def test_decode_rejects_a_score_above_one_only_on_a_kept_component():
    # OrientedBox's score rule, applied to the column: a component dropped
    # by the midline rules never reaches it.
    maps = make_maps()
    maps.heatmap[0, 0, 5, 5] = 1.5  # offsets all zero: dropped, not raised
    assert list(decode(maps)) == []
    maps.heatmap[0, 0, 12, 12] = 1.25
    write_box_offsets(maps.regression[0], 12, 12, 4, half_w=6, half_h=3)
    with pytest.raises(ValueError, match=r"^score 1.25 outside \[0, 1\]$"):
        decode(maps)


def test_decode_recovers_encoded_objects_exactly():
    boxes = [
        rectangle(60, 60, 48, 20, class_id=0),
        rectangle(180, 180, 60, 24, angle_deg=30, class_id=1),
    ]
    maps = encode_image(boxes, image_w=256, image_h=256, num_classes=2)
    dets = decode(maps)
    assert len(dets) == 2
    by_class = {d.class_id: d for d in dets}
    assert by_class[0].branch is BranchId.HORIZONTAL
    assert by_class[1].branch is BranchId.ORIENTED
    for box in boxes:
        assert rotated_iou(by_class[box.class_id].box, box) > 1.0 - 1e-9
        assert by_class[box.class_id].score == 1.0


def test_decode_is_deterministic():
    rng = np.random.default_rng(5)
    boxes = [
        rectangle(
            80 + 120 * (i % 3), 80 + 120 * (i // 3),
            rng.uniform(30, 60), rng.uniform(12, 25), rng.uniform(0, 180),
            class_id=int(rng.integers(0, 3)),
        )
        for i in range(9)
    ]
    maps = encode_image(boxes, image_w=480, image_h=480, num_classes=3)
    first = decode(maps)
    second = decode(maps)
    assert [corner_set(d.box) for d in first] == [corner_set(d.box) for d in second]
    assert [(d.class_id, d.branch) for d in first] == [
        (d.class_id, d.branch) for d in second
    ]


def test_decode_keeps_same_cells_in_adjacent_classes_and_both_branches_apart():
    # One block lit in classes 0 and 1 of both branches, each with its own
    # box; with merging off, every channel gives its own detection.
    maps = make_maps(num_classes=2)
    maps.heatmap[:, :, 10:12, 10:12] = 0.9
    for b, half_w in ((0, 20), (1, 16)):
        for row in (10, 11):
            for col in (10, 11):
                write_box_offsets(maps.regression[b], row, col, 4, half_w=half_w, half_h=8)
    dets = decode(maps, merge_iou=1.0)
    assert [(d.branch, d.class_id) for d in dets] == [
        (BranchId.HORIZONTAL, 0), (BranchId.HORIZONTAL, 1),
        (BranchId.ORIENTED, 0), (BranchId.ORIENTED, 1),
    ]
    for d in dets:
        half_w = 20 if d.branch is BranchId.HORIZONTAL else 16
        assert corner_set(d.box) == corner_set(rectangle(44, 44, 2 * half_w, 16))


# --- the array rebuild against a per-component statement of its rules --------------


def _point(x, y):
    """A point the rebuild builds; a non-finite one ends it, as Point2 does."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite point ({x}, {y})")
    return x, y


def reference_rebuild(ends):
    """One cell's box in plain Python floats: ordering plus midlines_to_box's rules.

    `ends` holds the four endpoints as read, x, y each: l1's two, then l2's.
    Returns the corners c+u+v, c+u-v, c-u-v, c-u+v, or the message of the
    rule that drops the cell.
    """
    e1, e2, e3, e4 = (_point(ends[i], ends[i + 1]) for i in range(0, 8, 2))
    a, b = (e1, e2) if (e1[0], -e1[1]) >= (e2[0], -e2[1]) else (e2, e1)
    c, d = (e3, e4) if (e3[1], -e3[0]) <= (e4[1], -e4[0]) else (e4, e3)
    d1 = _point(a[0] - b[0], a[1] - b[1])
    if math.hypot(*d1) == 0.0:
        return "zero-length midline"
    d2 = _point(c[0] - d[0], c[1] - d[1])
    if math.hypot(*d2) == 0.0:
        return "zero-length midline"
    s = _point(a[0] + b[0], a[1] + b[1])
    s = _point(s[0] + c[0], s[1] + c[1])
    s = _point(s[0] + d[0], s[1] + d[1])
    cx, cy = s[0] * 0.25, s[1] * 0.25
    ux, uy, vx, vy = d1[0] * 0.5, d1[1] * 0.5, d2[0] * 0.5, d2[1] * 0.5
    if math.hypot(ux, uy) == 0.0 or math.hypot(vx, vy) == 0.0:
        return "zero-length midline"
    if ux * vy - uy * vx == 0.0:
        return "parallel midlines span no area"
    plus_u, minus_u = _point(cx + ux, cy + uy), _point(cx - ux, cy - uy)
    corners = [
        _point(plus_u[0] + vx, plus_u[1] + vy),
        _point(plus_u[0] - vx, plus_u[1] - vy),
        _point(minus_u[0] - vx, minus_u[1] - vy),
        _point(minus_u[0] + vx, minus_u[1] + vy),
    ]
    area = 0.0
    for (px, py), (qx, qy) in zip(corners, corners[1:] + corners[:1]):
        area += px * qy - qx * py
    if area / 2.0 == 0.0:
        return "rebuilt corners: zero-area box"
    if not math.isfinite(area):
        return "rebuilt corners: non-finite area"
    before, after = corners[-1:] + corners[:-1], corners[1:] + corners[:1]
    turns = [
        (qx - px) * (ry - qy) - (qy - py) * (rx - qx)
        for (px, py), (qx, qy), (rx, ry) in zip(before, corners, after)
    ]
    if min(turns) < 0.0 < max(turns):
        return "rebuilt corners: non-convex quad"
    return corners


def cell_ends(maps, b, row, col):
    anchor = [col * maps.stride, row * maps.stride] * 4
    return [p + q for p, q in zip(anchor, maps.regression[b, :, row, col].tolist())]


def reference_decode(maps, threshold=0.3):
    """decode one component at a time: (merged detections, drop messages)."""
    *_, lookup, scores = extract_components(maps.heatmap, threshold)
    dets, drops = [], []
    for (channel, row, col), score in zip(lookup.tolist(), scores.tolist()):
        b, class_id = divmod(channel, maps.num_classes)
        out = reference_rebuild(cell_ends(maps, b, row, col))
        if isinstance(out, str):
            drops.append(out)
            continue
        box = OrientedBox(tuple(Point2(x, y) for x, y in out), class_id=class_id, score=score)
        dets.append(Detection(box=box, branch=BranchId(b + 1)))
    return merge_branches(table(dets)), drops


def bits(det):
    """Everything a detection carries, exactly: -0.0 and 0.0 differ."""
    return [float(v).hex() for v in det.box.corner_array() + [det.score]], det.class_id, det.branch


# Rows that hit each drop rule, as (branch, row, col, offsets) at stride 4.
PLANTED = [
    (0, 2, 2, [3.0, 1.0, 3.0, 1.0, 0.0, -2.0, 0.0, 2.0]),  # coincident l1 endpoints
    (1, 2, 6, [4.0, 2.0, -4.0, -2.0, 2.0, 1.0, -2.0, -1.0]),  # parallel
    # float32-exact near-parallel offsets: the corners round to a zero-area quad
    (0, 2, 10, [0.6419510841369629, -0.3967475891113281, -0.6419510841369629, 0.3967475891113281,
                1.038698673248291, -0.6419510841369629, -1.038698673248291, 0.6419510841369629]),
    # offsets far below one unit in the last place of the anchor: the rounded
    # corners turn both ways, or keep an area with every turn exactly 0
    (1, 8, 12, [-2.0682123453971774e-13, 4.6151111981715775e-14, 7.904977817925713e-14,
                -2.640926815810598e-13, -1.2987956572676929e-14, 1.6509747739096509e-13,
                8.141054819731722e-14, 6.945803146611649e-14]),
    (0, 20, 19, [2.6756152350637398e-14, 1.8735855920021134e-13, -1.3044020270902306e-13,
                 -1.1041042552510325e-13, -1.852618431359625e-14, 2.735438000414092e-15,
                 -9.332964816893124e-14, -1.447681404309629e-13]),
    # finite corners 1e200 from the anchor, whose shoelace area overflows
    (1, 14, 4, [1e200, 0.0, -1e200, 0.0, 0.0, -1e200, 0.0, 1e200]),
]


def random_maps(seed):
    """Sparse blobs over 2 branches x 2 classes with a mix of offset kinds, plus PLANTED."""
    rng = np.random.default_rng(seed)
    maps = make_maps(num_classes=2)
    lit = rng.random(maps.heatmap.shape) < 0.06
    maps.heatmap[lit] = rng.uniform(0.31, 1.0, lit.sum())
    shape = maps.regression.shape
    kinds = rng.integers(0, 4, (2, 1, *shape[2:]))
    maps.regression[:] = np.choose(kinds, [
        rng.normal(0.0, 12.0, shape),
        rng.integers(-4, 5, shape) / 2.0,  # ties in x and y, coincident and parallel lines
        rng.normal(0.0, 12.0, shape).astype(np.float32),
        rng.uniform(-3e-13, 3e-13, shape),  # rounding decides the shape
    ])
    for b, row, col, offsets in PLANTED:
        maps.heatmap[:, :, row - 1:row + 2, col - 1:col + 2] = 0.0
        maps.heatmap[b, 1, row, col] = 0.8
        maps.regression[b, :, row, col] = offsets
    return maps


@pytest.mark.parametrize("seed", range(6))
def test_decode_matches_the_per_component_rules_bit_for_bit(seed):
    maps = random_maps(seed)
    stats = {}
    dets = decode(maps, stats=stats)
    expected, drops = reference_decode(maps)
    assert [bits(d) for d in dets] == [bits(d) for d in expected]
    assert stats["dropped_degenerate"] == len(drops)
    assert {
        "zero-length midline", "parallel midlines span no area",
        "rebuilt corners: zero-area box", "rebuilt corners: non-convex quad",
        "rebuilt corners: non-finite area",
    } <= set(drops)


@pytest.mark.parametrize("seed", range(2))
def test_midline_boxes_is_the_reference_rebuild_on_every_lit_cell(seed):
    maps = random_maps(seed)
    cells = np.argwhere(maps.heatmap > 0.3).tolist()
    ends = [cell_ends(maps, b, row, col) for b, _, row, col in cells]
    rebuilt = midline_boxes(np.array(ends))
    for i, row_ends in enumerate(ends):
        out = reference_rebuild(row_ends)
        err = rebuilt.error(i)
        if isinstance(out, list):
            assert err is None
            assert [float(v).hex() for v in rebuilt.corners[i].ravel()] == [v.hex() for p in out for v in p]
        elif err is not None:
            assert isinstance(err, DegenerateBox) and str(err) == out
        else:  # the midline rules pass, and the rebuilt corners fail the shape rule
            with pytest.raises(DegenerateBox) as shape:
                midlines_to_box(row_ends)
            assert str(shape.value) == out


@pytest.mark.parametrize("offsets", [
    [math.nan, 0.0, -3.0, 0.0, 0.0, -2.0, 0.0, 2.0],  # an endpoint
    [1.7e308, 0.0, -1.7e308, 0.0, 0.0, -2.0, 0.0, 2.0],  # l1's extent
    [3.0, 0.0, -3.0, 0.0, 0.0, -1.7e308, 0.0, 1.7e308],  # l2's extent
    [1.7e308, 0.0, 1.6e308, 2.0, 0.0, -2.0, 0.0, 2.0],  # the endpoint sum
    [1.09e308, 0.0, -0.69e308, 0.0, 1.09e308, 4.0, -0.69e308, -4.0],  # a rebuilt corner
])
def test_overflow_raises_what_the_per_component_rules_raise(offsets):
    maps = make_maps()
    maps.heatmap[0, 0, 3, 3] = 0.9  # a coincident component first: counted, not raised
    maps.heatmap[0, 0, 6, 6] = 0.8
    maps.regression[0, :, 6, 6] = offsets
    with pytest.raises(ValueError) as expected:
        reference_rebuild(cell_ends(maps, 0, 6, 6))
    with pytest.raises(ValueError) as err:
        decode(maps)
    assert str(err.value) == str(expected.value)
    with pytest.raises(ValueError) as err:
        midlines_to_box(cell_ends(maps, 0, 6, 6))
    assert str(err.value) == str(expected.value)


def test_detections_compare_by_identity_and_hash():
    boxes = [rectangle(10, 10, 8, 4, score=0.9), rectangle(30, 10, 8, 4, score=0.8)]
    a, b = (table([Detection(box=box, branch=BranchId.ORIENTED) for box in boxes]) for _ in range(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_detections_read_as_not_difficult():
    dets = table([Detection(box=rectangle(10, 10, 8, 4), branch=BranchId.ORIENTED)] * 3)
    assert dets.difficult.tolist() == [False] * 3
    assert [d.box.difficult for d in dets] == [False] * 3
    # decode fills the column: a detection is never difficult, even of a difficult object.
    decoded = decode(encode_image([rectangle(40, 40, 24, 12, 30, difficult=True)], 96, 96, num_classes=1))
    assert len(decoded) == 1 and decoded.difficult.dtype == bool and not decoded.difficult.any()


BRANCHED = [
    Detection(box=rectangle(10, 10, 8, 4, class_id=1, score=0.9), branch=BranchId.ORIENTED),
    Detection(box=rectangle(40, 10, 8, 4, score=0.6), branch=BranchId.HORIZONTAL),
    Detection(box=rectangle(70, 10, 8, 4, 30, score=0.3), branch=BranchId.ORIENTED),
]


def test_detections_are_boxes_with_a_branch_column():
    dets = table(BRANCHED)
    assert isinstance(dets, Boxes)
    picked = dets.take(np.array([2, 1]))
    assert type(picked) is Detections
    assert picked.branch.tolist() == [BranchId.ORIENTED.index, BranchId.HORIZONTAL.index]
    assert list(picked) == [BRANCHED[2], BRANCHED[1]]
    assert list(dets.take(np.array([True, False, True]))) == BRANCHED[::2]
    assert dets[0] == BRANCHED[0] and dets[-1] == BRANCHED[-1]
    assert list(Boxes.__iter__(dets)) == [d.box for d in BRANCHED]


def test_evaluate_reads_detections_by_column(monkeypatch):
    dets, gts = table(BRANCHED), Boxes.of([d.box for d in BRANCHED])
    monkeypatch.setattr(Boxes, "__iter__", lambda rows: pytest.fail("evaluate read a row"))
    report = evaluate(dets, gts, class_names=["a", "b"])
    assert report.map_score == 1.0 and report.counts == {"a": (2, 0, 0), "b": (1, 0, 0)}
