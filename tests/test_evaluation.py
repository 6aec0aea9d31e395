import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from midlines import evaluation
from midlines.errors import UnknownClass
from midlines.evaluation import (
    EvalReport,
    average_precision,
    evaluate,
    may_overlap,
    rotated_iou,
    rotated_iou_pairs,
)
from midlines.geometry import (
    Boxes,
    OrientedBox,
    Point2,
    box_to_midlines,
    midlines_to_box,
    rectangle,
)

from oracles import mc_iou


def square(x, y, side=2.0, **kw):
    return rectangle(x, y, side, side, **kw)


# --- rotated_iou ----------------------------------------------------------------


def test_identical_boxes_give_exactly_one():
    box = rectangle(10, 10, 8, 4, angle_deg=30)
    assert rotated_iou(box, box) == 1.0


def test_disjoint_boxes_give_zero():
    assert rotated_iou(square(0, 0), square(10, 10)) == 0.0


def test_offset_squares_hand_value():
    # 2x2 squares offset by 1 in x: intersection 2, union 6.
    value = rotated_iou(square(0, 0), square(1, 0))
    assert value == pytest.approx(2.0 / 6.0, abs=1e-12)


def test_touching_boxes_count_as_empty_intersection():
    assert rotated_iou(square(0, 0), square(2, 0)) == 0.0


def test_contained_box():
    outer = rectangle(0, 0, 10, 10)
    inner = rectangle(0, 0, 5, 5, angle_deg=15)
    assert rotated_iou(outer, inner) == pytest.approx(25.0 / 100.0, abs=1e-12)


def test_non_convex_input_raises():
    # rotated_iou clips by each edge and so needs convex boxes; the dart
    # it used to reject itself is now refused when the box is built.
    corners = (Point2(0, 0), Point2(10, 1), Point2(3, 2), Point2(10, 10))
    for order in (corners, corners[::-1]):
        with pytest.raises(ValueError, match="non-convex"):
            OrientedBox(order)
    box = square(5, 5)
    assert rotated_iou(box, box) == 1.0


def random_box(rng):
    return rectangle(
        rng.uniform(-20, 20), rng.uniform(-20, 20),
        rng.uniform(2, 30), rng.uniform(2, 30), rng.uniform(0, 180),
    )


def test_iou_symmetry_and_bounds():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        ab = rotated_iou(a, b)
        ba = rotated_iou(b, a)
        assert 0.0 <= ab <= 1.0
        assert abs(ab - ba) < 1e-12


def convex_quad(rng, scale=20.0):
    """Four points on a random rotated ellipse at sorted angles: a convex
    quad, counter-clockwise, or clockwise when flipped."""
    cx, cy = rng.uniform(-scale, scale, 2)
    rx, ry = rng.uniform(0.5, scale, 2)
    angle = np.sort(rng.uniform(0, 2 * np.pi, 4))
    turn = rng.uniform(0, np.pi)
    x, y = rx * np.cos(angle), ry * np.sin(angle)
    quad = np.column_stack([cx + x * np.cos(turn) - y * np.sin(turn), cy + x * np.sin(turn) + y * np.cos(turn)])
    return quad[::-1] if rng.random() < 0.2 else quad


def assert_pairs_match_scalar(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rotated_iou_pairs(a, b)
    want = np.array([rotated_iou(p, q) for p, q in zip(a.tolist(), b.tolist())])
    assert got.shape == (len(a),) and got.dtype == np.float64
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_iou_pairs_match_the_scalar_path_bit_for_bit_on_random_quads():
    rng = np.random.default_rng(28)
    a = np.array([convex_quad(rng) for _ in range(3000)])
    b = np.array([convex_quad(rng) for _ in range(3000)])
    assert_pairs_match_scalar(a, b)
    boxes = [random_box(rng) for _ in range(2000)]
    rebuilt = [midlines_to_box(box_to_midlines(box).ends) for box in boxes]
    assert_pairs_match_scalar(Boxes.of(boxes).corners, Boxes.of(rebuilt).corners)
    assert_pairs_match_scalar(Boxes.of(rebuilt).corners, Boxes.of(boxes).corners)


EDGE_PAIRS = {
    "identical": (rectangle(10, 10, 8, 4, angle_deg=30), rectangle(10, 10, 8, 4, angle_deg=30)),
    "shared edge": (square(0, 0), square(2, 0)),
    "shared corner": (square(0, 0), square(2, 2)),
    "inside": (rectangle(0, 0, 10, 10), rectangle(0, 0, 5, 5, angle_deg=15)),
    "around": (rectangle(0, 0, 5, 5, angle_deg=15), rectangle(0, 0, 10, 10)),
    "disjoint": (square(0, 0), square(10, 10)),
    "collinear edges": (rectangle(0, 0, 4, 2), rectangle(1, 0, 4, 2)),
    "parallel edges": (rectangle(0, 0, 4, 2, angle_deg=37), rectangle(0.5, 0.5, 4, 2, angle_deg=37)),
    "tiny intersection": (square(0, 0), square(2.0 - 1e-11, 0)),
    "thin sliver": (rectangle(0, 0, 100, 1e-6, angle_deg=10), rectangle(0, 0, 100, 1e-6, angle_deg=10.0001)),
}


@pytest.mark.parametrize("name", EDGE_PAIRS)
def test_iou_pairs_match_the_scalar_path_on_edge_cases(name):
    a, b = EDGE_PAIRS[name]
    corners = Boxes.of([a, b]).corners
    assert_pairs_match_scalar(corners[[0, 1]], corners[[1, 0]])
    assert_pairs_match_scalar(corners[[0, 0]], corners[[0, 1]])


def test_iou_pairs_of_a_tiny_intersection_are_exactly_zero():
    a, b = EDGE_PAIRS["tiny intersection"]
    assert rotated_iou_pairs(*(Boxes.of([box]).corners for box in (a, b))).tolist() == [0.0]


def test_iou_pairs_of_no_pairs_are_empty():
    empty = np.zeros((0, 4, 2))
    out = rotated_iou_pairs(empty, empty)
    assert out.shape == (0,) and out.dtype == np.float64


def test_iou_pairs_overflow_like_the_scalar_path_and_print_nothing():
    # Far out, the shoelace terms overflow and the IoU is NaN; larger still,
    # the side tests overflow too and clip everything away.
    a, b = (np.array(box.corners) for box in (rectangle(0, 0, 4, 2, angle_deg=30), rectangle(1, 0, 4, 2, angle_deg=35)))
    placed = [(1e155, 1e153), (1e154, 1e153), (0.0, 3e154)]
    a, b = (np.array([xy * side + at for at, side in placed]) for xy in (a, b))
    assert np.isnan(rotated_iou_pairs(a, b)).tolist() == [True, False, False]
    assert_pairs_match_scalar(a, b)


def overlap(a, b):
    """may_overlap on two lists of boxes."""
    return may_overlap(
        Boxes.of(a).corners, [box.class_id for box in a], Boxes.of(b).corners, [box.class_id for box in b]
    )


def test_may_overlap_marks_every_pair_with_non_zero_iou():
    rng = np.random.default_rng(11)
    a = [random_box(rng) for _ in range(40)]
    b = [
        rectangle(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(2, 20),
                  rng.uniform(2, 20), rng.uniform(0, 180), class_id=int(rng.integers(0, 2)))
        for _ in range(30)
    ]
    marked = overlap(a, b)
    assert marked.shape == (40, 30) and marked.dtype == bool
    for i, box_a in enumerate(a):
        for j, box_b in enumerate(b):
            if box_b.class_id != box_a.class_id:
                assert not marked[i, j]
            elif not marked[i, j]:
                assert rotated_iou(box_a, box_b) == 0.0
    assert 0 < marked.sum() < marked.size


def test_may_overlap_bounds_are_closed_and_inputs_may_be_empty():
    # Touching boxes are candidates even though their IoU is 0.
    assert overlap([square(0, 0)], [square(2, 0)]).tolist() == [[True]]
    assert not overlap([square(0, 0)], [square(2.5, 0)]).any()
    assert overlap([], [square(0, 0)]).shape == (0, 1)
    assert overlap([square(0, 0)], []).shape == (1, 0)


def test_iou_of_corner_pairs_is_the_iou_of_their_boxes():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        xy_a, xy_b = (Boxes.of([box]).corners[0].tolist() for box in (a, b))
        expected = rotated_iou(a, b)
        assert rotated_iou(xy_a, xy_b) == rotated_iou(a, xy_b) == rotated_iou(xy_a, b) == expected


def test_iou_is_rigid_motion_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_box(rng), random_box(rng)
        angle = rng.uniform(0, 360)
        tx, ty = rng.uniform(-50, 50, 2)
        ca, sa = math.cos(math.radians(angle)), math.sin(math.radians(angle))

        def move(box):
            pts = tuple(
                Point2(p.x * ca - p.y * sa + tx, p.x * sa + p.y * ca + ty)
                for p in box.corners
            )
            return OrientedBox(pts)

        assert rotated_iou(a, b) == pytest.approx(
            rotated_iou(move(a), move(b)), abs=1e-9
        )


def test_iou_agrees_with_rasterization_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = random_box(rng), random_box(rng)
        assert rotated_iou(a, b) == pytest.approx(mc_iou(a, b, 1000), abs=5e-3)


def test_iou_survives_near_identical_boxes():
    # A rebuilt box shares edge lines with its original up to rounding, so
    # clipping meets segments exactly parallel to the clip edge whose side
    # test still splits them. That used to divide by zero.
    rng = np.random.default_rng(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(200):
            box = rectangle(
                rng.uniform(100, 220), rng.uniform(100, 220),
                rng.uniform(16, 120), rng.uniform(16, 120), rng.uniform(0, 360),
            )
            rebuilt = midlines_to_box(box_to_midlines(box).ends)
            assert rotated_iou(box, rebuilt) > 0.999


# --- greedy matching in evaluate -------------------------------------------------


def test_matching_basic_tp_fp_fn():
    gts = [square(0, 0, 4), square(20, 0, 4)]
    dets = [square(0, 0, 4, score=0.9), square(40, 40, 4, score=0.8)]
    report = evaluate(dets, gts, iou_threshold=0.5)
    assert report.counts == {"class_0": (1, 1, 1)}


def test_matching_visits_higher_scores_first():
    gt = [square(0, 0, 4)]
    close = square(0.2, 0, 4, score=0.6)
    exact = square(0, 0, 4, score=0.9)
    report = evaluate([close, exact], gt, iou_threshold=0.5)
    # The exact box outranks the earlier, lower-scoring one; had the close
    # box claimed the ground truth first, the ranking FP-then-TP gives 0.5.
    assert report.counts == {"class_0": (1, 1, 0)}
    assert report.per_class_ap == {"class_0": 1.0}


def test_each_gt_matches_at_most_once():
    gt = [square(0, 0, 4)]
    dets = [square(0, 0, 4, score=0.9), square(0.1, 0, 4, score=0.8)]
    report = evaluate(dets, gt, iou_threshold=0.3)
    assert report.counts == {"class_0": (1, 1, 0)}


def test_difficult_gt_is_ignored_not_counted():
    gts = [square(0, 0, 4, difficult=True), square(20, 0, 4)]
    dets = [square(0, 0, 4, score=0.9)]
    report = evaluate(dets, gts, iou_threshold=0.5)
    # The match to difficult ground truth is neither a TP nor an FP, and only
    # the non-difficult box counts as a miss.
    assert report.counts == {"class_0": (0, 0, 1)}


def test_matching_respects_class():
    gts = [square(0, 0, 4, class_id=1)]
    dets = [square(0, 0, 4, class_id=0, score=0.9)]
    report = evaluate(dets, gts, iou_threshold=0.5)
    assert report.counts == {"class_0": (0, 1, 0), "class_1": (0, 0, 1)}


@pytest.fixture
def pair_calls(monkeypatch):
    """The (a, b) arguments of each rotated_iou_pairs call evaluate makes."""
    calls = []

    def counted(a, b):
        calls.append((a.copy(), b.copy()))
        return rotated_iou_pairs(a, b)

    monkeypatch.setattr(evaluation, "rotated_iou_pairs", counted)
    return calls


def test_evaluate_scores_exactly_the_candidate_pairs_in_one_call(pair_calls):
    gts = {"a": [square(0, 0, 4)], "b": [square(0, 0, 4), square(20, 0, 4, class_id=1)]}
    dets = {
        "a": [square(0, 0, 4, score=0.9), square(0, 0, 4, score=0.8)],
        "b": [square(40, 40, 4, score=0.7), square(20, 0, 4, class_id=1, score=0.6)],
    }
    report = evaluate(dets, gts, iou_threshold=0.5)
    assert report.counts == {"class_0": (1, 2, 1), "class_1": (1, 0, 0)}
    assert len(pair_calls) == 1
    det_xy, gt_xy = pair_calls[0]
    # a's two detections of its one box, then b's class-1 pair; b's far box and
    # its class-0 ground truth are no candidates.
    assert det_xy.tolist() == Boxes.of([dets["a"][0], dets["a"][1], dets["b"][1]]).corners.tolist()
    assert gt_xy.tolist() == Boxes.of([gts["a"][0], gts["a"][0], gts["b"][1]]).corners.tolist()


def test_taken_ground_truth_is_claimed_once_from_one_call(pair_calls):
    gt = [square(0, 0, 4)]
    dets = [square(0, 0, 4, score=0.9), square(0, 0, 4, score=0.8)]
    report = evaluate(dets, gt, iou_threshold=0.5)
    assert report.counts == {"class_0": (1, 1, 0)}
    # Both may_overlap pairs are scored up front, the second then finds its box taken.
    assert len(pair_calls) == 1
    assert pair_calls[0][0].tolist() == Boxes.of(dets).corners.tolist()
    assert pair_calls[0][1].tolist() == Boxes.of(gt * 2).corners.tolist()


def test_evaluate_with_no_candidate_pair(pair_calls):
    report = evaluate({}, {}, class_names=["plane"])
    assert report.counts == {"plane": (0, 0, 0)} and report.map_score == 0.0
    far = {"x": [square(0, 0, 4, score=0.9)], "y": [square(9, 9, 4, class_id=1, score=0.5)]}
    report = evaluate(far, {"x": [square(50, 50, 4)], "y": [square(9, 9, 4)]}, mode="text")
    assert report.counts == {"class_0": (0, 1, 2), "class_1": (0, 1, 0)}
    assert [len(a) for a, _ in pair_calls] == [0, 0]


# --- average_precision --------------------------------------------------------------


def test_ap_tp_then_fp_is_one():
    assert average_precision([True, False], [0.9, 0.8], n_gt=1) == 1.0


def test_ap_fp_then_tp_is_half():
    assert average_precision([False, True], [0.9, 0.8], n_gt=1) == 0.5


def test_ap_orders_by_score_not_input_position():
    # Same flags but scores flip the ranking.
    assert average_precision([True, False], [0.5, 0.9], n_gt=1) == 0.5


def test_ap_no_gt_with_fp_is_zero():
    assert average_precision([False], [0.9], n_gt=0) == 0.0


def test_ap_undefined_class_is_none():
    assert average_precision([], [], n_gt=0) is None


def loop_envelope_ap(tp_flags, scores, n_gt):
    """All-point AP with the precision envelope built by a reverse Python loop."""
    order = sorted(range(len(tp_flags)), key=lambda i: -scores[i])
    tp = np.cumsum([1.0 if tp_flags[i] else 0.0 for i in order])
    fp = np.cumsum([0.0 if tp_flags[i] else 1.0 for i in order])
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, np.finfo(np.float64).eps)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]).sum())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0, 1)), max_size=40),
       st.integers(1, 50))
def test_all_point_ap_is_the_loop_envelope_ap_bit_for_bit(ranked, n_gt):
    flags, scores = [f for f, _ in ranked], [s for _, s in ranked]
    n_gt = max(n_gt, sum(flags))
    assert average_precision(flags, scores, n_gt).hex() == loop_envelope_ap(flags, scores, n_gt).hex()


def test_ap_eleven_point_mode():
    assert average_precision([True, False], [0.9, 0.8], 1, mode="11-point") == pytest.approx(1.0)
    assert average_precision([False, True], [0.9, 0.8], 1, mode="11-point") == pytest.approx(0.5)
    with pytest.raises(ValueError):
        average_precision([True], [0.9], 1, mode="7-point")


def test_ap_eleven_point_perfect_ranking_is_exactly_one():
    # Eleven additions of 1 / 11 sum to 1.0000000000000002.
    assert average_precision([True], [0.9], 1, mode="11-point") == 1.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)), max_size=30),
    st.integers(0, 5),
    st.sampled_from(["all-point", "11-point"]),
)
def test_ap_stays_in_unit_interval(ranked, missed, mode):
    flags = [hit for hit, _ in ranked]
    ap = average_precision(flags, [score for _, score in ranked], sum(flags) + missed, mode)
    assert ap is None or 0.0 <= ap <= 1.0


def test_ap_partial_recall():
    # One of two objects found: all-point AP is recall * precision envelope.
    assert average_precision([True], [0.9], n_gt=2) == 0.5
    assert average_precision([True, False], [0.9, 0.8], n_gt=2) == 0.5


# --- evaluate -------------------------------------------------------------------


def test_ground_truth_as_detections_is_perfect():
    gts = {
        "img1": [square(0, 0, 6, class_id=0), square(20, 0, 6, class_id=1)],
        "img2": [square(5, 5, 8, class_id=0, difficult=True), square(30, 30, 6, class_id=0)],
    }
    dets = {k: list(v) for k, v in gts.items()}
    report = evaluate(dets, gts, mode="map", class_names=["a", "b"])
    assert report.map_score == 1.0
    assert report.per_class_ap == {"a": 1.0, "b": 1.0}
    text = evaluate(dets, gts, mode="text", class_names=["a", "b"])
    assert text.precision == 1.0 and text.recall == 1.0 and text.f1 == 1.0


def test_text_mode_half_recall():
    gts = [square(0, 0, 6), square(20, 0, 6)]
    dets = [square(0, 0, 6, score=0.9)]
    report = evaluate(dets, gts, mode="text", class_names=["text"])
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert report.f1 == pytest.approx(2.0 / 3.0)
    assert report.counts["text"] == (1, 0, 1)


def test_map_skips_classes_with_no_gt_and_no_dets():
    gts = [square(0, 0, 6, class_id=0)]
    dets = [square(0, 0, 6, class_id=0, score=0.9)]
    report = evaluate(dets, gts, mode="map", class_names=["a", "unused"])
    assert report.per_class_ap["a"] == 1.0
    assert report.per_class_ap["unused"] is None
    assert report.map_score == 1.0


def test_fp_on_class_without_gt_scores_zero():
    gts = [square(0, 0, 6, class_id=0)]
    dets = [
        square(0, 0, 6, class_id=0, score=0.9),
        square(40, 40, 6, class_id=1, score=0.8),
    ]
    report = evaluate(dets, gts, mode="map", class_names=["a", "b"])
    assert report.per_class_ap["b"] == 0.0
    assert report.map_score == 0.5


def test_matching_is_per_image():
    # A det in one image cannot claim a gt in another even if aligned.
    gts = {"i1": [square(0, 0, 6)], "i2": []}
    dets = {"i1": [], "i2": [square(0, 0, 6, score=0.9)]}
    report = evaluate(dets, gts, mode="map", class_names=["a"])
    assert report.per_class_ap["a"] == 0.0
    assert report.counts["a"] == (0, 1, 1)


def random_scene(rng, n_classes=3, n_images=4):
    """Images of boxes that overlap across classes, with jittered detections
    (some relabelled, scores on a coarse grid so ties occur) and stray ones;
    some images appear on one side only."""
    dets, gts = {}, {}
    for k in range(n_images):
        image_dets, image_gts = [], []
        for _ in range(int(rng.integers(0, 10))):
            centre, (w, h), angle = rng.uniform(0, 30, 2), rng.uniform(4, 12, 2), rng.uniform(0, 180)
            class_id = int(rng.integers(n_classes))
            image_gts.append(rectangle(
                *centre, w, h, angle, class_id=class_id, difficult=bool(rng.random() < 0.15)
            ))
            for _ in range(int(rng.integers(0, 3))):
                if rng.random() < 0.3:
                    class_id = int(rng.integers(n_classes))
                image_dets.append(rectangle(
                    *(centre + rng.normal(0, 1.5, 2)), w, h, angle + rng.normal(0, 5),
                    class_id=class_id, score=round(float(rng.random()), 1),
                ))
        for _ in range(int(rng.integers(0, 3))):
            image_dets.append(rectangle(
                *rng.uniform(0, 30, 2), 6, 6, class_id=int(rng.integers(n_classes)),
                score=round(float(rng.random()), 1),
            ))
        if rng.random() < 0.9:
            gts[f"img{k}"] = image_gts
        if rng.random() < 0.9:
            dets[f"img{k}"] = image_dets
    return dets, gts


@pytest.mark.parametrize("mode", ["map", "text"])
@pytest.mark.parametrize("ap_mode", ["all-point", "11-point"])
def test_classes_never_interact(mode, ap_mode):
    # Scoring all classes at once must give each class what scoring it alone gives.
    names = ["a", "b", "c"]
    rng = np.random.default_rng(7)
    for _ in range(40):
        dets, gts = random_scene(rng, len(names))
        report = evaluate(dets, gts, mode=mode, ap_mode=ap_mode, class_names=names)
        for class_id, name in enumerate(names):
            alone = evaluate(
                {k: [d for d in v if d.class_id == class_id] for k, v in dets.items()},
                {k: [g for g in v if g.class_id == class_id] for k, v in gts.items()},
                mode=mode, ap_mode=ap_mode, class_names=names,
            )
            assert report.counts[name] == alone.counts[name]
            if mode == "map":  # text mode reports no AP
                assert report.per_class_ap[name] == alone.per_class_ap[name]


def test_unknown_class_raises():
    gts = [square(0, 0, 6, class_id=0)]
    dets = [square(0, 0, 6, class_id=3, score=0.5)]
    with pytest.raises(UnknownClass):
        evaluate(dets, gts, mode="map", class_names=["a"])


def test_evaluate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        evaluate([], [], mode="coco")


def test_report_table_and_json():
    gts = [square(0, 0, 6, class_id=0), square(20, 0, 6, class_id=1)]
    dets = [square(0, 0, 6, class_id=0, score=0.9)]
    report = evaluate(dets, gts, mode="map", class_names=["ship", "plane"])
    table = report.format_table()
    lines = table.splitlines()
    assert lines[0].split() == ["class", "ap", "tp", "fp", "fn"]
    assert any(line.startswith("mAP") for line in lines)
    payload = report.to_json_dict()
    assert payload["mode"] == "map"
    assert set(payload["per_class_ap"]) == {"ship", "plane"}

    text_report = evaluate(dets, gts, mode="text", class_names=["ship", "plane"])
    assert "F1=" in text_report.format_table()
    assert "f1" in text_report.to_json_dict()


def test_images_empty_on_both_sides_score_nothing():
    report = evaluate({"a": [], "b": []}, {"b": []}, class_names=["x"])
    assert report.counts == {"x": (0, 0, 0)} and report.map_score == 0.0
    assert evaluate([], []).counts == {}
