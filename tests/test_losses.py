import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlines.encoder import TargetMaps, encode_image
from midlines.errors import NonBinaryGroundTruth, ShapeMismatch
from midlines.geometry import rectangle
from midlines.losses import (
    _FOCAL_BLOCK,
    _smooth_l1_arrays,
    CLAMP_EPS,
    LossWeights,
    collinear_loss,
    endpoint_loss,
    focal_ip_loss,
    line_loss,
    total_loss,
    vertical_loss,
)

HAND_FOCAL = 0.1732867951399863  # -(1/4) * ln(1/2)


def single_cell_reg(values):
    reg = np.zeros((8, 1, 1))
    reg[:, 0, 0] = values
    return reg


ONE_CELL_MASK = np.ones((1, 1), dtype=bool)

# Offsets of one cell with hand-computable line-loss terms: collinearity
# |30 * 0 - (-30) * 1| - 0.5 = 29.5 (line 2 is antiparallel, 0) and
# perpendicularity |30 * 0 + 1 * (-5)| - 0.5 = 4.5. A target 0.5 off in one
# channel adds an endpoint term of 0.5 * 0.5^2 = 0.125.
HAND_PRED = [30, 1, -30, 0, 0, -5, 0, 5]
HAND_TARGET = [29.5, 1, -30, 0, 0, -5, 0, 5]


def one_channel_endpoint(pred, target):
    """endpoint_loss over one channel of one cell: the bare smooth L1."""
    value, grad = endpoint_loss(np.full((1, 1, 1), pred), np.full((1, 1, 1), target), 1)
    return value, float(grad[0, 0, 0])


# --- smooth L1, through endpoint_loss --------------------------------------------


def test_smooth_l1_hand_values():
    assert one_channel_endpoint(3.5, 3.0) == (0.125, 0.5)
    assert one_channel_endpoint(5.0, 3.0) == (1.5, 1.0)
    assert one_channel_endpoint(3.0, 3.0) == (0.0, 0.0)
    assert one_channel_endpoint(2.0, 3.0) == (0.5, -1.0)


def test_smooth_l1_is_continuous_at_the_kink():
    below, _ = one_channel_endpoint(1.0 - 1e-12, 0.0)
    at, slope = one_channel_endpoint(1.0, 0.0)
    assert at == 0.5
    assert slope == 1.0
    assert abs(below - at) < 1e-11


@given(x=st.floats(min_value=-50, max_value=50))
def test_smooth_l1_non_negative_and_even(x):
    v_pos, _ = one_channel_endpoint(x, 0.0)
    v_neg, _ = one_channel_endpoint(-x, 0.0)
    assert v_pos >= 0.0
    assert v_pos == v_neg


def test_smooth_l1_matches_the_where_statement_bit_for_bit():
    # The special values at and around the kink, zeros, infinities, NaNs
    # with payloads and subnormals, then normal draws of several scales.
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [
        0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.inf, tiny, 2.2e-308, 0.5, 3.0,
    ]
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001], dtype=np.uint64)
    rng = np.random.default_rng(5)
    x = np.concatenate([
        special, np.negative(special), nans.view(np.float64), (nans | (1 << 63)).view(np.float64),
        rng.normal(size=100_000) * rng.choice([1e-3, 1.0, 3.0, 1e6], size=100_000),
    ])
    with np.errstate(invalid="ignore"):  # the signalling NaN
        value, grad = _smooth_l1_arrays(x)
        ax = np.abs(x)
        quad = ax < 1.0
        assert value.tobytes() == np.where(quad, 0.5 * x * x, ax - 0.5).tobytes()
        assert grad.tobytes() == np.where(quad, x, np.sign(x)).tobytes()


# --- focal_ip_loss ---------------------------------------------------------------


def test_focal_hand_value_positive_cell():
    value, _ = focal_ip_loss(np.array([[0.5]]), np.array([[1.0]]), 1)
    assert abs(value - HAND_FOCAL) < 1e-6


def test_focal_hand_value_negative_cell_is_symmetric():
    value, _ = focal_ip_loss(np.array([[0.5]]), np.array([[0.0]]), 1)
    assert abs(value - HAND_FOCAL) < 1e-6


def test_focal_near_perfect_prediction_is_near_zero():
    gt = np.array([[1.0, 0.0], [0.0, 1.0]])
    pred = np.where(gt == 1.0, 1.0 - 1e-6, 1e-6)
    value, _ = focal_ip_loss(pred, gt, 1)
    assert 0.0 <= value < 1e-9


def test_focal_rejects_non_binary_targets():
    with pytest.raises(NonBinaryGroundTruth):
        focal_ip_loss(np.array([[0.5]]), np.array([[0.7]]), 1)


def test_focal_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        focal_ip_loss(np.zeros((2, 2)) + 0.5, np.zeros((2, 3)), 1)


def test_focal_rejects_non_positive_n():
    with pytest.raises(ValueError):
        focal_ip_loss(np.array([[0.5]]), np.array([[1.0]]), 0)


def test_focal_scales_inversely_with_n():
    pred = np.full((3, 3), 0.4)
    gt = np.eye(3)
    v1, g1 = focal_ip_loss(pred, gt, 1)
    v2, g2 = focal_ip_loss(pred, gt, 2)
    assert abs(v1 - 2 * v2) < 1e-12
    np.testing.assert_allclose(g1, 2 * g2, atol=1e-15)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_focal_is_non_negative(seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(1e-6, 1 - 1e-6, (3, 4))
    gt = (rng.random((3, 4)) < 0.4).astype(float)
    value, _ = focal_ip_loss(pred, gt, 2)
    assert value >= 0.0


def dense_focal(pred_hm, gt_hm, n_objects, alpha_focal):
    """focal_ip_loss as one dense pass over the whole heatmap, operation for
    operation: the statement the blocked evaluation must reproduce."""
    pos = gt_hm == 1.0
    a = alpha_focal
    inside = (pred_hm > CLAMP_EPS) & (pred_hm < 1.0 - CLAMP_EPS)
    q = np.clip(pred_hm, CLAMP_EPS, 1.0 - CLAMP_EPS)
    miss = q.copy()
    np.subtract(1.0, q, out=miss, where=pos)
    np.subtract(1.0, q, out=q, where=~pos)
    log_q = np.log(q)
    grad = miss**a
    np.power(miss, a - 1.0, out=miss)
    miss *= a
    miss *= log_q
    log_q *= grad
    value = -float(log_q.sum()) / n_objects
    grad /= q
    grad -= miss
    np.negative(grad, out=grad, where=pos)
    grad *= inside
    grad /= n_objects
    return value, grad


# Predictions at and beyond both clamps, at the extremes and NaN.
EDGE_PREDICTIONS = [CLAMP_EPS, 1.0 - CLAMP_EPS, 0.0, 1.0, -0.25, 1.25, -np.inf, np.inf, np.nan]


@pytest.mark.parametrize("alpha_focal", [0.0, 0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("shape", [
    (1,), (3, 5, 7), (_FOCAL_BLOCK - 1,), (_FOCAL_BLOCK,), (2, 15, 40, 40),
    (3 * _FOCAL_BLOCK - 5,), (0,), (2, 0, 4), (2, 15, 200, 200),
], ids=["one-cell", "below-a-block", "block-less-one", "one-block", "ragged-4d",
        "ragged-three-blocks", "empty", "empty-4d", "training-tile"])
def test_focal_matches_the_dense_statement_bit_for_bit(shape, alpha_focal):
    rng = np.random.default_rng(len(shape) * 1000 + int(np.prod(shape)))
    pred = rng.uniform(0.0, 1.0, shape)
    gt = (rng.random(shape) < 0.01).astype(float)
    p, g = pred.reshape(-1), gt.reshape(-1)
    # Positives on the first and last cell of every block and of the heatmap.
    edges = [i for b in range(0, p.size, _FOCAL_BLOCK) for i in (b, b + _FOCAL_BLOCK - 1)]
    g[[i for i in edges + [p.size - 1] if 0 <= i < p.size]] = 1.0
    # Every edge prediction at a positive and at a negative, at both ends.
    for k, value in enumerate(EDGE_PREDICTIONS):
        for i, label in ((2 * k, 1.0), (2 * k + 1, 0.0), (p.size - 1 - 2 * k, 1.0), (p.size - 2 - 2 * k, 0.0)):
            if 0 <= i < p.size:
                p[i], g[i] = value, label
    n = 3
    with np.errstate(all="ignore"):
        value, grad = focal_ip_loss(pred, gt, n, alpha_focal)
        expected_value, expected_grad = dense_focal(pred, gt, n, alpha_focal)
    assert value == expected_value or (math.isnan(value) and math.isnan(expected_value))
    assert grad.shape == shape and grad.dtype == expected_grad.dtype
    np.testing.assert_array_equal(grad, expected_grad)
    finite = ~np.isnan(expected_grad)
    np.testing.assert_array_equal(np.signbit(grad[finite]), np.signbit(expected_grad[finite]))


@pytest.mark.parametrize("size", [3 * _FOCAL_BLOCK - 5, 5 * _FOCAL_BLOCK + 12])
def test_focal_sum_follows_numpys_pairwise_order(size):
    # Predictions spread over seven decades give terms whose sum rounds
    # differently in about half of the draws when the cells are split
    # other than where numpy splits them (these sizes split off the
    # halfway point), so twelve draws make a wrong order show.
    rng = np.random.default_rng(size)
    for _ in range(12):
        pred = 10.0 ** -rng.uniform(0.0, 7.0, size)
        gt = (rng.random(size) < 0.01).astype(float)
        value, _ = focal_ip_loss(pred, gt, 1)
        assert value == dense_focal(pred, gt, 1, 2.0)[0]


def test_focal_peak_memory_stays_near_the_gradient():
    # A training tile: 2 branches x 15 classes x 200 x 200 cells, 0.3% positive.
    # The gradient and a block's scratch; an array of every cell's term
    # would double the peak.
    rng = np.random.default_rng(0)
    gt = (rng.random((2, 15, 200, 200)) < 0.003).astype(float)
    pred = gt * 0.8 + rng.uniform(0.02, 0.15, gt.shape)
    tracemalloc.start()
    try:
        focal_ip_loss(pred, gt, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * gt.nbytes, peak / gt.nbytes



@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("alpha_focal", [2.0, 3.5])
@pytest.mark.parametrize("bad", [0.0, CLAMP_EPS, 1.0 - CLAMP_EPS / 2, 1.0, -np.inf, np.inf, np.nan])
def test_focal_in_range_and_clamped_blocks_in_one_call(bad, alpha_focal, dtype):
    # 4 x 21,600 cells: numpy's pairwise sum cuts four leaves. Leaves 0 and 2
    # lie wholly inside the clamps; leaf 1 holds one clamped, infinite or
    # NaN cell at a negative mid-leaf, and leaf 3 the same at a positive.
    leaf = 21_600
    rng = np.random.default_rng(7)
    pred = rng.uniform(0.01, 0.99, (2, 3, 120, 120)).astype(dtype)
    gt = (rng.random(pred.shape) < 0.01).astype(float)
    p, g = pred.reshape(-1), gt.reshape(-1)
    for at, label in ((leaf + leaf // 2 + 3, 0.0), (3 * leaf + leaf // 2 + 5, 1.0)):
        p[at], g[at] = bad, label
    with np.errstate(all="ignore"):
        value, grad = focal_ip_loss(pred, gt, 3, alpha_focal)
        expected_value, expected_grad = dense_focal(pred, gt, 3, alpha_focal)
    assert value == expected_value or (math.isnan(value) and math.isnan(expected_value))
    assert grad.dtype == expected_grad.dtype
    np.testing.assert_array_equal(grad, expected_grad)
    finite = ~np.isnan(expected_grad)
    np.testing.assert_array_equal(np.signbit(grad[finite]), np.signbit(expected_grad[finite]))


@pytest.mark.parametrize("alpha_focal", [float("nan"), float("inf"), -1.0])
def test_focal_rejects_the_exponents_loss_weights_rejects(alpha_focal):
    # These used to give a NaN loss, a -0.0 loss with a non-finite gradient,
    # or a value.
    pred, gt = np.full((2, 3), 0.4), np.eye(2, 3)
    with pytest.raises(ValueError) as err:
        focal_ip_loss(pred, gt, 2, alpha_focal)
    assert str(err.value) == f"alpha_focal must be finite and non-negative, got {alpha_focal}"

# --- endpoint_loss ---------------------------------------------------------------


def test_endpoint_loss_zero_at_truth_on_encoded_maps():
    box = rectangle(101.5, 97.0, 80, 30, angle_deg=25)
    maps = encode_image([box], 256, 256, num_classes=1)
    for b in range(2):
        offsets = maps.regression[b][:, maps.reg_mask[b]]
        value, grad = endpoint_loss(offsets, offsets, maps.n_objects)
        assert value == 0.0
        assert not grad.any()


def test_endpoint_loss_hand_arithmetic():
    target = single_cell_reg([0.0] * 8)
    pred = single_cell_reg([3.5 - 3.0, 0, 0, 0, 2.0, 0, 0, 0])
    value, _ = endpoint_loss(pred, target, 1)
    assert abs(value - (0.125 + 1.5)) < 1e-12


# --- collinear_loss --------------------------------------------------------------


def test_collinear_hand_value():
    reg = single_cell_reg([30, 1, -30, 0, 0, -5, 0, 5])
    value, _ = collinear_loss(reg, 1)
    assert abs(value - 29.5) < 1e-9


def test_collinear_zero_for_antiparallel_offsets():
    reg = single_cell_reg([30, 0, -30, 0, 0, -20, 0, 20])
    value, grad = collinear_loss(reg, 1)
    assert value == 0.0
    assert not grad.any()


@given(
    ex=st.floats(min_value=-40, max_value=40),
    ey=st.floats(min_value=-40, max_value=40),
    scale=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=100)
def test_collinear_zero_whenever_second_endpoint_opposes_first(ex, ey, scale):
    values = [ex, ey, -scale * ex, -scale * ey, 5.0, 1.0, -5.0, -1.0]
    value, _ = collinear_loss(single_cell_reg(values), 1)
    assert abs(value) < 1e-9


def test_collinear_grows_as_endpoint_rotates_off_the_line():
    # Rotate ep1 of line 1 away from the line through ep2 and the cell.
    previous = -1.0
    for phi_deg in range(2, 60, 4):
        phi = math.radians(phi_deg)
        ep1 = (20 * math.cos(phi), 20 * math.sin(phi))
        values = [ep1[0], ep1[1], -20, 0, 3, -4, -3, 4]
        value, _ = collinear_loss(single_cell_reg(values), 1)
        assert value > previous
        previous = value


# --- vertical_loss ---------------------------------------------------------------


def test_vertical_hand_value():
    reg = single_cell_reg([30, 0, -30, 0, 2, -20, -2, 20])
    value, _ = vertical_loss(reg, 1)
    assert abs(value - 59.5) < 1e-9


def test_vertical_zero_for_perpendicular_offsets():
    reg = single_cell_reg([30, 0, -30, 0, 0, -20, 0, 20])
    value, grad = vertical_loss(reg, 1)
    assert value == 0.0
    assert not grad.any()


# --- line_loss -------------------------------------------------------------------


def test_line_loss_ignores_unmasked_cells():
    pred = np.full((8, 2, 2), 100.0)
    target = np.zeros((8, 2, 2))
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = True
    out = line_loss(pred, target, mask, 1)
    assert abs(out.l1 - 8 * 99.5) < 1e-12
    assert not out.gradients["regression"][:, ~mask].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_line_loss_ignores_non_finite_offsets_at_unmasked_cells(bad):
    rng = np.random.default_rng(7)
    pred = rng.uniform(-20, 20, (8, 3, 4))
    target = rng.normal(0, 10, (8, 3, 4))
    mask = rng.random((3, 4)) < 0.5
    mask[0, 0], mask[2, 3] = True, False
    clean = line_loss(pred, target, mask, 2)
    pred[:, 2, 3] = bad
    out = line_loss(pred, target, mask, 2)
    assert (out.total, out.l1, out.l2, out.l3) == (clean.total, clean.l1, clean.l2, clean.l3)
    assert np.isfinite(out.gradients["regression"]).all()
    assert not out.gradients["regression"][:, ~mask].any()


def test_line_loss_rejects_bad_mask_shape():
    maps = np.zeros((8, 2, 2))
    with pytest.raises(ShapeMismatch):
        line_loss(maps, maps, np.zeros((3, 2), bool), 1)
    with pytest.raises(ShapeMismatch):
        line_loss(maps, np.zeros((8, 2, 3)), np.zeros((2, 2), bool), 1)
    with pytest.raises(ShapeMismatch):
        line_loss(maps[:7], maps[:7], np.zeros((2, 2), bool), 1)


def test_line_loss_weighted_sum_identity():
    rng = np.random.default_rng(3)
    pred = rng.uniform(-20, 20, (8, 3, 4))
    target = rng.normal(0, 10, (8, 3, 4))
    mask = rng.random((3, 4)) < 0.7
    for alpha, beta in ((1.0, 1.0), (0.5, 2.0), (0.0, 3.0)):
        out = line_loss(pred, target, mask, 2, LossWeights(alpha=alpha, beta=beta))
        assert abs(out.total - (out.l1 + alpha * out.l2 + beta * out.l3)) < 1e-12
        assert out.ip == 0.0


def test_line_loss_worked_arithmetic():
    pred, target = single_cell_reg(HAND_PRED), single_cell_reg(HAND_TARGET)
    out = line_loss(pred, target, ONE_CELL_MASK, 1, LossWeights(alpha=0.5, beta=2.0))
    assert (out.l1, out.l2, out.l3) == (0.125, 29.5, 4.5)
    assert out.total == 0.125 + 0.5 * 29.5 + 2.0 * 4.5 == 23.875
    text = line_loss(
        pred, target, ONE_CELL_MASK, 1, LossWeights(alpha=0.5, beta=2.0, text_mode=True)
    )
    assert text.total == 0.125 + 0.5 * 29.5 == 14.875


def test_line_loss_text_mode_drops_the_vertical_term():
    rng = np.random.default_rng(4)
    pred = rng.uniform(-20, 20, (8, 2, 2))
    target = rng.normal(0, 10, (8, 2, 2))
    mask = np.ones((2, 2), bool)
    plain = line_loss(pred, target, mask, 1, LossWeights(beta=5.0))
    text = line_loss(pred, target, mask, 1, LossWeights(beta=5.0, text_mode=True))
    assert text.l3 == plain.l3  # still reported
    assert abs(text.total - (text.l1 + text.l2)) < 1e-12
    assert plain.total > text.total
    v1, g1 = endpoint_loss(pred, target, 1)
    v2, g2 = collinear_loss(pred, 1)
    np.testing.assert_allclose(text.gradients["regression"], g1 + g2, atol=1e-15)


def test_zero_at_truth_for_lattice_aligned_thin_rect():
    # One-cell drift region with the center on the stride lattice: the
    # offsets are antisymmetric, so both regularizers vanish at truth.
    box = rectangle(100, 100, 100, 6)
    maps = encode_image([box], 256, 256, num_classes=1)
    b = 0 if maps.heatmap[0].sum() else 1
    assert int(maps.reg_mask[b].sum()) == 1
    out = line_loss(
        maps.regression[b], maps.regression[b], maps.reg_mask[b], 1, LossWeights()
    )
    assert out.total == 0.0
    assert (out.l1, out.l2, out.l3) == (0.0, 0.0, 0.0)


def test_regularizers_are_active_off_center_even_at_truth():
    # Off-center drift cells are not collinear with the endpoints, so the
    # collinearity term penalizes them even for perfect predictions.
    box = rectangle(100, 100, 60, 40)
    maps = encode_image([box], 256, 256, num_classes=1)
    b = 0
    assert int(maps.reg_mask[b].sum()) > 1
    out = line_loss(
        maps.regression[b], maps.regression[b], maps.reg_mask[b], 1, LossWeights()
    )
    assert out.l1 == 0.0
    assert out.l2 > 0.0


# --- total_loss ------------------------------------------------------------------


def random_prediction(maps, seed=0):
    rng = np.random.default_rng(seed)
    pred_hm = rng.uniform(0.01, 0.99, maps.heatmap.shape)
    pred_reg = rng.uniform(-30, 30, maps.regression.shape)
    import copy

    pred = copy.copy(maps)
    pred.heatmap = pred_hm
    pred.regression = pred_reg
    return pred


def test_total_loss_decomposition_identity():
    boxes = [rectangle(100, 100, 60, 24, angle_deg=20), rectangle(50, 180, 40, 18)]
    target = encode_image(boxes, 256, 256, num_classes=2)
    pred = random_prediction(target, seed=11)
    for weights in (
        LossWeights(),
        LossWeights(alpha=0.3, beta=2.0, gamma=0.25),
        LossWeights(text_mode=True),
        LossWeights(gamma=0.0),
    ):
        out = total_loss(pred, target, weights)
        beta = 0.0 if weights.text_mode else weights.beta
        expected = out.ip + weights.gamma * (
            out.l1 + weights.alpha * out.l2 + beta * out.l3
        )
        assert abs(out.total - expected) <= 1e-12 * max(1.0, abs(out.total))


def one_cell_maps(heatmap, regression, mask):
    """One-class, one-cell maps; both branches given as [horizontal, oriented]."""
    return TargetMaps(
        stride=4, num_classes=1, width=1, height=1, image_w=4, image_h=4,
        heatmap=np.asarray(heatmap, dtype=float).reshape(2, 1, 1, 1),
        regression=np.stack([single_cell_reg(r) for r in regression]),
        reg_mask=np.asarray(mask, dtype=bool).reshape(2, 1, 1),
        n_objects=1,
    )


def test_total_loss_worked_arithmetic():
    # Horizontal branch: a positive cell predicted at 0.5 with the hand line
    # terms above. Oriented branch: a negative cell at 0.5, no regression.
    target = one_cell_maps([1.0, 0.0], [HAND_TARGET, [0] * 8], [True, False])
    pred = one_cell_maps([0.5, 0.5], [HAND_PRED, [7] * 8], [True, False])
    weights = LossWeights(alpha=0.5, beta=2.0, gamma=0.5)
    out = total_loss(pred, target, weights)
    assert out.ip == pytest.approx(2 * HAND_FOCAL, abs=1e-12)
    assert (out.l1, out.l2, out.l3) == (0.125, 29.5, 4.5)
    assert out.total == pytest.approx(2 * HAND_FOCAL + 0.5 * 23.875, abs=1e-12)
    line = line_loss(pred.regression[0], target.regression[0], ONE_CELL_MASK, 1, weights)
    np.testing.assert_array_equal(
        out.gradients["regression"][0], 0.5 * line.gradients["regression"]
    )
    assert not out.gradients["regression"][1].any()


def test_total_loss_gradient_shapes_and_optionality():
    target = encode_image([rectangle(100, 100, 60, 24)], 256, 256, num_classes=1)
    pred = random_prediction(target, seed=2)
    out = total_loss(pred, target)
    assert out.gradients["heatmap"].shape == pred.heatmap.shape
    assert out.gradients["regression"].shape == pred.regression.shape


def test_total_loss_text_mode_shields_vertical_gradient():
    target = encode_image([rectangle(100, 100, 60, 24, angle_deg=30)], 256, 256, num_classes=1)
    pred = random_prediction(target, seed=5)
    out = total_loss(pred, target, LossWeights(text_mode=True, beta=9.0))
    assert out.l3 == pytest.approx(
        sum(vertical_loss(pred.regression[b][:, target.reg_mask[b]], 1)[0] for b in range(2))
    )
    # Gradient must match the beta = 0 configuration exactly.
    base = total_loss(pred, target, LossWeights(beta=0.0))
    np.testing.assert_array_equal(
        out.gradients["regression"], base.gradients["regression"]
    )


def test_both_branches_in_one_pass_equal_the_per_branch_losses():
    boxes = [rectangle(100, 100, 60, 24, angle_deg=20), rectangle(50, 180, 40, 18)]
    target = encode_image(boxes, 256, 256, num_classes=2)
    assert target.reg_mask[0].any() and target.reg_mask[1].any()
    pred = random_prediction(target, seed=13)
    weights = LossWeights(alpha=0.3, beta=2.0, gamma=0.25)
    n = target.n_objects
    focal = [focal_ip_loss(pred.heatmap[b], target.heatmap[b], n) for b in range(2)]
    lines = [
        line_loss(pred.regression[b], target.regression[b], target.reg_mask[b], n, weights)
        for b in range(2)
    ]
    both = line_loss(pred.regression, target.regression, target.reg_mask, n, weights)
    out = total_loss(pred, target, weights)
    for key in ("total", "l1", "l2", "l3"):
        expected = sum(getattr(line, key) for line in lines)
        assert getattr(both, key) == pytest.approx(expected, rel=1e-12, abs=0)
    for key in ("l1", "l2", "l3"):
        assert getattr(out, key) == pytest.approx(getattr(both, key), rel=1e-12, abs=0)
    ip = focal[0][0] + focal[1][0]
    assert out.ip == pytest.approx(ip, rel=1e-12, abs=0)
    assert out.total == pytest.approx(ip + 0.25 * both.total, rel=1e-12, abs=0)
    reg_grads = np.stack([line.gradients["regression"] for line in lines])
    np.testing.assert_array_equal(both.gradients["regression"], reg_grads)
    np.testing.assert_array_equal(out.gradients["regression"], 0.25 * reg_grads)
    np.testing.assert_array_equal(out.gradients["heatmap"], np.stack([g for _, g in focal]))


def test_loss_weights_validated():
    with pytest.raises(ValueError):
        LossWeights(gamma=-0.1)


@pytest.mark.parametrize("name", ["alpha_focal", "alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_loss_weights_must_be_finite_and_non_negative(name, value):
    # A NaN weight used to pass the `< 0` check and turn every loss it
    # weights into NaN.
    with pytest.raises(ValueError, match=name):
        LossWeights(**{name: value})
    LossWeights(**{name: 0.0})
