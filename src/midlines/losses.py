"""Training losses over the encoded maps, with analytic gradients.

All functions are pure numpy in float64 and return both the scalar value
and the gradient with respect to the prediction arrays, so the whole suite
can be verified against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import TargetMaps
from .errors import NonBinaryGroundTruth, ShapeMismatch

CLAMP_EPS = 1e-7

# Regression channel indices: (dx1, dy1, dx2, dy2) for line 1, then line 2.
_L1_EP1_X, _L1_EP1_Y, _L1_EP2_X, _L1_EP2_Y = 0, 1, 2, 3
_L2_EP1_X, _L2_EP1_Y, _L2_EP2_X, _L2_EP2_Y = 4, 5, 6, 7


@dataclass(frozen=True)
class LossWeights:
    """Loss configuration.

    alpha_focal is the heatmap focusing exponent; alpha and beta weight the
    collinearity and perpendicularity terms inside the line loss; gamma
    weights the whole line loss against the heatmap loss. text_mode shields
    the perpendicularity term entirely (curved text has no right angles
    between its midlines).
    """

    alpha_focal: float = 2.0
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.5
    text_mode: bool = False

    def __post_init__(self):
        for name in ("alpha_focal", "alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class LossValue:
    """A loss total with its components and its gradient grids.

    For total_loss outputs, total = ip + gamma * (l1 + alpha * l2 + beta * l3),
    with the l3 term dropped in text mode. line_loss outputs carry ip = 0 and
    total = l1 + alpha * l2 + beta * l3 (no gamma; that is applied by
    total_loss).
    """

    total: float
    ip: float
    l1: float
    l2: float
    l3: float
    gradients: dict[str, np.ndarray] = field(default_factory=dict)


def _smooth_l1_arrays(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth L1 of a difference array and its derivative: (values, dvalues/dx).

    0.5 * x^2 inside |x| < 1, |x| - 0.5 outside.
    """
    ax = np.abs(x)
    quad = ax < 1.0
    value = np.where(quad, 0.5 * x * x, ax - 0.5)
    grad = np.where(quad, x, np.sign(x))
    return value, grad


def _check_mask(shape: tuple[int, ...], mask: np.ndarray) -> np.ndarray:
    if mask.shape != shape[1:]:
        raise ShapeMismatch(f"mask shape {mask.shape} for maps {shape}")
    return mask.astype(bool)


def focal_ip_loss(
    pred_hm: np.ndarray,
    gt_hm: np.ndarray,
    n_objects: int,
    alpha_focal: float = 2.0,
) -> tuple[float, np.ndarray]:
    """Focal intersection-point heatmap loss.

    -(1/N) * sum over cells of (1 - p)^a * log(p) at positives and
    p^a * log(1 - p) at negatives. Predictions are clamped to
    [eps, 1 - eps] before the logs; where the clamp is active the gradient
    is zero.
    """
    if pred_hm.shape != gt_hm.shape:
        raise ShapeMismatch(f"pred {pred_hm.shape} vs gt {gt_hm.shape}")
    if not np.isin(gt_hm, (0.0, 1.0)).all():
        raise NonBinaryGroundTruth("heatmap targets must be exactly 0 or 1")
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    a = alpha_focal
    inside = (pred_hm > CLAMP_EPS) & (pred_hm < 1.0 - CLAMP_EPS)
    p = np.clip(pred_hm, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pos = gt_hm == 1.0
    one_m_p = 1.0 - p
    log_p = np.log(p)
    log_1mp = np.log(one_m_p)
    value = -(
        np.where(pos, one_m_p**a * log_p, p**a * log_1mp).sum()
    ) / n_objects
    grad_pos = -(one_m_p**a / p - a * one_m_p ** (a - 1.0) * log_p)
    grad_neg = -(a * p ** (a - 1.0) * log_1mp - p**a / one_m_p)
    grad = np.where(pos, grad_pos, grad_neg) * inside / n_objects
    return float(value), grad


def endpoint_loss(
    pred_reg: np.ndarray,
    target_reg: np.ndarray,
    mask: np.ndarray,
    n_objects: int,
) -> tuple[float, np.ndarray]:
    """Smooth L1 over all eight offset channels at masked cells, / N."""
    if pred_reg.shape != target_reg.shape:
        raise ShapeMismatch(f"pred {pred_reg.shape} vs target {target_reg.shape}")
    m = _check_mask(pred_reg.shape, mask)
    n = max(n_objects, 1)
    value, grad = _smooth_l1_arrays(pred_reg - target_reg)
    value = value * m
    grad = grad * m / n
    return float(value.sum() / n), grad


def collinear_loss(
    pred_reg: np.ndarray,
    mask: np.ndarray,
    n_objects: int,
) -> tuple[float, np.ndarray]:
    """Penalty for a cell and its two predicted endpoints leaving one line.

    Per line, smooth L1 between the cross products dx_ep1 * dy_ep2 and
    dx_ep2 * dy_ep1 of the offset vectors; exactly zero when the offsets
    are antiparallel (the cell sits on the line through both endpoints).
    """
    m = _check_mask(pred_reg.shape, mask)
    n = max(n_objects, 1)
    total = 0.0
    grad = np.zeros_like(pred_reg)
    for base in (0, 4):
        x1, y1 = pred_reg[base + 0], pred_reg[base + 1]
        x2, y2 = pred_reg[base + 2], pred_reg[base + 3]
        value, s = _smooth_l1_arrays(x1 * y2 - x2 * y1)
        total += float((value * m).sum())
        s = s * m / n
        grad[base + 0] += s * y2
        grad[base + 3] += s * x1
        grad[base + 2] -= s * y1
        grad[base + 1] -= s * x2
    return total / n, grad


def vertical_loss(
    pred_reg: np.ndarray,
    mask: np.ndarray,
    n_objects: int,
) -> tuple[float, np.ndarray]:
    """Penalty for the two first-endpoint offsets leaving a right angle.

    Smooth L1 between dot(offset to l1 ep1, offset to l2 ep1) and zero.
    """
    m = _check_mask(pred_reg.shape, mask)
    n = max(n_objects, 1)
    ax, ay = pred_reg[_L1_EP1_X], pred_reg[_L1_EP1_Y]
    bx, by = pred_reg[_L2_EP1_X], pred_reg[_L2_EP1_Y]
    value, s = _smooth_l1_arrays(ax * bx + ay * by)
    s = s * m / n
    grad = np.zeros_like(pred_reg)
    grad[_L1_EP1_X] = s * bx
    grad[_L1_EP1_Y] = s * by
    grad[_L2_EP1_X] = s * ax
    grad[_L2_EP1_Y] = s * ay
    return float((value * m).sum() / n), grad


def line_loss(
    pred_reg: np.ndarray,
    target_reg: np.ndarray,
    mask: np.ndarray,
    n_objects: int,
    weights: LossWeights = LossWeights(),
) -> LossValue:
    """Endpoint + alpha * collinearity + beta * perpendicularity.

    In text mode the perpendicularity term is shielded: its value is still
    reported, but it contributes nothing to total or gradient.
    """
    v1, g1 = endpoint_loss(pred_reg, target_reg, mask, n_objects)
    v2, g2 = collinear_loss(pred_reg, mask, n_objects)
    v3, g3 = vertical_loss(pred_reg, mask, n_objects)
    beta = 0.0 if weights.text_mode else weights.beta
    total = v1 + weights.alpha * v2 + beta * v3
    grad = g1 + weights.alpha * g2 + beta * g3
    return LossValue(
        total=total, ip=0.0, l1=v1, l2=v2, l3=v3, gradients={"regression": grad}
    )


def total_loss(
    pred: TargetMaps,
    target: TargetMaps,
    weights: LossWeights = LossWeights(),
) -> LossValue:
    """Full objective: focal heatmap loss + gamma * line loss, both branches.

    The normalizer N is max(target.n_objects, 1) and is shared by every
    term. Gradients come back under keys "heatmap" and "regression" in the
    prediction's shapes.
    """
    if pred.heatmap.shape != target.heatmap.shape:
        raise ShapeMismatch(
            f"heatmap {pred.heatmap.shape} vs {target.heatmap.shape}"
        )
    if pred.regression.shape != target.regression.shape:
        raise ShapeMismatch(
            f"regression {pred.regression.shape} vs {target.regression.shape}"
        )
    n = max(target.n_objects, 1)
    ip_total = line_total = 0.0
    l1_total = l2_total = l3_total = 0.0
    hm_grad = np.zeros_like(pred.heatmap)
    reg_grad = np.zeros_like(pred.regression)
    for b in range(2):
        ip_v, hm_grad[b] = focal_ip_loss(
            pred.heatmap[b], target.heatmap[b], n, weights.alpha_focal
        )
        line = line_loss(
            pred.regression[b], target.regression[b], target.reg_mask[b], n, weights
        )
        ip_total += ip_v
        line_total += line.total
        l1_total += line.l1
        l2_total += line.l2
        l3_total += line.l3
        reg_grad[b] = weights.gamma * line.gradients["regression"]
    return LossValue(
        total=ip_total + weights.gamma * line_total,
        ip=ip_total, l1=l1_total, l2=l2_total, l3=l3_total,
        gradients={"heatmap": hm_grad, "regression": reg_grad},
    )
