"""Training losses over the encoded maps, with analytic gradients.

All functions are pure numpy in float64 and return both the scalar value
and the gradient with respect to the prediction arrays, so the whole suite
can be verified against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import Cells, TargetMaps, _offsets
from .errors import NonBinaryGroundTruth, ShapeMismatch

CLAMP_EPS = 1e-7

# Regression channel indices: (dx1, dy1, dx2, dy2) for line 1, then line 2.
_L1_EP1_X, _L1_EP1_Y, _L1_EP2_X, _L1_EP2_Y = 0, 1, 2, 3
_L2_EP1_X, _L2_EP1_Y, _L2_EP2_X, _L2_EP2_Y = 4, 5, 6, 7


def _check_weight(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


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
            _check_weight(name, getattr(self, name))


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

    0.5 * x^2 inside |x| < 1, |x| - 0.5 outside. The derivative, x inside
    and sign(x) outside, is clip(x, -1, 1) to the bit, NaN and -0.0 included.
    """
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5), np.clip(x, -1.0, 1.0)


# Most cells per block of the focal loss: a block's float64 scratch (256 KiB
# per array) stays in cache across the dozen passes of the formula.
_FOCAL_BLOCK = 1 << 15


def _focal_terms(
    miss: np.ndarray, q: np.ndarray, a: float, grad: np.ndarray, term: np.ndarray, scratch: np.ndarray
) -> None:
    """Per-cell focal term (1 - q)^a * log(q) of clamped label probabilities q.

    miss = 1 - q, and may be grad itself. The term goes to term and its
    derivative by q, miss^a / q - a * miss^(a-1) * log(q), to grad; scratch
    is overwritten. At a == 2, the default, both powers are products:
    pow(x, 1.0) and pow(x, 2.0) are x and x * x to the bit, and a multiply
    takes about half the time of either power call.
    """
    np.log(q, out=term)
    if a == 2.0:
        np.multiply(miss, a, out=scratch)
        np.multiply(miss, miss, out=grad)
    else:
        np.power(miss, a - 1.0, out=scratch)
        np.power(miss, a, out=grad)
        scratch *= a
    scratch *= term
    term *= grad
    grad /= q
    grad -= scratch


def _zero_clamped(p: np.ndarray, grad: np.ndarray) -> None:
    """Multiply grad by 0.0 where p is outside (eps, 1 - eps) or NaN."""
    grad[np.flatnonzero(~((p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)))] *= 0.0


def _lit(tensor: np.ndarray | Cells) -> tuple[np.ndarray, np.ndarray]:
    """Sorted flat indices and values of the cells of a tensor that may be non-zero.

    Cells give the cells they store; a dense array is scanned once for its
    non-zero cells, one block at a time, so no mask of every cell is made
    (np.flatnonzero straight on float64 cells takes about five times as
    long).
    """
    if isinstance(tensor, Cells):
        return tensor.index, tensor.value
    flat = tensor.reshape(-1)
    index = np.concatenate([np.empty(0, np.intp)] + [
        np.flatnonzero(flat[start:start + _FOCAL_BLOCK] != 0.0) + start
        for start in range(0, flat.size, _FOCAL_BLOCK)
    ])
    return index, flat[index]


def _positives(pred_hm: np.ndarray, gt_hm: np.ndarray | Cells) -> np.ndarray:
    """Sorted flat indices of a heatmap target's 1.0 cells; every other cell must be +-0.0."""
    if pred_hm.shape != gt_hm.shape:
        raise ShapeMismatch(f"pred {pred_hm.shape} vs gt {gt_hm.shape}")
    index, values = _lit(gt_hm)
    hit = values == 1.0
    if np.count_nonzero(values) != np.count_nonzero(hit):
        raise NonBinaryGroundTruth("heatmap targets must be exactly 0 or 1")
    return index[hit]


def _focal_sum(p, grad, start, stop, hits, hit_terms, a, n_objects, scratch):
    """Sum of the focal terms of cells start:stop; their gradient goes to grad.

    Every cell is taken as a negative, then the terms of the positives
    among them (sorted flat indices hits, terms hit_terms) are put in. The
    cells are split as numpy's pairwise sum splits an array, down to leaves
    of at most _FOCAL_BLOCK cells, and the leaf sums are added back up the
    tree, so the total is the one term.sum() gives over all cells, bit for
    bit, with no array of every cell's term. scratch holds three arrays of
    a leaf's size.

    A leaf whose cells all lie in (eps, 1 - eps) reads p as it is: clip
    would change no cell there and zero no slope. A leaf with a clamped,
    infinite or NaN cell is clipped and has those slopes zeroed, so a
    prediction below eps anywhere in a leaf makes that leaf pay the clip.
    """
    n = stop - start
    if n > _FOCAL_BLOCK:
        half = n // 2
        mid = start + half - half % 8  # numpy's split: pairwise_sum in loops_utils.h
        return (_focal_sum(p, grad, start, mid, hits, hit_terms, a, n_objects, scratch)
                + _focal_sum(p, grad, mid, stop, hits, hit_terms, a, n_objects, scratch))
    block = slice(start, stop)
    p_b, g = p[block], grad[block]
    q, aux, term = (array[:n] for array in scratch)
    # As a negative: q = 1 - clip(p), miss = clip(p).
    if n and p_b.min() > CLAMP_EPS and p_b.max() < 1.0 - CLAMP_EPS:
        np.subtract(1.0, p_b, out=q)
        _focal_terms(p_b, q, a, g, term, aux)
    else:
        np.clip(p_b, CLAMP_EPS, 1.0 - CLAMP_EPS, out=g)
        np.subtract(1.0, g, out=q)
        _focal_terms(g, q, a, g, term, aux)
        _zero_clamped(p_b, g)
    g /= n_objects
    lo, hi = np.searchsorted(hits, (start, stop))
    term[hits[lo:hi] - start] = hit_terms[lo:hi]
    return term.sum()


def focal_ip_loss(
    pred_hm: np.ndarray,
    gt_hm: np.ndarray | Cells,
    n_objects: int,
    alpha_focal: float = 2.0,
) -> tuple[float, np.ndarray]:
    """Focal intersection-point heatmap loss.

    -(1/N) * sum over cells of (1 - q)^a * log(q), where q is the
    probability the prediction gives the cell's own label: p at positives,
    1 - p at negatives. Predictions are clamped to [eps, 1 - eps] before the
    log; where the clamp is active the gradient is zero. The target may be
    held dense or as Cells.

    The few positives are evaluated first. Then every cell is taken as a
    negative, one cache-sized block at a time, with the positives' terms
    put back in before the block is summed. The result is the one a single
    dense pass over the heatmap gives, bit for bit: the same operations per
    cell, and the per-cell terms summed in numpy's order.
    """
    hits = _positives(pred_hm, gt_hm)
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    _check_weight("alpha_focal", alpha_focal)
    p = pred_hm.reshape(-1)
    # The positives first: q = clip(p), miss = 1 - q.
    p_hit = p[hits]
    q = np.clip(p_hit, CLAMP_EPS, 1.0 - CLAMP_EPS)
    g, t = 1.0 - q, np.empty_like(q)
    _focal_terms(g, q, alpha_focal, g, t, np.empty_like(q))
    # The loss is -term / N. At a positive q = p, so its slope by p is the
    # negated slope by q; at a negative q = 1 - p, and the two signs cancel.
    np.negative(g, out=g)
    _zero_clamped(p_hit, g)
    g /= n_objects
    dtype = np.result_type(p.dtype, CLAMP_EPS)
    grad = np.empty(p.shape, dtype)
    scratch = [np.empty(min(p.size, _FOCAL_BLOCK), dtype) for _ in range(3)]
    total = _focal_sum(p, grad, 0, p.size, hits, t, alpha_focal, n_objects, scratch)
    grad[hits] = g
    return -float(total) / n_objects, grad.reshape(pred_hm.shape)


def endpoint_loss(
    pred: np.ndarray, target: np.ndarray, n_objects: int
) -> tuple[float, np.ndarray]:
    """Smooth L1 over all eight offset channels of (8, K) offsets, / N."""
    value, grad = _smooth_l1_arrays(pred - target)
    return float(value.sum() / n_objects), grad / n_objects


def collinear_loss(pred: np.ndarray, n_objects: int) -> tuple[float, np.ndarray]:
    """Penalty for a cell and its two predicted endpoints leaving one line.

    Per line, smooth L1 between the cross products dx_ep1 * dy_ep2 and
    dx_ep2 * dy_ep1 of the (8, K) offset vectors; exactly zero when the
    offsets are antiparallel (the cell sits on the line through both
    endpoints).
    """
    total = 0.0
    grad = np.zeros_like(pred)
    for base in (0, 4):
        x1, y1 = pred[base + 0], pred[base + 1]
        x2, y2 = pred[base + 2], pred[base + 3]
        value, s = _smooth_l1_arrays(x1 * y2 - x2 * y1)
        total += float(value.sum())
        s = s / n_objects
        grad[base + 0] += s * y2
        grad[base + 3] += s * x1
        grad[base + 2] -= s * y1
        grad[base + 1] -= s * x2
    return total / n_objects, grad


def vertical_loss(pred: np.ndarray, n_objects: int) -> tuple[float, np.ndarray]:
    """Penalty for the two first-endpoint offsets leaving a right angle.

    Smooth L1 between dot(offset to l1 ep1, offset to l2 ep1) and zero, over
    (8, K) offsets.
    """
    ax, ay = pred[_L1_EP1_X], pred[_L1_EP1_Y]
    bx, by = pred[_L2_EP1_X], pred[_L2_EP1_Y]
    value, s = _smooth_l1_arrays(ax * bx + ay * by)
    s = s / n_objects
    grad = np.zeros_like(pred)
    grad[_L1_EP1_X] = s * bx
    grad[_L1_EP1_Y] = s * by
    grad[_L2_EP1_X] = s * ax
    grad[_L2_EP1_Y] = s * ay
    return float(value.sum() / n_objects), grad


def _line(
    pred_reg: np.ndarray,
    target_reg: np.ndarray | Cells,
    mask: np.ndarray | Cells,
    n_objects: int,
    weights: LossWeights,
    scale: float,
) -> LossValue:
    """line_loss of a target and mask held as dense arrays or Cells.

    The gradient rows are multiplied by scale before they are scattered
    into the gradient map.
    """
    shape = pred_reg.shape
    if target_reg.shape != shape or shape[-3:-2] != (8,) or mask.shape != shape[:-3] + shape[-2:]:
        raise ShapeMismatch(f"pred {shape}, target {target_reg.shape}, mask {mask.shape}")
    index, values = _lit(mask)
    lead, cell = np.divmod(index[values.astype(bool, copy=False)], math.prod(shape[-2:]))
    # The rows go in as the (8, K) transposes of C-ordered (K, 8) rows, the
    # layout a boolean-mask gather gives, so every sum runs in that order.
    # Of the row arrays only the gradient rows outlive _line_rows, so the
    # gradient map is made next to them alone.
    l1, l2, l3, total, rows = _line_rows(
        _offsets(pred_reg, lead, cell).T, _offsets(target_reg, lead, cell).T, max(n_objects, 1), weights
    )
    rows = rows.astype(pred_reg.dtype, copy=False)
    rows *= scale
    grad = np.zeros(shape, pred_reg.dtype)
    grad.reshape(math.prod(shape[:-3]), 8, math.prod(shape[-2:]))[lead, :, cell] = rows.T
    return LossValue(total=total, ip=0.0, l1=l1, l2=l2, l3=l3, gradients={"regression": grad})


def _line_rows(pred: np.ndarray, target: np.ndarray, n: int, weights: LossWeights):
    """l1, l2, l3, the weighted total and the (8, K) gradient rows of (8, K) offsets."""
    v1, g1 = endpoint_loss(pred, target, n)
    v2, g2 = collinear_loss(pred, n)
    v3, g3 = vertical_loss(pred, n)
    beta = 0.0 if weights.text_mode else weights.beta
    return v1, v2, v3, v1 + weights.alpha * v2 + beta * v3, g1 + weights.alpha * g2 + beta * g3


def line_loss(
    pred_reg: np.ndarray,
    target_reg: np.ndarray | Cells,
    mask: np.ndarray | Cells,
    n_objects: int,
    weights: LossWeights = LossWeights(),
) -> LossValue:
    """Endpoint + alpha * collinearity + beta * perpendicularity.

    pred_reg and target_reg are (..., 8, H, W) offset maps, mask is the
    (..., H, W) regression mask; the target and mask may be held dense or
    as Cells. Every term sums over the masked cells only, and the gradient
    is zero at every other cell. In text mode the perpendicularity term is
    shielded: its value is still reported, but it contributes nothing to
    total or gradient.
    """
    if not isinstance(mask, Cells):
        mask = np.asarray(mask, dtype=bool)
    return _line(pred_reg, target_reg, mask, n_objects, weights, 1.0)


def total_loss(
    pred: TargetMaps,
    target: TargetMaps,
    weights: LossWeights = LossWeights(),
) -> LossValue:
    """Full objective: focal heatmap loss + gamma * line loss, both branches.

    The normalizer N is max(target.n_objects, 1) and is shared by every
    term. Gradients come back under keys "heatmap" and "regression" in the
    prediction's shapes.

    The target is read as it is held (TargetMaps.kept): Cells give the
    heatmap positives, the masked cells and their offsets as they are
    stored, and are never made dense; a dense target is scanned once for
    its positives and once for its masked cells.
    """
    n = max(target.n_objects, 1)
    ip, hm_grad = focal_ip_loss(pred.heatmap, target.kept("heatmap"), n, weights.alpha_focal)
    line = _line(
        pred.regression, target.kept("regression"), target.kept("reg_mask"), n, weights, weights.gamma
    )
    return LossValue(
        total=ip + weights.gamma * line.total,
        ip=ip, l1=line.l1, l2=line.l2, l3=line.l3,
        gradients={"heatmap": hm_grad, "regression": line.gradients["regression"]},
    )
