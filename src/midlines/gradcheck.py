"""Central finite-difference verification of the analytic loss gradients.

Every check draws a random point that is provably far from the non-smooth
spots (smooth-L1 kinks at |x| = 1, heatmap clamp bounds) and compares the
analytic gradient against (f(x+h) - f(x-h)) / 2h component by component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .encoder import TargetMaps
from .errors import KinkProximity
from .losses import (
    CLAMP_EPS,
    LossWeights,
    collinear_loss,
    endpoint_loss,
    focal_ip_loss,
    line_loss,
    total_loss,
    vertical_loss,
)

DEFAULT_STEP = 1e-4
DEFAULT_TOLERANCE = 1e-4

# Rejection threshold used when sampling points: far enough from every kink
# that no probe of size `step` can cross one, with a wide margin.
_SAMPLE_MARGIN = 0.05

LOSS_NAMES = ("focal_ip", "endpoint", "collinear", "vertical", "line", "total")


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    tolerance: float
    n_components: int
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point: np.ndarray,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    kink_margin: Callable[[np.ndarray], float] | None = None,
    name: str = "loss",
) -> GradCheckReport:
    """Compare an analytic gradient against central differences at one point.

    The error per component is |analytic - numeric| / max(1, |analytic|,
    |numeric|); a NaN error is the worst error and fails the check. Raises
    KinkProximity when kink_margin reports the point within 10 * step of a
    non-smooth spot.
    """
    point = np.asarray(point, dtype=np.float64).ravel()
    if kink_margin is not None:
        margin = kink_margin(point)
        if margin <= 10.0 * step:
            raise KinkProximity(
                f"{name}: point is {margin:.3e} from a kink, need > {10 * step:.3e}"
            )
    _, analytic = value_and_grad(point)
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    if analytic.shape != point.shape:
        raise ValueError(f"gradient shape {analytic.shape} vs point {point.shape}")
    numeric = np.empty_like(point)
    for i in range(point.size):
        probe = point.copy()
        probe[i] = point[i] + step
        up, _ = value_and_grad(probe)
        probe[i] = point[i] - step
        down, _ = value_and_grad(probe)
        numeric[i] = (up - down) / (2.0 * step)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return GradCheckReport(
        name=name,
        max_rel_error=float(np.max(np.abs(analytic - numeric) / scale, initial=0.0)),
        tolerance=tolerance,
        n_components=point.size,
        samples=1,
    )


def _sl1_margin(args: np.ndarray) -> float:
    """Distance of smooth-L1 arguments to the nearest kink at |x| = 1."""
    if args.size == 0:
        return np.inf
    return float(np.abs(np.abs(args) - 1.0).min())


def _clamp_margin(p: np.ndarray) -> float:
    return float(min((p - CLAMP_EPS).min(), (1.0 - CLAMP_EPS - p).min()))


def _sampled_check(
    name: str,
    rng: np.random.Generator,
    draw: Callable[[np.random.Generator], np.ndarray],
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    margin: Callable[[np.ndarray], float],
    step: float,
    tolerance: float,
) -> GradCheckReport:
    """grad_check f at a point draw(rng) gives, redrawn until smooth enough.

    margin is the loss's one statement of its kinks: the flat point is
    redrawn until it is more than _SAMPLE_MARGIN from every kink, and the
    same margin guards each probe inside grad_check.
    """
    for _ in range(100):
        point = draw(rng).ravel()
        if margin(point) > _SAMPLE_MARGIN:
            return grad_check(f, point, step, tolerance, kink_margin=margin, name=name)
    raise RuntimeError("could not sample a smooth point")


def _flat(loss: Callable, shape: tuple[int, ...], *args) -> Callable:
    """loss(x.reshape(shape), *args) as value and gradient of the flat point x."""
    def f(x):
        value, grad = loss(x.reshape(shape), *args)
        return value, grad.ravel()
    return f


# --- one random check per loss -------------------------------------------------


def check_focal(rng: np.random.Generator, step=DEFAULT_STEP, tolerance=DEFAULT_TOLERANCE):
    shape = (2, 3, 4)
    gt = (rng.random(shape) < 0.3).astype(np.float64)
    f = _flat(focal_ip_loss, shape, gt, max(1, int(gt.sum()) // 3))
    return _sampled_check(
        "focal_ip", rng, lambda rng: rng.uniform(0.05, 0.95, shape), f, _clamp_margin,
        step, tolerance,
    )


def _random_mask(rng, shape):
    mask = rng.random(shape) < 0.6
    if not mask.any():
        mask.flat[0] = True
    return mask


# The endpoint, collinear and vertical terms see only the (8, K) offsets that
# line_loss gathers at masked cells.
_OFFSETS_SHAPE = (8, 4)


def check_endpoint(rng, step=DEFAULT_STEP, tolerance=DEFAULT_TOLERANCE):
    shape = _OFFSETS_SHAPE
    target = rng.normal(0.0, 20.0, shape)
    return _sampled_check(
        "endpoint", rng, lambda rng: target + rng.uniform(-3.0, 3.0, shape),
        _flat(endpoint_loss, shape, target, 2),
        lambda x: _sl1_margin(x.reshape(shape) - target), step, tolerance,
    )


def _cross_args(reg: np.ndarray) -> np.ndarray:
    return np.stack(
        [reg[0] * reg[3] - reg[2] * reg[1], reg[4] * reg[7] - reg[6] * reg[5]]
    )


def _dot_args(reg: np.ndarray) -> np.ndarray:
    return reg[0] * reg[4] + reg[1] * reg[5]


def check_collinear(rng, step=DEFAULT_STEP, tolerance=DEFAULT_TOLERANCE):
    shape = _OFFSETS_SHAPE
    return _sampled_check(
        "collinear", rng, lambda rng: rng.uniform(-25.0, 25.0, shape),
        _flat(collinear_loss, shape, 2),
        lambda x: _sl1_margin(_cross_args(x.reshape(shape))), step, tolerance,
    )


def check_vertical(rng, step=DEFAULT_STEP, tolerance=DEFAULT_TOLERANCE):
    shape = _OFFSETS_SHAPE
    return _sampled_check(
        "vertical", rng, lambda rng: rng.uniform(-25.0, 25.0, shape),
        _flat(vertical_loss, shape, 2),
        lambda x: _sl1_margin(_dot_args(x.reshape(shape))), step, tolerance,
    )


def _line_margin(pred: np.ndarray, target: np.ndarray) -> float:
    return min(
        _sl1_margin(pred - target),
        _sl1_margin(_cross_args(pred)),
        _sl1_margin(_dot_args(pred)),
    )


def check_line(rng, step=DEFAULT_STEP, tolerance=DEFAULT_TOLERANCE):
    shape = (8, 2, 3)
    mask = _random_mask(rng, shape[1:])
    target = rng.normal(0.0, 15.0, shape)
    weights = LossWeights(alpha=1.0, beta=1.0)

    def f(x):
        out = line_loss(x.reshape(shape), target, mask, 2, weights)
        return out.total, out.gradients["regression"].ravel()

    return _sampled_check(
        "line", rng, lambda rng: rng.uniform(-25.0, 25.0, shape), f,
        lambda x: _line_margin(x.reshape(shape), target), step, tolerance,
    )


def check_total(rng, step=DEFAULT_STEP, tolerance=DEFAULT_TOLERANCE):
    """total_loss over both branches of a small random map pair."""
    hm_shape, reg_shape = (2, 1, 2, 3), (2, 8, 2, 3)
    hm_size = math.prod(hm_shape)

    def maps(hm, reg, mask):
        return TargetMaps(
            stride=4, num_classes=1, width=3, height=2, image_w=12, image_h=8,
            heatmap=hm, regression=reg, reg_mask=mask, n_objects=2,
        )

    gt_hm = (rng.random(hm_shape) < 0.3).astype(np.float64)
    mask = np.stack([_random_mask(rng, hm_shape[2:]) for _ in range(2)])
    target = maps(gt_hm, rng.normal(0.0, 15.0, reg_shape), mask)
    pred = maps(None, None, mask)  # f sets its maps at every probe
    weights = LossWeights()

    def split(x):
        return x[:hm_size].reshape(hm_shape), x[hm_size:].reshape(reg_shape)

    def margin(x):
        hm, reg = split(x)
        return min(
            _clamp_margin(hm),
            min(_line_margin(reg[b], target.regression[b]) for b in range(2)),
        )

    def draw(rng):
        hm = rng.uniform(0.05, 0.95, hm_shape)
        reg = rng.uniform(-25.0, 25.0, reg_shape)
        return np.concatenate([hm.ravel(), reg.ravel()])

    def f(x):
        pred.heatmap, pred.regression = split(x)
        out = total_loss(pred, target, weights)
        grad = np.concatenate(
            [out.gradients["heatmap"].ravel(), out.gradients["regression"].ravel()]
        )
        return out.total, grad

    return _sampled_check("total", rng, draw, f, margin, step, tolerance)


_CHECKS = {
    "focal_ip": check_focal,
    "endpoint": check_endpoint,
    "collinear": check_collinear,
    "vertical": check_vertical,
    "line": check_line,
    "total": check_total,
}


def run_gradchecks(
    seed: int = 0,
    samples: int = 100,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[GradCheckReport]:
    """Run every loss check at `samples` random smooth points each.

    Raises ValueError unless samples >= 1 and step and tolerance are finite
    and positive.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    for label, x in (("step", step), ("tolerance", tolerance)):
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"{label} must be finite and > 0, got {x}")
    rng = np.random.default_rng(seed)
    reports = []
    for name in LOSS_NAMES:
        runs = [_CHECKS[name](rng, step=step, tolerance=tolerance) for _ in range(samples)]
        reports.append(
            GradCheckReport(
                name=name,
                max_rel_error=float(np.max([r.max_rel_error for r in runs])),
                tolerance=tolerance, n_components=runs[-1].n_components, samples=samples,
            )
        )
    return reports
