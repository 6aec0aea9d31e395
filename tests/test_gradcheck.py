import dataclasses
import itertools

import numpy as np
import pytest

from midlines import gradcheck
from midlines.errors import KinkProximity
from midlines.gradcheck import (
    LOSS_NAMES,
    check_collinear,
    check_endpoint,
    check_focal,
    check_line,
    check_total,
    check_vertical,
    grad_check,
    run_gradchecks,
)
from midlines.losses import endpoint_loss

LOSS_FUNCTIONS = (
    "focal_ip_loss", "endpoint_loss", "collinear_loss", "vertical_loss", "line_loss", "total_loss",
)

ALL_CHECKS = (
    check_focal,
    check_endpoint,
    check_collinear,
    check_vertical,
    check_line,
    check_total,
)


def test_grad_check_agrees_on_a_known_quadratic():
    def f(x):
        return float(0.5 * (x @ x)), x.copy()

    report = grad_check(f, np.array([1.0, -2.0, 3.0]))
    assert report.passed
    assert report.max_rel_error < 1e-10
    assert report.n_components == 3


def test_grad_check_catches_a_wrong_gradient():
    def f(x):
        return float(0.5 * (x @ x)), x + 0.05

    report = grad_check(f, np.array([1.0, -2.0, 3.0]))
    assert not report.passed


def test_grad_check_raises_near_a_kink():
    def f(x):
        return float(np.abs(x).sum()), np.sign(x)

    with pytest.raises(KinkProximity):
        grad_check(f, np.array([1.0]), kink_margin=lambda x: 1e-5)


def test_grad_check_fails_a_nan_loss():
    def f(x):
        return float("nan"), np.full_like(x, np.nan)

    report = grad_check(f, np.array([1.0, -2.0, 3.0]))
    assert np.isnan(report.max_rel_error)
    assert not report.passed


def test_run_gradchecks_fails_a_nan_sample(monkeypatch):
    # One NaN sample among finite ones must fail the aggregate report.
    calls = itertools.count()

    def sometimes_nan(*args):
        value, grad = endpoint_loss(*args)
        return (float("nan"), grad) if next(calls) == 3 else (value, grad)

    monkeypatch.setattr(gradcheck, "endpoint_loss", sometimes_nan)
    reports = {r.name: r for r in run_gradchecks(seed=9, samples=2)}
    assert np.isnan(reports["endpoint"].max_rel_error)
    assert not reports["endpoint"].passed
    assert all(r.passed for name, r in reports.items() if name != "endpoint")


def test_every_loss_passes_at_random_smooth_points():
    rng = np.random.default_rng(123)
    for check in ALL_CHECKS:
        for _ in range(3):
            report = check(rng)
            assert report.passed, f"{report.name}: {report.max_rel_error}"
            assert report.max_rel_error < 1e-4


def bias_every_loss(monkeypatch, bias):
    """Add `bias` to every analytic gradient the gradient checks read."""

    def biased(loss):
        def wrapped(*args, **kwargs):
            out = loss(*args, **kwargs)
            if isinstance(out, tuple):
                value, grad = out
                return value, grad + bias
            grads = {key: grad + bias for key, grad in out.gradients.items()}
            return dataclasses.replace(out, gradients=grads)
        return wrapped

    for name in LOSS_FUNCTIONS:
        monkeypatch.setattr(gradcheck, name, biased(getattr(gradcheck, name)))


def test_perturbed_gradients_are_detected_for_every_loss(monkeypatch):
    bias_every_loss(monkeypatch, 0.02)
    rng = np.random.default_rng(5)
    for check in ALL_CHECKS:
        report = check(rng)
        assert not report.passed, report.name


def test_run_gradchecks_covers_all_losses():
    reports = run_gradchecks(seed=9, samples=2)
    assert [r.name for r in reports] == list(LOSS_NAMES)
    assert all(r.passed for r in reports)
    assert all(r.samples == 2 for r in reports)


def test_run_gradchecks_rejects_zero_samples():
    with pytest.raises(ValueError):
        run_gradchecks(seed=0, samples=0)
