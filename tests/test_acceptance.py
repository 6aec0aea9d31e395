"""End-to-end acceptance checks for the whole package.

Each test exercises one externally stated guarantee at its stated tolerance
and prints a single PASS/FAIL summary line straight to the terminal, past
pytest's capture. Run with plain `pytest tests/test_acceptance.py` and read
the verdicts off the output.
"""

from __future__ import annotations

import copy
import math
import time

import numpy as np
import pytest

from midlines.decoder import decode
from midlines.encoder import TargetMaps, encode_image
from midlines.evaluation import evaluate, rotated_iou
from midlines.geometry import (
    OrientedBox,
    box_to_midlines,
    midlines_to_box,
    rectangle,
)
from midlines.gradcheck import run_gradchecks
from midlines.ingest import AnnotatedImage, TileSpec, tile_image
from midlines.losses import LossWeights, collinear_loss, focal_ip_loss, total_loss, vertical_loss

from oracles import mc_iou


@pytest.fixture
def verdict(capfd):
    """One-line PASS/FAIL reporter that bypasses output capture."""

    def emit(name: str, ok: bool, detail: str) -> str:
        with capfd.disabled():
            print(f"{name:<26} {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
        return detail

    return emit


def _vertex_error(a: OrientedBox, b: OrientedBox) -> float:
    """Worst corner distance under the best cyclic alignment of b onto a."""
    best = math.inf
    for shift in range(4):
        worst = max(
            math.hypot(p.x - q.x, p.y - q.y)
            for p, q in ((a.corners[i], b.corners[(i + shift) % 4]) for i in range(4))
        )
        best = min(best, worst)
    return best


def test_geometry_round_trip(verdict):
    rng = np.random.default_rng(1)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(10_000):
        box = rectangle(
            rng.uniform(-500, 500),
            rng.uniform(-500, 500),
            rng.uniform(0.5, 400),
            rng.uniform(0.5, 400),
            rng.uniform(0, 360),
        )
        rebuilt = midlines_to_box(box_to_midlines(box).ends)
        worst = max(worst, _vertex_error(box, rebuilt))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    detail = verdict(
        "geometry round-trip", ok,
        f"boxes=10000 worst_vertex_err={worst:.2e} runtime={elapsed:.1f}s",
    )
    assert ok, detail


def test_encode_decode_fidelity(verdict):
    rng = np.random.default_rng(2)
    good = 0
    n = 1000
    start = time.perf_counter()
    for _ in range(n):
        box = rectangle(
            rng.uniform(100, 220),
            rng.uniform(100, 220),
            rng.uniform(16, 120),
            rng.uniform(16, 120),
            rng.uniform(0, 360),
        )
        maps = encode_image([box], 320, 320, num_classes=1, stride=4, r=16.0)
        dets = decode(maps)
        if dets and max(rotated_iou(d.box, box) for d in dets) >= 0.99:
            good += 1
    elapsed = time.perf_counter() - start
    fraction = good / n
    ok = fraction >= 0.99 and elapsed < 60.0
    detail = verdict(
        "encode-decode fidelity", ok,
        f"images={n} recovered={fraction:.4f} runtime={elapsed:.1f}s",
    )
    assert ok, detail


def test_drift_region_tolerance(verdict):
    # Every cell the encoder marked for an object must reconstruct it, not
    # just the one the decoder's centroid lookup would pick.
    rng = np.random.default_rng(3)
    cells_checked = 0
    worst = 1.0
    for _ in range(100):
        box = rectangle(
            rng.uniform(100, 220),
            rng.uniform(100, 220),
            rng.uniform(24, 120),
            rng.uniform(24, 120),
            rng.uniform(0, 360),
        )
        maps = encode_image([box], 320, 320, num_classes=1, stride=4, r=16.0)
        b = int(box_to_midlines(box).branch[0])
        assert not maps.reg_mask[1 - b].any()
        cells = np.argwhere(maps.reg_mask[b])
        assert len(cells) > 0
        for row, col in cells.tolist():
            anchor = [col * maps.stride, row * maps.stride] * 4
            rebuilt = midlines_to_box(maps.regression[b, :, row, col] + anchor)
            worst = min(worst, rotated_iou(rebuilt, box))
            cells_checked += 1
    ok = worst >= 0.99
    detail = verdict(
        "drift-region tolerance", ok,
        f"objects=100 cells={cells_checked} worst_iou={worst:.6f}",
    )
    assert ok, detail


def test_gradient_checks(verdict):
    start = time.perf_counter()
    reports = run_gradchecks(seed=0, samples=100)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_error for r in reports)
    ok = len(reports) == 6 and all(r.max_rel_error < 1e-4 for r in reports) and elapsed < 30.0
    detail = verdict(
        "gradient checks", ok,
        f"losses={len(reports)} worst_rel_err={worst:.2e} runtime={elapsed:.1f}s",
    )
    assert ok, detail


def test_hand_computed_loss_values(verdict):
    focal, _ = focal_ip_loss(np.array([[0.5]]), np.array([[1.0]]), 1)
    reg_col = np.array([30.0, 1.0, -30.0, 0.0, 0.0, -5.0, 0.0, 5.0]).reshape(8, 1, 1)
    col, _ = collinear_loss(reg_col, 1)
    reg_ver = np.array([30.0, 0.0, -30.0, 0.0, 2.0, -20.0, -2.0, 20.0]).reshape(8, 1, 1)
    ver, _ = vertical_loss(reg_ver, 1)
    err_focal = abs(focal - 0.173286)
    err_col = abs(col - 29.5)
    err_ver = abs(ver - 59.5)
    ok = err_focal < 1e-6 and err_col < 1e-9 and err_ver < 1e-9
    detail = verdict(
        "hand-computed losses", ok,
        f"focal={focal:.6f} collinear={col} vertical={ver}",
    )
    assert ok, detail


def test_rotated_iou_against_rasterization(verdict):
    # Jittered stratified sampling at this resolution measured ~1e-4 worst
    # error on this pair distribution, far inside the 2e-3 bar.
    rng = np.random.default_rng(123)
    worst = 0.0
    n = 500
    start = time.perf_counter()
    for _ in range(n):
        a = rectangle(
            rng.uniform(-10, 10), rng.uniform(-10, 10),
            rng.uniform(20, 80), rng.uniform(10, 60), rng.uniform(0, 180),
        )
        b = rectangle(
            rng.uniform(-10, 10), rng.uniform(-10, 10),
            rng.uniform(20, 80), rng.uniform(10, 60), rng.uniform(0, 180),
        )
        worst = max(worst, abs(rotated_iou(a, b) - mc_iou(a, b, 1000, rng)))
    elapsed = time.perf_counter() - start
    offset = rotated_iou(rectangle(1, 1, 2, 2), rectangle(2, 1, 2, 2))
    ok = worst < 2e-3 and offset == 2 / 6
    detail = verdict(
        "rotated-iou oracle", ok,
        f"pairs={n} worst_err={worst:.2e} offset_squares={offset} runtime={elapsed:.0f}s",
    )
    assert ok, detail


def test_no_detection_cap(verdict):
    # 2000 objects on a 50x40 grid, 48 px apart so drift regions stay
    # disjoint; alternating angles exercise both branches at once.
    boxes = []
    for i in range(50):
        for j in range(40):
            boxes.append(
                rectangle(24 + 48 * i, 24 + 48 * j, 24, 10, 30.0 * ((i + j) % 2))
            )
    start = time.perf_counter()
    maps = encode_image(boxes, 2400, 1920, num_classes=1, stride=4, r=16.0)
    stats: dict = {}
    dets = decode(maps, stats=stats)
    elapsed = time.perf_counter() - start
    ok = (
        maps.n_objects == 2000
        and len(dets) == 2000
        and stats["dropped_degenerate"] == 0
        and elapsed < 120.0
    )
    detail = verdict(
        "no detection cap", ok,
        f"encoded={maps.n_objects} decoded={len(dets)} runtime={elapsed:.1f}s",
    )
    assert ok, detail


def test_evaluation_identity(verdict):
    gts = {
        "scene1": [
            rectangle(50, 50, 30, 12, 15, class_id=0),
            rectangle(150, 60, 40, 18, 80, class_id=1),
            rectangle(90, 140, 26, 26, 0, class_id=2, difficult=True),
        ],
        "scene2": [
            rectangle(70, 40, 50, 20, 120, class_id=1),
            rectangle(160, 160, 34, 14, 45, class_id=2),
            rectangle(40, 170, 22, 10, 95, class_id=0),
        ],
    }
    dets = {k: list(v) for k, v in gts.items()}
    map_report = evaluate(dets, gts, mode="map")
    text_report = evaluate(dets, gts, mode="text")
    ok = map_report.map_score == 1.0 and text_report.f1 == 1.0
    detail = verdict(
        "evaluation identity", ok,
        f"map={map_report.map_score} f1={text_report.f1}",
    )
    assert ok, detail


def _shielding_fixture() -> tuple[TargetMaps, TargetMaps]:
    """A target/prediction pair built on quarter-integer values.

    Everything is a dyadic rational so the loss arithmetic below is exact
    and invariance can be asserted with ==. The prediction zeroes the
    fourth offset channel at masked cells, which makes the collinearity
    term independent of the first channel there.
    """
    rng = np.random.default_rng(9)
    h, w = 6, 7
    heatmap = np.zeros((2, 2, h, w))
    heatmap[rng.random(heatmap.shape) < 0.2] = 1.0
    mask = rng.random((2, h, w)) < 0.3
    mask[0, 0, 0] = mask[1, 5, 6] = True  # never vacuous
    regression = rng.integers(-40, 40, (2, 8, h, w)) * 0.5
    target = TargetMaps(
        stride=4, num_classes=2, width=w, height=h, image_w=4 * w, image_h=4 * h,
        heatmap=heatmap, regression=regression, reg_mask=mask, n_objects=3,
    )
    pred_reg = regression + 0.5
    for b in range(2):
        pred_reg[b, 3][mask[b]] = 0.0  # shields collinearity from channel 0
        pred_reg[b, 4][mask[b]] = regression[b, 4][mask[b]] + 0.25  # never zero
    pred = TargetMaps(
        stride=4, num_classes=2, width=w, height=h, image_w=4 * w, image_h=4 * h,
        heatmap=np.full_like(heatmap, 0.25), regression=pred_reg,
        reg_mask=mask, n_objects=3,
    )
    return pred, target


def test_text_mode_shielding(verdict):
    # Reflecting channel 0 across its target flips the perpendicularity
    # dot product while leaving the endpoint and collinearity terms bit
    # identical, so text mode must not see it at all.
    pred, target = _shielding_fixture()
    rng = np.random.default_rng(17)
    text = LossWeights(text_mode=True)
    plain = LossWeights()
    base_text = total_loss(pred, target, text)
    base_plain = total_loss(pred, target, plain)
    trials = 0
    invariant = True
    moved = False
    for _ in range(20):
        other = copy.deepcopy(pred)
        for b in range(2):
            flip = target.reg_mask[b] & (rng.random(target.reg_mask[b].shape) < 0.7)
            other.regression[b, 0][flip] = (
                2.0 * target.regression[b, 0][flip] - pred.regression[b, 0][flip]
            )
        if not (other.regression != pred.regression).any():
            continue
        trials += 1
        text_val = total_loss(other, target, text)
        plain_val = total_loss(other, target, plain)
        invariant &= text_val.total == base_text.total
        invariant &= text_val.l1 == base_text.l1 and text_val.l2 == base_text.l2
        moved |= plain_val.total != base_plain.total
    ok = trials > 0 and invariant and moved
    detail = verdict(
        "text-mode shielding", ok,
        f"perturbations={trials} invariant={invariant} plain_mode_moved={moved}",
    )
    assert ok, detail


def test_tiling_layout(verdict):
    img = AnnotatedImage(
        "mosaic", 1400, 1400, [rectangle(700, 700, 60, 24, 30.0)]
    )
    tiles = tile_image(img, TileSpec(window=800, overlap=0.25))
    origins = set()
    for tile in tiles:
        x0, y0 = tile.image_id.rsplit("__", 1)[1].split("_")
        origins.add((int(x0), int(y0)))
    expected = {(0, 0), (600, 0), (0, 600), (600, 600)}
    ok = (
        len(tiles) == 4
        and origins == expected
        and all(t.width == 800 and t.height == 800 for t in tiles)
    )
    detail = verdict(
        "tiling layout", ok,
        f"tiles={len(tiles)} origins={sorted(origins)}",
    )
    assert ok, detail
