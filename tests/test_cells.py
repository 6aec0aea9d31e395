"""Maps kept as their cells behave as their dense arrays do.

encode_image and read_maps give each tensor as Cells; write_maps, decode and
total_loss read those without making a grid. Written bytes, decoded
detections and loss values and gradients must equal what the same maps give
as dense arrays, and none of these paths may allocate a dense map.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from midlines.container import read_maps, write_maps
from midlines.decoder import decode
from midlines.encoder import Cells, TargetMaps, encode_image
from midlines.errors import NonBinaryGroundTruth
from midlines.geometry import OrientedBox, Point2, rectangle
from midlines.losses import LossWeights, focal_ip_loss, line_loss, total_loss

FIELDS = ("heatmap", "regression", "reg_mask")
NAMES = ["a", "b", "c"]


def cell_fields(maps):
    return [f for f in FIELDS if isinstance(maps.kept(f), Cells)]


def dense_copy(maps):
    """The same maps with every tensor a dense array, made without touching maps' own."""
    return TargetMaps(
        stride=maps.stride, num_classes=maps.num_classes, width=maps.width, height=maps.height,
        image_w=maps.image_w, image_h=maps.image_h, n_objects=maps.n_objects,
        **{f: maps.kept(f).dense() if f in cell_fields(maps) else maps.kept(f).copy() for f in FIELDS},
    )


def with_cell(maps, field, flat, value):
    """Cell-form maps with one more stored cell in `field`."""
    cells = maps.kept(field)
    k = np.searchsorted(cells.index, flat)
    assert k == len(cells.index) or cells.index[k] != flat
    setattr(maps, field, Cells(
        cells.shape, np.insert(cells.index, k, flat), np.insert(cells.value, k, value)
    ))
    return maps


def container_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def assert_writes_same_bytes(maps, other, tmp_path):
    write_maps(maps, tmp_path / "cells", NAMES[:maps.num_classes])
    write_maps(other, tmp_path / "dense", NAMES[:maps.num_classes])
    assert container_bytes(tmp_path / "cells") == container_bytes(tmp_path / "dense")


def assert_same_detections(a, b):
    """Equal Detections columns, bit for bit."""
    for column in ("corners", "score", "class_id", "branch"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.shape == y.shape, column
        assert x.tobytes() == y.tobytes(), column


def assert_decodes_same(maps, threshold=0.3):
    stats, dense_stats = {}, {}
    held = cell_fields(maps)
    got = decode(maps, threshold=threshold, stats=stats)
    want = decode(dense_copy(maps), threshold=threshold, stats=dense_stats)
    assert_same_detections(got, want)
    assert stats == dense_stats
    assert cell_fields(maps) == held  # decode made no grid
    return got


@st.composite
def scenes(draw):
    """(boxes, image_w, image_h, stride): contested, thin and border objects, or none."""
    image_w, image_h = draw(st.integers(16, 160)), draw(st.integers(16, 160))
    stride = draw(st.sampled_from([1, 2, 4]))
    boxes = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["plain", "thin", "border", "contested"]))
        cx = draw(st.floats(0.0, image_w))
        cy = draw(st.floats(0.0, image_h))
        w, h = draw(st.floats(1.0, 60.0)), draw(st.floats(1.0, 40.0))
        angle = draw(st.floats(0.0, 180.0))
        class_id = draw(st.integers(0, 2))
        if kind == "contested" and boxes:
            # The same corners in another class, and a smaller box on top.
            prev = boxes[draw(st.integers(0, len(boxes) - 1))]
            boxes.append(OrientedBox(prev.corners, class_id=class_id))
            xs, ys = [p.x for p in prev.corners], [p.y for p in prev.corners]
            cx, cy = sum(xs) / 4, sum(ys) / 4
            boxes.append(rectangle(cx, cy, w / 2, h / 2, angle_deg=angle, class_id=class_id))
            continue
        if kind == "thin":
            w = draw(st.floats(0.5, 4.0))
        elif kind == "border":
            # Axis-aligned, so the center stays exactly on the image edge.
            cx = draw(st.sampled_from([0.0, float(image_w), cx]))
            cy = draw(st.sampled_from([0.0, float(image_h)]))
            angle = 0.0
        boxes.append(rectangle(cx, cy, w, h, angle_deg=angle, class_id=class_id))
    return boxes, image_w, image_h, stride


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scene=scenes(), threshold=st.sampled_from([0.0, 0.3, 0.99]))
def test_cells_write_and_decode_as_their_dense_arrays(tmp_path_factory, scene, threshold):
    boxes, image_w, image_h, stride = scene
    maps = encode_image(boxes, image_w, image_h, 3, stride=stride)
    assert cell_fields(maps) == list(FIELDS)
    tmp_path = tmp_path_factory.mktemp("scene")
    assert_writes_same_bytes(maps, dense_copy(maps), tmp_path)
    assert_decodes_same(maps, threshold)
    back, _ = read_maps(tmp_path / "cells")
    assert_decodes_same(back, threshold)


def plane_maps():
    """One object centred on cell (8, 8) of a 16 x 16 grid."""
    return encode_image([rectangle(32, 32, 24, 12, angle_deg=20)], 64, 64, 3)


def test_negative_zero_offset_is_stored_and_decodes_as_dense(tmp_path):
    # A 2 px wide box on the left edge: its centre cell is in column 0,
    # whose anchor x is +0.0, and one midline endpoint has x = -0.0, so the
    # offset there is -0.0, which has bits and is stored.
    box = OrientedBox((Point2(-0.0, 0.0), Point2(2.0, 0.0), Point2(2.0, 40.0), Point2(-0.0, 40.0)))
    maps = encode_image([box], 64, 64, 3)
    regression = maps.kept("regression")
    negative_zero = regression.index[np.signbit(regression.value) & (regression.value == 0.0)]
    assert len(negative_zero) > 0
    assert_writes_same_bytes(maps, dense_copy(maps), tmp_path)
    back, _ = read_maps(tmp_path / "cells")
    assert np.signbit(back.kept("regression").at(negative_zero)).all()
    assert len(assert_decodes_same(maps)) == 1


def test_value_that_rounds_to_zero_in_float32_is_stored(tmp_path):
    maps = with_cell(plane_maps(), "regression", 5, 1e-50)
    assert_writes_same_bytes(maps, dense_copy(maps), tmp_path)
    (entry,) = [t for t in json.loads((tmp_path / "cells" / "manifest.json").read_text())["tensors"]
                if t["name"] == "reg_b1"]
    raw = (tmp_path / "cells" / "reg_b1.f32").read_bytes()
    indices = np.frombuffer(raw[:4 * entry["count"]], "<u4").tolist()
    values = np.frombuffer(raw[4 * entry["count"]:], "<f4")
    assert values[indices.index(5)] == 0.0
    assert_decodes_same(maps)


def test_threshold_below_zero_lights_every_cell_as_the_dense_map_does():
    # Every channel is then one component whose lookup cell is the grid's
    # centre, (8, 8), where the plane's offsets are stored.
    maps = plane_maps()
    dets = assert_decodes_same(maps, threshold=-0.5)
    assert len(dets) > 0


def test_dense_array_read_from_cells_then_changed_is_what_is_written(tmp_path):
    maps = plane_maps()
    expected = dense_copy(maps)
    maps.heatmap[1, 2, 3, 4] = 0.5
    expected.heatmap[1, 2, 3, 4] = 0.5
    maps.regression[0, :, 3, 4] = 2.0
    expected.regression[0, :, 3, 4] = 2.0
    assert not isinstance(maps.kept("heatmap"), Cells)
    assert_writes_same_bytes(maps, expected, tmp_path)
    back, _ = read_maps(tmp_path / "cells")
    assert back.heatmap[1, 2, 3, 4] == 0.5
    assert_same_detections(decode(maps), decode(expected))


def test_map_with_a_dense_file_reads_back_dense(tmp_path):
    maps = plane_maps()
    maps.heatmap[1] = 0.25  # every cell of hm_b2: written dense
    write_maps(maps, tmp_path, NAMES)
    back, _ = read_maps(tmp_path)
    assert cell_fields(back) == ["regression", "reg_mask"]
    np.testing.assert_array_equal(back.heatmap, maps.heatmap)
    assert_decodes_same(back)


def dota_like_scene(n=300, side=800, classes=15, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rectangle(
            float(rng.uniform(0, side)), float(rng.uniform(0, side)),
            float(rng.uniform(6, 80)), float(rng.uniform(4, 40)),
            angle_deg=float(rng.uniform(0, 180)), class_id=int(rng.integers(classes)),
        )
        for _ in range(n)
    ]


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_encode_write_read_decode_allocate_no_dense_map(tmp_path):
    # One dense heatmap of this 15-class 800 px scene at stride 4 is
    # 2 x 15 x 200 x 200 float64 cells, 9.6 MB, and a dense regression 5.1 MB.
    # The encoder's disc stencil (encoder._STENCIL_CELLS) takes about 2.5 MB.
    boxes = dota_like_scene()
    dense_heatmap = 2 * 15 * 200 * 200 * 8
    names = [f"c{k}" for k in range(15)]

    def encode_write(scene, side, out):
        write_maps(encode_image(scene, side, side, 15), out, names)

    def read_decode(out):
        decode(read_maps(out)[0])

    # A first call imports modules numpy loads lazily; only the second is measured.
    encode_write([rectangle(32, 32, 20, 10, class_id=14)], 64, tmp_path / "warm")
    read_decode(tmp_path / "warm")
    peak = traced_peak(lambda: encode_write(boxes, 800, tmp_path / "scene"))
    assert peak < dense_heatmap / 3, peak
    peak = traced_peak(lambda: read_decode(tmp_path / "scene"))
    assert peak < dense_heatmap / 3, peak


def prediction(target, seed=0):
    """Dense random predictions in the target's shapes; the target's own tensors stay as held."""
    rng = np.random.default_rng(seed)
    return TargetMaps(
        stride=target.stride, num_classes=target.num_classes, width=target.width,
        height=target.height, image_w=target.image_w, image_h=target.image_h,
        heatmap=rng.uniform(0.01, 0.99, target.kept("heatmap").shape),
        regression=rng.uniform(-30, 30, target.kept("regression").shape),
        reg_mask=target.kept("reg_mask").dense(), n_objects=target.n_objects,
    )


def assert_same_loss(a, b):
    """Equal loss values and gradients, bit for bit."""
    for key in ("total", "ip", "l1", "l2", "l3"):
        assert np.float64(getattr(a, key)).tobytes() == np.float64(getattr(b, key)).tobytes(), key
    assert a.gradients.keys() == b.gradients.keys()
    for key, x in a.gradients.items():
        y = b.gradients[key]
        assert x.dtype == y.dtype and x.shape == y.shape, key
        assert x.tobytes() == y.tobytes(), key


def assert_loss_same_as_dense(target, pred, weights=LossWeights()):
    held = cell_fields(target)
    out = total_loss(pred, target, weights)
    assert_same_loss(out, total_loss(pred, dense_copy(target), weights))
    assert cell_fields(target) == held  # total_loss made no grid
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scene=scenes(), text_mode=st.booleans(), seed=st.integers(0, 2**16))
def test_total_loss_on_cells_is_the_dense_loss_bit_for_bit(scene, text_mode, seed):
    boxes, image_w, image_h, stride = scene
    target = encode_image(boxes, image_w, image_h, 3, stride=stride)
    weights = LossWeights(alpha=0.3, beta=2.0, gamma=0.25, text_mode=text_mode)
    assert_loss_same_as_dense(target, prediction(target, seed), weights)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(scene=scenes(), text_mode=st.booleans(), seed=st.integers(0, 2**16))
def test_line_loss_on_cells_is_the_dense_loss_bit_for_bit(scene, text_mode, seed):
    # The regression and mask as encode_image gives them; a Cells mask used
    # to read as a 0-d array and fail the shape check.
    boxes, image_w, image_h, stride = scene
    target = encode_image(boxes, image_w, image_h, 3, stride=stride)
    pred = prediction(target, seed).regression
    weights = LossWeights(alpha=0.3, beta=2.0, text_mode=text_mode)
    dense = dense_copy(target)
    out = line_loss(pred, target.kept("regression"), target.kept("reg_mask"), target.n_objects, weights)
    assert_same_loss(out, line_loss(pred, dense.regression, dense.reg_mask, target.n_objects, weights))
    assert cell_fields(target) == list(FIELDS)  # line_loss made no grid


@pytest.mark.parametrize("text_mode", [False, True])
def test_total_loss_on_cells_of_an_empty_target_is_the_dense_loss(text_mode):
    target = encode_image([], 64, 48, 2)
    assert target.n_objects == 0 and cell_fields(target) == list(FIELDS)
    out = assert_loss_same_as_dense(target, prediction(target), LossWeights(text_mode=text_mode))
    assert (out.l1, out.l2, out.l3) == (0.0, 0.0, 0.0)
    assert not out.gradients["regression"].any()


@pytest.mark.parametrize("value", [1.0, -0.0])
def test_stored_one_or_negative_zero_is_read_as_the_dense_cell(value):
    # A cell away from the plane's region, so it is not already lit.
    target = with_cell(plane_maps(), "heatmap", 5, value)
    pred = prediction(target, seed=1)
    assert_loss_same_as_dense(target, pred)
    if value == 0.0:  # -0.0 is a negative, as the dense +0.0 there
        assert_same_loss(total_loss(pred, target), total_loss(pred, plane_maps()))


@pytest.mark.parametrize("value", [0.5, np.nan])
def test_stored_non_binary_heatmap_value_raises_as_dense(value):
    target = with_cell(plane_maps(), "heatmap", 5, value)
    pred = prediction(target)
    with pytest.raises(NonBinaryGroundTruth):
        total_loss(pred, dense_copy(target))
    with pytest.raises(NonBinaryGroundTruth):
        focal_ip_loss(pred.heatmap, dense_copy(target).heatmap, 1)
    with pytest.raises(NonBinaryGroundTruth):
        total_loss(pred, target)
    assert cell_fields(target) == list(FIELDS)


def test_total_loss_on_cells_allocates_only_its_gradients():
    # The two gradients of this 15-class 800 px scene are 9.6 MB (heatmap)
    # and 5.1 MB (regression); nothing else of a full map's size is made.
    target = encode_image(dota_like_scene(), 800, 800, 15)
    pred = prediction(target)
    total_loss(prediction(plane_maps()), plane_maps())  # warm numpy's lazy imports
    out = {}
    peak = traced_peak(lambda: out.update(loss=total_loss(pred, target)))
    gradients = sum(g.nbytes for g in out["loss"].gradients.values())
    assert gradients == (2 * 15 + 2 * 8) * 200 * 200 * 8
    assert peak <= 1.1 * gradients, peak / gradients
    assert cell_fields(target) == list(FIELDS)


def test_repr_and_equality_make_no_grid():
    maps, same = encode_image(dota_like_scene(), 800, 800, 15), encode_image(dota_like_scene(), 800, 800, 15)
    text = repr(maps)
    stored = len(maps.kept("heatmap").index)
    assert f"heatmap=Cells(shape=(2, 15, 200, 200), stored={stored})" in text
    assert maps == maps and maps != same
    assert cell_fields(maps) == list(FIELDS)
    maps.reg_mask  # read dense: shown as the array it now holds
    assert "reg_mask=array(shape=(2, 200, 200), dtype=bool)" in repr(maps)


def test_cells_compare_by_identity_and_hash():
    # Two cells make the generated field-by-field == ask numpy for one verdict.
    a = Cells((2, 4), np.array([1, 6]), np.array([0.5, 1.0]))
    b = Cells((2, 4), np.array([1, 6]), np.array([0.5, 1.0]))
    assert a == a and a != b
    assert len({a, b, a}) == 2
