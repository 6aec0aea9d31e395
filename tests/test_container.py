import json
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from midlines.cli import main
from midlines.container import (
    DATA_FILE, MAX_SPARSE_CELLS, MAX_SPARSE_GRID, TENSOR_NAMES, read_maps, write_maps,
)
from midlines.decoder import decode
from midlines.encoder import Cells, TargetMaps, encode_image
from midlines.errors import ShapeMismatch
from midlines.geometry import rectangle

# Written by write_maps before tensor layouts existed (commit 11069f3):
# tiny_dense_maps() with class names ["plane", "ship"], every tensor dense
# and no "layout" in its manifest entries.
DENSE_CONTAINER = Path(__file__).parent / "data" / "dense_container"


def sample_maps():
    """An encoded scene: a few lit cells per branch, so every tensor is stored sparse."""
    boxes = [
        rectangle(61.5, 58.25, 40, 24, class_id=0),
        rectangle(180, 175, 48, 30, angle_deg=33, class_id=1),
    ]
    return encode_image(boxes, 256, 240, num_classes=2)


def dense_maps():
    """sample_maps() on a non-zero background, so every tensor is stored dense."""
    maps = sample_maps()
    maps.heatmap[maps.heatmap == 0.0] = 0.25
    maps.regression[maps.regression == 0.0] = 0.5
    maps.reg_mask[...] = True
    return maps


def tiny_dense_maps():
    """Every cell non-zero (one of them -0.0), every value exact in float32."""
    c, h, w = 2, 3, 5
    heatmap = ((np.arange(2 * c * h * w) % 8 + 1) / 8).reshape(2, c, h, w)
    regression = (np.arange(2 * 8 * h * w) % 23 - 11.5).reshape(2, 8, h, w)
    regression[1, 3, 2, 4] = -0.0
    return TargetMaps(
        stride=4, num_classes=c, width=w, height=h, image_w=20, image_h=12,
        heatmap=heatmap, regression=regression, reg_mask=np.ones((2, h, w), dtype=bool),
        n_objects=0,
    )


def entries(container):
    manifest = json.loads((Path(container) / "manifest.json").read_text())
    return {t["name"]: t for t in manifest["tensors"]}


def extent(container, name):
    """A tensor's file, byte offset and byte length, found through its manifest entry."""
    entry = entries(container)[name]
    words = 2 * entry["count"] if entry.get("layout") == "sparse" else math.prod(entry["shape"])
    return Path(container) / entry["file"], entry.get("offset", 0), 4 * words


def tensor_bytes(container, name):
    path, offset, length = extent(container, name)
    return path.read_bytes()[offset:offset + length]


def rewrite_tensor(container, name, data, cut=False):
    """Put data in place of a tensor's bytes, leaving the manifest as it is.

    The file's later bytes follow data, or with cut=True they are dropped
    and the file ends where data does: cut short when data is.
    """
    path, offset, length = extent(container, name)
    raw = path.read_bytes()
    path.write_bytes(raw[:offset] + data + (b"" if cut else raw[offset + length:]))


def sparse_cells(container, name):
    """A sparse tensor's flat indices and values, read independently of read_maps."""
    count = entries(container)[name]["count"]
    raw = tensor_bytes(container, name)
    return np.frombuffer(raw[:4 * count], "<u4"), np.frombuffer(raw[4 * count:], "<f4")


def assert_same_bits(a, b):
    """Equal arrays, -0.0 told apart from 0.0."""
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


def assert_reads_as_written(back, maps):
    """back is maps as a dense float32 file would give it: float64 of float32 values, bit for bit."""
    assert_same_bits(back.heatmap, maps.heatmap.astype("<f4").astype(np.float64))
    assert_same_bits(back.regression, maps.regression.astype("<f4").astype(np.float64))
    assert_same_bits(back.reg_mask, maps.reg_mask)


def test_round_trip_preserves_maps(tmp_path):
    maps = sample_maps()
    path = write_maps(maps, tmp_path / "img", ["plane", "ship"])
    assert path.name == "manifest.json"
    back, names = read_maps(tmp_path / "img")
    assert names == ["plane", "ship"]
    for field in ("stride", "num_classes", "width", "height", "image_w", "image_h"):
        assert getattr(back, field) == getattr(maps, field)
    np.testing.assert_array_equal(back.heatmap, maps.heatmap)
    np.testing.assert_array_equal(back.reg_mask, maps.reg_mask)
    # Offsets live in float32 on disk; values here are a few hundred pixels.
    np.testing.assert_allclose(back.regression, maps.regression, atol=1e-4)


def test_manifest_fields_and_tensor_list(tmp_path):
    maps = dense_maps()
    write_maps(maps, tmp_path, ["a", "b"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for field in ("stride", "num_classes", "width", "height", "image_w", "image_h", "class_names", "tensors"):
        assert field in manifest
    assert [t["name"] for t in manifest["tensors"]] == list(TENSOR_NAMES)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", DATA_FILE]
    offset = 0  # the tensors lie back to back in one file
    for t in manifest["tensors"]:
        assert t["dtype"] == "<f4" and t["file"] == DATA_FILE and t["offset"] == offset
        assert t["layout"] == "dense" and "count" not in t
        offset += 4 * int(np.prod(t["shape"]))
    assert (tmp_path / DATA_FILE).stat().st_size == offset


def test_manifest_fields_and_tensor_list_sparse(tmp_path):
    maps = sample_maps()
    write_maps(maps, tmp_path, ["a", "b"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {t["name"] for t in manifest["tensors"]} == set(TENSOR_NAMES)
    views = {
        "hm": maps.heatmap, "reg": maps.regression, "mask": maps.reg_mask,
    }
    offset = 0
    for t in manifest["tensors"]:
        kind, branch = t["name"].split("_")
        array = views[kind][int(branch[-1]) - 1]
        assert t["dtype"] == "<f4" and t["layout"] == "sparse"
        assert t["file"] == DATA_FILE and t["offset"] == offset
        assert t["shape"] == list(array.shape)
        assert 0 < t["count"] == np.count_nonzero(array) < array.size / 2
        offset += 8 * t["count"]
    assert (tmp_path / DATA_FILE).stat().st_size == offset


def test_layout_is_little_endian_channel_row_col(tmp_path):
    maps = dense_maps()
    maps.regression[1, 3, 5, 7] = -123.5  # branch 2, channel 3, row 5, col 7
    write_maps(maps, tmp_path, ["a", "b"])
    assert entries(tmp_path)["reg_b2"]["layout"] == "dense"
    raw = tensor_bytes(tmp_path, "reg_b2")
    flat_index = (3 * maps.height + 5) * maps.width + 7
    value = struct.unpack("<f", raw[4 * flat_index : 4 * flat_index + 4])[0]
    assert value == -123.5


def test_layout_is_little_endian_channel_row_col_sparse(tmp_path):
    maps = sample_maps()
    maps.regression[1, 3, 5, 7] = -123.5  # branch 2, channel 3, row 5, col 7
    write_maps(maps, tmp_path, ["a", "b"])
    count = entries(tmp_path)["reg_b2"]["count"]
    raw = tensor_bytes(tmp_path, "reg_b2")
    indices = struct.unpack(f"<{count}I", raw[: 4 * count])
    values = struct.unpack(f"<{count}f", raw[4 * count :])
    assert list(indices) == sorted(set(indices))
    flat_index = (3 * maps.height + 5) * maps.width + 7
    assert values[indices.index(flat_index)] == -123.5
    flat = maps.regression[1].reshape(-1)
    assert list(indices) == np.flatnonzero(flat).tolist()
    assert list(values) == flat[list(indices)].astype(np.float32).tolist()


@pytest.mark.parametrize("make", [dense_maps, sample_maps], ids=["dense", "sparse"])
def test_round_trip_is_bit_identical(tmp_path, make):
    maps = make()
    # -0.0 has bits, so it is kept in either layout, and a non-zero reads as
    # its float32 value.
    maps.regression[0, 2, 10, 11] = -0.0
    maps.regression[1, 5, 40, 3] = 0.1
    maps.heatmap[1, 0, 7, 9] = -0.0
    write_maps(maps, tmp_path, ["a", "b"])
    layout = "dense" if make is dense_maps else "sparse"
    assert {t["layout"] for t in entries(tmp_path).values()} == {layout}
    back, _ = read_maps(tmp_path)
    assert_reads_as_written(back, maps)
    assert np.signbit(back.regression[0, 2, 10, 11]) and np.signbit(back.heatmap[1, 0, 7, 9])


def test_sparse_when_smaller_than_dense(tmp_path):
    # Sparse takes 8 bytes per non-zero cell, dense 4 per cell; a tie stays dense.
    maps = tiny_dense_maps()  # 30 cells per heatmap, 120 per regression, 15 per mask
    maps.heatmap[...] = 0.0
    maps.heatmap[0].reshape(-1)[:14] = 1.0  # 8 x 14 < 4 x 30: sparse
    maps.heatmap[1].reshape(-1)[:15] = 1.0  # 8 x 15 == 4 x 30: dense
    maps.regression[...] = 0.0
    maps.regression[0].reshape(-1)[:59] = 2.0  # 8 x 59 < 4 x 120
    maps.regression[1].reshape(-1)[:60] = 2.0  # 8 x 60 == 4 x 120
    maps.reg_mask[0] = False  # no cell at all: sparse, an empty file
    write_maps(maps, tmp_path, ["a", "b"])
    layouts = {name: t["layout"] for name, t in entries(tmp_path).items()}
    assert layouts == {
        "hm_b1": "sparse", "hm_b2": "dense", "reg_b1": "sparse", "reg_b2": "dense",
        "mask_b1": "sparse", "mask_b2": "dense",
    }
    assert len(tensor_bytes(tmp_path, "hm_b1")) == 8 * 14
    assert extent(tmp_path, "mask_b1")[2] == 0
    back, _ = read_maps(tmp_path)
    assert_reads_as_written(back, maps)


def test_tensor_past_the_sparse_cell_cap_is_written_dense(tmp_path, monkeypatch):
    # The cap is on stored cells: a tensor storing more is written dense,
    # however small a share of its grid they are, since read_maps refuses
    # a sparse one.
    monkeypatch.setattr("midlines.container.MAX_SPARSE_CELLS", 30)
    maps = tiny_dense_maps()  # 30 cells per heatmap, 120 per regression, 15 per mask
    maps.heatmap[...] = 0.0
    maps.regression[...] = 0.0
    maps.regression[0].reshape(-1)[:30] = 2.0  # 8 x 30 < 4 x 120, at the cap: sparse
    maps.regression[1].reshape(-1)[:31] = 2.0  # 8 x 31 < 4 x 120, past the cap: dense
    maps.reg_mask[...] = False
    write_maps(maps, tmp_path, ["a", "b"])
    layouts = {name: t["layout"] for name, t in entries(tmp_path).items()}
    assert layouts == {
        "hm_b1": "sparse", "hm_b2": "sparse", "reg_b1": "sparse", "reg_b2": "dense",
        "mask_b1": "sparse", "mask_b2": "sparse",
    }
    back, _ = read_maps(tmp_path)
    assert_reads_as_written(back, maps)


def test_tensor_past_the_sparse_grid_is_written_dense(tmp_path, monkeypatch):
    # A grid of more than 2**32 cells is written dense whatever it stores:
    # its "<u4" indices could not address every cell.
    monkeypatch.setattr("midlines.container.MAX_SPARSE_GRID", 29)
    maps = tiny_dense_maps()  # 30 cells per heatmap, 120 per regression, 15 per mask
    maps.heatmap[...] = 0.0
    maps.regression[...] = 0.0
    maps.reg_mask[...] = False
    write_maps(maps, tmp_path, ["a", "b"])
    layouts = {name: t["layout"] for name, t in entries(tmp_path).items()}
    assert layouts == {
        "hm_b1": "dense", "hm_b2": "dense", "reg_b1": "dense", "reg_b2": "dense",
        "mask_b1": "sparse", "mask_b2": "sparse",
    }
    back, _ = read_maps(tmp_path)
    assert_reads_as_written(back, maps)


def claim_grid(path, height, width):
    """Make path's container claim a height x width grid, every tensor sparse and empty."""
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["height"], manifest["width"] = height, width
    for entry in manifest["tensors"]:
        entry["shape"][-2:] = [height, width]
        entry.update(layout="sparse", count=0, offset=0)
    (path / DATA_FILE).write_bytes(b"")
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_sparse_tensor_past_the_cell_cap_raises_before_allocating(tmp_path, monkeypatch):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    counts = {name: t["count"] for name, t in entries(tmp_path).items()}
    most = max(counts.values())
    first = next(name for name in TENSOR_NAMES if counts[name] == most)
    monkeypatch.setattr("midlines.container.MAX_SPARSE_CELLS", most)
    read_maps(tmp_path)
    monkeypatch.setattr("midlines.container.MAX_SPARSE_CELLS", most - 1)
    with pytest.raises(ShapeMismatch, match=rf"^tensor {first}: sparse count {most} is more than {most - 1}$"):
        read_maps(tmp_path)
    monkeypatch.undo()
    # Refused from the manifest alone, before the extents are checked or read.
    edit_entry(tmp_path, "hm_b1", count=MAX_SPARSE_CELLS + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeMismatch, match=r"^tensor hm_b1: sparse count 16777217 is more than 16777216$"):
            read_maps(tmp_path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_sparse_tensor_past_the_grid_cap_raises_before_allocating(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    # 8 regression channels make reg_b1 the first tensor to pass 2**32 cells.
    claim_grid(tmp_path, 1 << 16, MAX_SPARSE_GRID // 8 >> 16)
    tracemalloc.start()
    try:
        back, _ = read_maps(tmp_path)
        assert len(decode(back)) == 0
        assert tracemalloc.get_traced_memory()[1] < 1 << 20  # no grid is made
    finally:
        tracemalloc.stop()
    regression = back.kept("regression")
    assert isinstance(regression, Cells) and regression.shape == (2, 8, 1 << 16, 1 << 13)
    claim_grid(tmp_path, 1 << 16, (MAX_SPARSE_GRID // 8 >> 16) + 1)
    with pytest.raises(
        ShapeMismatch, match=r"^tensor reg_b1: sparse shape \(8, 65536, 8193\) has 4295491584 cells, more than 4294967296$"
    ):
        read_maps(tmp_path)


def test_container_written_before_layouts_still_reads():
    assert all("layout" not in t and "offset" not in t for t in entries(DENSE_CONTAINER).values())
    back, names = read_maps(DENSE_CONTAINER)
    assert names == ["plane", "ship"]
    maps = tiny_dense_maps()
    for field in ("stride", "num_classes", "width", "height", "image_w", "image_h"):
        assert getattr(back, field) == getattr(maps, field)
    assert_reads_as_written(back, maps)
    assert np.signbit(back.regression[1, 3, 2, 4])


def test_dense_map_writes_the_tensor_files_written_before_layouts(tmp_path):
    # Each tensor's bytes and entry are those of its own file then; the
    # bytes now lie in one file, at the entry's offset.
    write_maps(tiny_dense_maps(), tmp_path, ["plane", "ship"])
    for name, entry in entries(tmp_path).items():
        assert (entry.pop("file"), entry.pop("layout")) == (DATA_FILE, "dense")
        entry.pop("offset")
        assert entry == {k: v for k, v in entries(DENSE_CONTAINER)[name].items() if k != "file"}
        assert tensor_bytes(tmp_path, name) == tensor_bytes(DENSE_CONTAINER, name)


def test_mask_stores_ones(tmp_path):
    maps = sample_maps()
    write_maps(maps, tmp_path, ["a", "b"])
    for branch in (1, 2):
        indices, values = sparse_cells(tmp_path, f"mask_b{branch}")
        assert indices.tolist() == np.flatnonzero(maps.reg_mask[branch - 1]).tolist()
        assert set(values.tolist()) == {1.0}


def test_missing_tensor_file_raises(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    extent(tmp_path, "reg_b1")[0].unlink()
    with pytest.raises(FileNotFoundError):
        read_maps(tmp_path)


def test_truncated_tensor_raises_shape_mismatch(tmp_path):
    # The file cut 8 bytes short of hm_b1's end: hm_b1 is the first extent
    # to reach past it.
    write_maps(dense_maps(), tmp_path, ["a", "b"])
    rewrite_tensor(tmp_path, "hm_b1", tensor_bytes(tmp_path, "hm_b1")[:-8], cut=True)
    with pytest.raises(
        ShapeMismatch, match=r"^tensor hm_b1: file holds 30712 bytes, manifest shape \(2, 60, 64\) at offset 0 needs 30720$"
    ):
        read_maps(tmp_path)


def test_truncated_tensor_raises_shape_mismatch_sparse(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    needs = len(tensor_bytes(tmp_path, "hm_b1"))
    rewrite_tensor(tmp_path, "hm_b1", tensor_bytes(tmp_path, "hm_b1")[:-8], cut=True)  # one index and one value short
    with pytest.raises(
        ShapeMismatch, match=rf"^tensor hm_b1: file holds {needs - 8} bytes, manifest count {needs // 8} at offset 0 needs {needs}$"
    ):
        read_maps(tmp_path)


def assert_trailing_bytes_raise(container, extra):
    # Bytes after reg_b1's extent push every later extent back, so the
    # file's last extent, mask_b2's, ends that many bytes before the file
    # does. np.fromfile reads whole float32 values only, so 1-3 extra
    # bytes would leave every element count right; the size rule sees them.
    rewrite_tensor(container, "reg_b1", tensor_bytes(container, "reg_b1") + bytes(extra))
    size = (container / DATA_FILE).stat().st_size
    _, offset, _ = extent(container, "mask_b2")
    with pytest.raises(
        ShapeMismatch, match=rf"^tensor mask_b2: file holds {size} bytes, manifest .* at offset {offset} needs {size - extra}$"
    ):
        read_maps(container)


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
def test_trailing_bytes_raise_shape_mismatch(tmp_path, extra):
    write_maps(dense_maps(), tmp_path, ["a", "b"])
    assert_trailing_bytes_raise(tmp_path, extra)


@pytest.mark.parametrize("extra", [1, 2, 3, 4, 8])
def test_trailing_bytes_raise_shape_mismatch_sparse(tmp_path, extra):
    # 8 bytes is one whole index-value pair that no count lists.
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    assert_trailing_bytes_raise(tmp_path, extra)


def edit_entry(container, name, **fields):
    path = Path(container) / "manifest.json"
    manifest = json.loads(path.read_text())
    for entry in manifest["tensors"]:
        if entry["name"] == name:
            entry.update(fields)
    path.write_text(json.dumps(manifest))


def write_cells(container, name, indices, values):
    """Replace a sparse tensor's indices and values with as many others."""
    assert len(indices) == entries(container)[name]["count"]
    rewrite_tensor(container, name, np.asarray(indices, "<u4").tobytes() + np.asarray(values, "<f4").tobytes())


@pytest.mark.parametrize("damage, message", [
    ("past-end", "mask_b1: index 3840 at or past its 3840 cells"),
    ("far-past-end", "mask_b1: index 4294967295 at or past its 3840 cells"),
    ("repeated", "mask_b1: indices not strictly increasing"),
    ("decreasing", "mask_b1: indices not strictly increasing"),
])
def test_sparse_index_damage_raises_shape_mismatch(tmp_path, damage, message):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    indices, values = sparse_cells(tmp_path, "mask_b1")
    indices, values = indices.tolist(), values.tolist()
    if damage == "past-end":
        indices[-1] = 60 * 64
    elif damage == "far-past-end":
        indices[-1] = 2**32 - 1
    elif damage == "repeated":
        indices[1] = indices[0]
    else:
        indices[0], indices[1] = indices[1], indices[0]
    write_cells(tmp_path, "mask_b1", indices, values)
    with pytest.raises(ShapeMismatch, match=message):
        read_maps(tmp_path)


@pytest.mark.parametrize("count", [-1, 2.0, "3", None, True])
def test_sparse_count_must_be_a_non_negative_integer(tmp_path, count):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    edit_entry(tmp_path, "reg_b2", count=count)
    with pytest.raises(ShapeMismatch, match=f"tensor reg_b2 count must be an integer >= 0, got {count!r}"):
        read_maps(tmp_path)


@pytest.mark.parametrize("delta", [-1, 1])
def test_sparse_count_must_match_file_size(tmp_path, delta):
    # hm_b2's extent then ends 8 bytes before or after reg_b1's starts.
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    count = entries(tmp_path)["hm_b2"]["count"]
    start = entries(tmp_path)["reg_b1"]["offset"]
    edit_entry(tmp_path, "hm_b2", count=count + delta)
    message = (
        f"overlaps tensor hm_b2's, which ends at byte {start + 8}" if delta > 0
        else f"leaves bytes {start - 8} to {start} in no tensor"
    )
    with pytest.raises(ShapeMismatch, match=rf"^tensor reg_b1: extent at byte {start} of 'maps.f32' {message}$"):
        read_maps(tmp_path)


def shift(container, name, by):
    """Move a tensor's manifest offset by `by` bytes."""
    edit_entry(container, name, offset=entries(container)[name]["offset"] + by)


def overlap(c):
    shift(c, "reg_b1", -4)


def same_offset(c):
    edit_entry(c, "reg_b2", offset=entries(c)["reg_b1"]["offset"])


def gap(c):
    shift(c, "mask_b1", 4)


def gap_at_start(c):
    (c / DATA_FILE).write_bytes(bytes(4) + (c / DATA_FILE).read_bytes())
    for name in TENSOR_NAMES:
        shift(c, name, 4)


def past_end(c):
    (c / DATA_FILE).write_bytes((c / DATA_FILE).read_bytes()[:-4])


def after_last(c):
    (c / DATA_FILE).write_bytes((c / DATA_FILE).read_bytes() + bytes(4))


@pytest.mark.parametrize("damage, message", [
    (overlap, r"tensor reg_b1: extent at byte (\d+) of 'maps.f32' overlaps tensor hm_b2's, which ends at byte \d+"),
    (same_offset, r"tensor reg_b\d: extent at byte (\d+) of 'maps.f32' overlaps tensor reg_b\d's, which ends at byte \d+"),
    (gap, r"tensor mask_b1: extent at byte \d+ of 'maps.f32' leaves bytes \d+ to \d+ in no tensor"),
    (gap_at_start, r"tensor hm_b1: extent at byte 4 of 'maps.f32' leaves bytes 0 to 4 in no tensor"),
    (past_end, r"tensor mask_b2: file holds (\d+) bytes, manifest count \d+ at offset \d+ needs \d+"),
    (after_last, r"tensor mask_b2: file holds (\d+) bytes, manifest count \d+ at offset \d+ needs \d+"),
], ids=["overlap", "same-offset", "gap", "gap-at-start", "past-end", "after-last"])
def test_extents_must_tile_their_file(tmp_path, capsys, damage, message):
    container = tmp_path / "maps"
    write_maps(sample_maps(), container, ["a", "b"])
    damage(container)
    with pytest.raises(ShapeMismatch, match=f"^{message}$"):
        read_maps(container)
    assert main(["decode", "--maps", str(container), "--out", str(tmp_path / "d.json")]) == 2
    assert capsys.readouterr().out.startswith("error=tensor ")


@pytest.mark.parametrize("offset", [-1, True, False, 0.0, 4.5, "0", None])
def test_offset_must_be_a_non_negative_integer(tmp_path, offset):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    edit_entry(tmp_path, "hm_b2", offset=offset)
    with pytest.raises(ShapeMismatch, match=rf"^manifest tensor hm_b2 offset must be an integer >= 0, got {re.escape(repr(offset))}$"):
        read_maps(tmp_path)


def test_tensor_in_its_own_file_reads_beside_the_shared_one(tmp_path):
    # The size rule holds each file alone: maps.f32 without hm_b2's bytes,
    # and hm_b2.f32 holding just them, its entry without an offset.
    maps = sample_maps()
    write_maps(maps, tmp_path, ["a", "b"])
    data = tensor_bytes(tmp_path, "hm_b2")
    _, start, _ = extent(tmp_path, "hm_b2")
    rewrite_tensor(tmp_path, "hm_b2", b"")
    (tmp_path / "hm_b2.f32").write_bytes(data)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for entry in manifest["tensors"]:
        if entry["name"] == "hm_b2":
            entry["file"] = "hm_b2.f32"
            del entry["offset"]
        elif entry["offset"] > start:
            entry["offset"] -= len(data)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    back, _ = read_maps(tmp_path)
    assert_reads_as_written(back, maps)
    (tmp_path / "hm_b2.f32").write_bytes(data + bytes(4))
    with pytest.raises(
        ShapeMismatch, match=rf"^tensor hm_b2: file holds {len(data) + 4} bytes, manifest count \d+ at offset 0 needs {len(data)}$"
    ):
        read_maps(tmp_path)


@pytest.mark.parametrize("dtype", ["<f8", ">f4", "<u4", None, 4])
def test_dtype_other_than_little_endian_float32_raises(tmp_path, dtype):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    edit_entry(tmp_path, "reg_b1", dtype=dtype)
    with pytest.raises(ShapeMismatch, match=f"tensor reg_b1: dtype must be '<f4', got {dtype!r}"):
        read_maps(tmp_path)


@pytest.mark.parametrize("layout", ["Sparse", "csr", "", None, 1])
def test_unknown_layout_raises(tmp_path, layout):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    edit_entry(tmp_path, "hm_b2", layout=layout)
    with pytest.raises(
        ShapeMismatch, match=f"tensor hm_b2: layout must be 'dense' or 'sparse', got {layout!r}"
    ):
        read_maps(tmp_path)



def test_manifest_missing_tensor_entry_raises(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"] = [t for t in manifest["tensors"] if t["name"] != "mask_b2"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ShapeMismatch):
        read_maps(tmp_path)


def test_tensor_named_twice_raises_shape_mismatch(tmp_path, capsys):
    # A second hm_b1 entry for an empty sparse file: read by name, the last
    # entry would stand, and decode would find nothing in the maps.
    container = tmp_path / "maps"
    write_maps(sample_maps(), container, ["a", "b"])
    manifest = json.loads((container / "manifest.json").read_text())
    manifest["tensors"].append(dict(entries(container)["hm_b1"], file="empty.f32", layout="sparse", count=0))
    (container / "manifest.json").write_text(json.dumps(manifest))
    (container / "empty.f32").write_bytes(b"")
    with pytest.raises(ShapeMismatch, match="^manifest names tensor 'hm_b1' more than once$"):
        read_maps(container)
    assert main(["decode", "--maps", str(container), "--out", str(tmp_path / "d.json")]) == 2
    assert capsys.readouterr().out == "error=manifest names tensor 'hm_b1' more than once\n"


def test_class_name_count_must_match_channels(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_maps(sample_maps(), tmp_path, ["only-one"])


def test_large_image_with_one_box_writes_and_decodes_without_a_grid(tmp_path, capsys):
    # A 5000 x 5000 image at stride 4 has 15 x 1250**2 heatmap cells per
    # branch, 94 MB as float32 and twice that as the float64 array read_maps
    # would make; one box stores a few hundred cells.
    gt = [{"image_id": "big", "width": 5000, "height": 5000, "objects": [
        {"class": "plane", "corners": [2480, 2490, 2520, 2490, 2520, 2510, 2480, 2510], "difficult": False},
    ]}]
    (tmp_path / "gt.json").write_text(json.dumps(gt))
    assert main(["encode", "--gt", str(tmp_path / "gt.json"), "--out", str(tmp_path / "maps")]) == 0
    container = tmp_path / "maps" / "big"
    assert sum(p.stat().st_size for p in container.iterdir()) < 64 << 10
    assert {t["layout"] for t in entries(container).values()} == {"sparse"}
    tracemalloc.start()
    try:
        maps, _ = read_maps(container)
        (det,) = decode(maps)
        assert tracemalloc.get_traced_memory()[1] < 4 << 20
    finally:
        tracemalloc.stop()
    assert (det.class_id, det.branch.index) == (0, 0)
    assert all(isinstance(maps.kept(f), Cells) for f in ("heatmap", "regression", "reg_mask"))
