import json
import struct
from pathlib import Path

import numpy as np
import pytest

from midlines.cli import main
from midlines.container import MAX_SPARSE_CELLS, TENSOR_NAMES, read_maps, write_maps
from midlines.encoder import TargetMaps, encode_image
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


def sparse_cells(container, name):
    """A sparse tensor file's flat indices and values, read independently of read_maps."""
    count = entries(container)[name]["count"]
    raw = (Path(container) / f"{name}.f32").read_bytes()
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
    assert {t["name"] for t in manifest["tensors"]} == set(TENSOR_NAMES)
    for t in manifest["tensors"]:
        assert t["dtype"] == "<f4"
        assert t["layout"] == "dense" and "count" not in t
        size = (tmp_path / t["file"]).stat().st_size
        assert size == 4 * int(np.prod(t["shape"]))


def test_manifest_fields_and_tensor_list_sparse(tmp_path):
    maps = sample_maps()
    write_maps(maps, tmp_path, ["a", "b"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {t["name"] for t in manifest["tensors"]} == set(TENSOR_NAMES)
    views = {
        "hm": maps.heatmap, "reg": maps.regression, "mask": maps.reg_mask,
    }
    for t in manifest["tensors"]:
        kind, branch = t["name"].split("_")
        array = views[kind][int(branch[-1]) - 1]
        assert t["dtype"] == "<f4" and t["layout"] == "sparse"
        assert t["shape"] == list(array.shape)
        assert 0 < t["count"] == np.count_nonzero(array) < array.size / 2
        assert (tmp_path / t["file"]).stat().st_size == 8 * t["count"]


def test_layout_is_little_endian_channel_row_col(tmp_path):
    maps = dense_maps()
    maps.regression[1, 3, 5, 7] = -123.5  # branch 2, channel 3, row 5, col 7
    write_maps(maps, tmp_path, ["a", "b"])
    assert entries(tmp_path)["reg_b2"]["layout"] == "dense"
    raw = (tmp_path / "reg_b2.f32").read_bytes()
    flat_index = (3 * maps.height + 5) * maps.width + 7
    value = struct.unpack("<f", raw[4 * flat_index : 4 * flat_index + 4])[0]
    assert value == -123.5


def test_layout_is_little_endian_channel_row_col_sparse(tmp_path):
    maps = sample_maps()
    maps.regression[1, 3, 5, 7] = -123.5  # branch 2, channel 3, row 5, col 7
    write_maps(maps, tmp_path, ["a", "b"])
    count = entries(tmp_path)["reg_b2"]["count"]
    raw = (tmp_path / "reg_b2.f32").read_bytes()
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
    assert (tmp_path / "hm_b1.f32").stat().st_size == 8 * 14
    assert (tmp_path / "mask_b1.f32").stat().st_size == 0
    back, _ = read_maps(tmp_path)
    assert_reads_as_written(back, maps)


def test_tensor_past_the_sparse_cell_cap_is_written_dense(tmp_path, monkeypatch):
    monkeypatch.setattr("midlines.container.MAX_SPARSE_CELLS", 30)
    maps = tiny_dense_maps()  # 30 cells per heatmap, 120 per regression, 15 per mask
    maps.heatmap[...] = 0.0
    maps.regression[...] = 0.0
    maps.reg_mask[...] = False
    write_maps(maps, tmp_path, ["a", "b"])
    layouts = {name: t["layout"] for name, t in entries(tmp_path).items()}
    assert layouts == {
        "hm_b1": "sparse", "hm_b2": "sparse", "reg_b1": "dense", "reg_b2": "dense",
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
        entry.update(layout="sparse", count=0)
        (path / entry["file"]).write_bytes(b"")
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_sparse_tensor_past_the_cell_cap_raises_before_allocating(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    # 8 regression channels make reg_b1 the first tensor to reach the cap.
    claim_grid(tmp_path, 1024, MAX_SPARSE_CELLS // 8 // 1024)
    back, _ = read_maps(tmp_path)
    assert back.regression.shape == (2, 8, 1024, MAX_SPARSE_CELLS // 8 // 1024)
    claim_grid(tmp_path, 1024, MAX_SPARSE_CELLS // 8 // 1024 + 1)
    with pytest.raises(ShapeMismatch, match=r"^tensor reg_b1: sparse shape .* more than 16777216$"):
        read_maps(tmp_path)


def test_container_written_before_layouts_still_reads():
    assert all("layout" not in t for t in entries(DENSE_CONTAINER).values())
    back, names = read_maps(DENSE_CONTAINER)
    assert names == ["plane", "ship"]
    maps = tiny_dense_maps()
    for field in ("stride", "num_classes", "width", "height", "image_w", "image_h"):
        assert getattr(back, field) == getattr(maps, field)
    assert_reads_as_written(back, maps)
    assert np.signbit(back.regression[1, 3, 2, 4])


def test_dense_map_writes_the_tensor_files_written_before_layouts(tmp_path):
    write_maps(tiny_dense_maps(), tmp_path, ["plane", "ship"])
    for name, entry in entries(tmp_path).items():
        assert entry.pop("layout") == "dense"
        assert entry == entries(DENSE_CONTAINER)[name]
        assert (tmp_path / entry["file"]).read_bytes() == (DENSE_CONTAINER / entry["file"]).read_bytes()


def test_mask_stores_ones(tmp_path):
    maps = sample_maps()
    write_maps(maps, tmp_path, ["a", "b"])
    for branch in (1, 2):
        indices, values = sparse_cells(tmp_path, f"mask_b{branch}")
        assert indices.tolist() == np.flatnonzero(maps.reg_mask[branch - 1]).tolist()
        assert set(values.tolist()) == {1.0}


def test_missing_tensor_file_raises(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    (tmp_path / "reg_b1.f32").unlink()
    with pytest.raises(FileNotFoundError):
        read_maps(tmp_path)


def test_truncated_tensor_raises_shape_mismatch(tmp_path):
    write_maps(dense_maps(), tmp_path, ["a", "b"])
    data = (tmp_path / "hm_b1.f32").read_bytes()
    (tmp_path / "hm_b1.f32").write_bytes(data[:-8])
    with pytest.raises(ShapeMismatch, match="hm_b1: file holds .* manifest shape"):
        read_maps(tmp_path)


def test_truncated_tensor_raises_shape_mismatch_sparse(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    data = (tmp_path / "hm_b1.f32").read_bytes()
    (tmp_path / "hm_b1.f32").write_bytes(data[:-8])  # one index and one value short
    with pytest.raises(ShapeMismatch, match="hm_b1: file holds .* manifest count"):
        read_maps(tmp_path)


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
def test_trailing_bytes_raise_shape_mismatch(tmp_path, extra):
    # np.fromfile reads whole float32 values only, so 1-3 extra bytes
    # leave the element count right; the byte size is what disagrees.
    write_maps(dense_maps(), tmp_path, ["a", "b"])
    with open(tmp_path / "reg_b1.f32", "ab") as f:
        f.write(bytes(extra))
    with pytest.raises(ShapeMismatch, match="reg_b1: file holds"):
        read_maps(tmp_path)


@pytest.mark.parametrize("extra", [1, 2, 3, 4, 8])
def test_trailing_bytes_raise_shape_mismatch_sparse(tmp_path, extra):
    # 8 bytes is one whole index-value pair that the count does not list.
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    with open(tmp_path / "reg_b1.f32", "ab") as f:
        f.write(bytes(extra))
    with pytest.raises(ShapeMismatch, match="reg_b1: file holds"):
        read_maps(tmp_path)


def edit_entry(container, name, **fields):
    path = Path(container) / "manifest.json"
    manifest = json.loads(path.read_text())
    for entry in manifest["tensors"]:
        if entry["name"] == name:
            entry.update(fields)
    path.write_text(json.dumps(manifest))


def write_cells(container, name, indices, values):
    """Replace a sparse tensor's file and count."""
    indices = np.asarray(indices, "<u4")
    (Path(container) / f"{name}.f32").write_bytes(
        indices.tobytes() + np.asarray(values, "<f4").tobytes()
    )
    edit_entry(container, name, count=len(indices))


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
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    count = entries(tmp_path)["hm_b2"]["count"]
    edit_entry(tmp_path, "hm_b2", count=count + delta)
    with pytest.raises(ShapeMismatch, match="hm_b2: file holds"):
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
