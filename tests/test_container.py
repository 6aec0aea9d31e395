import json
import struct

import numpy as np
import pytest

from midlines.container import TENSOR_NAMES, read_maps, write_maps
from midlines.encoder import encode_image
from midlines.errors import ShapeMismatch
from midlines.geometry import rectangle


def sample_maps():
    boxes = [
        rectangle(61.5, 58.25, 40, 24, class_id=0),
        rectangle(180, 175, 48, 30, angle_deg=33, class_id=1),
    ]
    return encode_image(boxes, 256, 240, num_classes=2)


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
    maps = sample_maps()
    write_maps(maps, tmp_path, ["a", "b"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for field in ("stride", "num_classes", "width", "height", "image_w", "image_h", "class_names", "tensors"):
        assert field in manifest
    assert {t["name"] for t in manifest["tensors"]} == set(TENSOR_NAMES)
    for t in manifest["tensors"]:
        assert t["dtype"] == "<f4"
        size = (tmp_path / t["file"]).stat().st_size
        assert size == 4 * int(np.prod(t["shape"]))


def test_layout_is_little_endian_channel_row_col(tmp_path):
    maps = sample_maps()
    maps.regression[1, 3, 5, 7] = -123.5  # branch 2, channel 3, row 5, col 7
    write_maps(maps, tmp_path, ["a", "b"])
    raw = (tmp_path / "reg_b2.f32").read_bytes()
    flat_index = (3 * maps.height + 5) * maps.width + 7
    value = struct.unpack("<f", raw[4 * flat_index : 4 * flat_index + 4])[0]
    assert value == -123.5


def test_missing_tensor_file_raises(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    (tmp_path / "reg_b1.f32").unlink()
    with pytest.raises(FileNotFoundError):
        read_maps(tmp_path)


def test_truncated_tensor_raises_shape_mismatch(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    data = (tmp_path / "hm_b1.f32").read_bytes()
    (tmp_path / "hm_b1.f32").write_bytes(data[:-8])
    with pytest.raises(ShapeMismatch):
        read_maps(tmp_path)


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
def test_trailing_bytes_raise_shape_mismatch(tmp_path, extra):
    # np.fromfile reads whole float32 values only, so 1-3 extra bytes
    # leave the element count right; the byte size is what disagrees.
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    with open(tmp_path / "reg_b1.f32", "ab") as f:
        f.write(bytes(extra))
    with pytest.raises(ShapeMismatch, match="reg_b1: file holds"):
        read_maps(tmp_path)


def test_manifest_missing_tensor_entry_raises(tmp_path):
    write_maps(sample_maps(), tmp_path, ["a", "b"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"] = [t for t in manifest["tensors"] if t["name"] != "mask_b2"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ShapeMismatch):
        read_maps(tmp_path)


def test_class_name_count_must_match_channels(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_maps(sample_maps(), tmp_path, ["only-one"])
